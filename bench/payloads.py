"""Seeded payload generators.

The seed reaches only this module: the program under test sees the
generated values, never the seed.  Every generator fixes *shape and
size* and draws only the *values* from the seed, so the CDR encoding of
a payload has the same length under every seed (timing is
seed-insensitive) and is byte-identical under the same seed.

Size ladder (CDR ``write_any`` bytes): small is about 300 B — the struct
the published echo figure uses — medium about 2 KiB, large about
16 KiB.  ``echo_cold`` mixes them 8:3:1.
"""

from __future__ import annotations

import random
import string
from typing import Any, Dict, List

#: class -> (doubles in "prices", bytes in "blob").  A double in an
#: ``any`` sequence takes 16 wire bytes (tag, padding, value).
LADDER = {
    "small": (4, 128),
    "medium": (56, 1024),
    "large": (500, 8192),
}
#: Calls per class in each group of twelve.
MIX = {"small": 8, "medium": 3, "large": 1}
MIX_GROUP = sum(MIX.values())


def rng_for(seed: int, *scope: Any) -> random.Random:
    """An independent stream per (seed, scope); str seeds hash stably."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def struct_payload(rng: random.Random, size_class: str = "small") -> Dict[str, Any]:
    """One market-data struct of the given size class."""
    doubles, blob = LADDER[size_class]
    return {
        "symbol": "".join(rng.choices(string.ascii_uppercase, k=4)),
        # 1/64 steps stay exact in binary, so equality survives the wire.
        "prices": [100.0 + rng.randrange(6400) / 64.0 for _ in range(doubles)],
        "blob": rng.randbytes(blob),
        "nested": {"depth": rng.randrange(1, 100), "flag": rng.random() < 0.5},
    }


def mixed_classes(rng: random.Random, count: int) -> List[str]:
    """``count`` size classes in exact 8:3:1 proportion, order shuffled."""
    if count % MIX_GROUP:
        raise ValueError(f"mixed batch size {count} is not a multiple of {MIX_GROUP}")
    classes = [name for name, share in MIX.items() for _ in range(share)]
    classes *= count // MIX_GROUP
    rng.shuffle(classes)
    return classes


def document(rng: random.Random, nbytes: int = 256) -> str:
    """An ASCII document of exactly ``nbytes`` characters."""
    return "".join(rng.choices(string.ascii_letters + string.digits + " ", k=nbytes))
