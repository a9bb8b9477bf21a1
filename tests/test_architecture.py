"""Static architecture rules, checked on the AST of ``src/repro``.

Becker & Geihs §4 separates hierarchically: mechanisms below, QoS
concerns above, each layer ignorant of the one over it.  These rules
hold the package graph to that, Knabe-style (static quality assurance,
PAPERS.md), and are cheap enough to run in tier-1:

1. **The package DAG.**  ``LAYERS`` says which packages each package
   may import; every import counts, function-local ones included
   (that is where this tree's cycles used to hide).  ``LAYERS`` is
   itself proven acyclic, and DESIGN.md's "Layering" table must be the
   same rows.
2. **The sockets client stays below the ORB**: ``rt/client.py`` and
   ``rt/transport.py`` carry bytes and never look inside them.
3. **No swallowed broad exception**: no ``except:`` / ``except
   Exception`` / ``except BaseException`` whose body is only ``pass``
   or ``continue``.
4. **One wall clock**: ``time.time`` / ``time.monotonic`` /
   ``time.sleep`` are called in ``rt/clock.py`` only.
5. **One wire codec**: the CDR primitive formats (``struct.Struct(">I")``
   and friends) are spelled in ``orb/_cdr_fast.py`` only, and the GIOP
   encoders build their own buffer (no pool parameter).
6. **One event kernel**: ``netsim/parallel/`` takes nothing from
   ``repro.netsim.kernel`` but ``KernelError``; its serial fallback is
   one of its own shard runtimes, not a second engine.
7. **One client data path**: ``giop.encode_*`` / ``decode_*`` are
   called (or imported) under ``orb/`` only, where
   ``QoSModule.exchange`` builds every request; the one listed
   exception re-encodes captured replies for comparison.

One dynamic check pins what the DAG buys: a netsim-only process never
loads ``asyncio`` or any package above ``core``.
"""

import ast
import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _imported_names(tree):
    """Every dotted name a module imports, wherever the import sits."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _called_names(tree):
    """Every call target as written: ``f`` or ``a.b.f``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield ast.unparse(node.func)


def _under(name, package):
    return name == package or name.startswith(package + ".")


@functools.lru_cache(maxsize=None)
def _modules():
    """``(path relative to src/, parsed tree)`` for every module of the tree."""
    return tuple(
        (path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
        for path in sorted(PACKAGE.rglob("*.py"))
    )


# -- 1. the package DAG ------------------------------------------------------

#: package -> the packages it may import.  DESIGN.md "Layering" holds
#: the same table (``test_design_layering_table_is_layers``).
LAYERS = {
    "perf": (),
    "codecs": (),
    "ciphers": (),
    "qidl": (),
    "netsim": ("perf",),
    "orb": ("netsim", "qidl", "perf", "codecs", "ciphers"),
    "core": ("orb",),
    "sched": ("core", "orb", "netsim", "perf"),
    "reliability": ("core", "orb", "perf"),
    "qos": ("reliability", "core", "orb", "qidl", "codecs", "ciphers"),
    "control": ("core", "orb", "perf"),
    "workloads": ("qos", "orb", "netsim"),
    "baselines": ("orb", "codecs", "ciphers"),
    "scenario": (
        "workloads", "qos", "reliability", "sched", "orb", "netsim", "perf",
        "codecs",
    ),
    "rt": (
        "qos", "reliability", "sched", "core", "orb", "netsim", "perf", "ciphers",
    ),
}

#: Edges against ``LAYERS`` that cannot go yet, each with the one file
#: allowed to hold it.  ``ORB.install_scheduler`` builds a
#: ``RequestScheduler``; frozen ``bench/workloads.py`` calls it, so the
#: installer moves to ``repro.sched`` in a benchmark PR, not here.
PENDING = {("orb", "sched"): "repro/orb/orb.py"}


def _package_edges(modules):
    """``{(importer, imported): {files}}`` over cross-package imports.

    ``__main__.py`` files are entry points, not library: they wire
    packages together (``python -m repro.qidl`` registers the QoS
    characteristics) and nothing imports them.
    """
    edges = {}
    for path, tree in modules:
        parts = path.split("/")
        if len(parts) < 3 or parts[-1] == "__main__.py":
            continue
        importer = parts[1]
        for name in _imported_names(tree):
            pieces = name.split(".")
            if pieces[0] != "repro" or len(pieces) < 2:
                continue
            if pieces[1] != importer and pieces[1] in LAYERS:
                edges.setdefault((importer, pieces[1]), set()).add(path)
    return edges


def _violations(edges):
    """Edges outside ``LAYERS`` and ``PENDING``, as ``a→b (file)`` strings."""
    found = []
    for (importer, imported), files in sorted(edges.items()):
        if imported in LAYERS.get(importer, ()):
            continue
        for path in sorted(files):
            if PENDING.get((importer, imported)) != path:
                found.append(f"{importer}→{imported} ({path})")
    return found


def test_package_imports_obey_layers():
    edges = _package_edges(_modules())
    on_disk = {p.name for p in PACKAGE.iterdir() if (p / "__init__.py").exists()}
    assert on_disk == set(LAYERS), "LAYERS must name every package under src/repro"
    assert _violations(edges) == []
    gone = sorted(edge for edge in PENDING if edge not in edges)
    assert not gone, f"PENDING edges no longer exist, delete them: {gone}"


def test_layers_is_acyclic():
    """Kahn's sort places every package, so LAYERS has no cycle."""
    remaining = {package: set(deps) for package, deps in LAYERS.items()}
    assert all(deps <= set(LAYERS) for deps in remaining.values())
    order = []
    while remaining:
        ready = sorted(p for p, deps in remaining.items() if not deps)
        assert ready, f"cycle among {sorted(remaining)}"
        order.extend(ready)
        for package in ready:
            del remaining[package]
        for deps in remaining.values():
            deps.difference_update(ready)
    # PENDING is what keeps the *code* from being a DAG: each entry
    # must really point up the order, or it belongs in LAYERS instead.
    for importer, imported in PENDING:
        assert order.index(imported) > order.index(importer)


def test_the_dag_rule_catches_a_function_local_upward_import():
    tree = ast.parse("def f():\n    from repro.sched.scheduler import X\n")
    edges = _package_edges([("repro/core/binding.py", tree)])
    assert _violations(edges) == ["core→sched (repro/core/binding.py)"]
    # The PENDING edge is excused in its own file only.
    assert _violations(_package_edges([("repro/orb/orb.py", tree)])) == []
    assert _violations(_package_edges([("repro/orb/poa.py", tree)])) == [
        "orb→sched (repro/orb/poa.py)"
    ]
    # Entry points are exempt.
    assert _package_edges([("repro/core/__main__.py", tree)]) == {}


def test_design_layering_table_is_layers():
    """DESIGN.md "Layering" and ``LAYERS`` are the same rows, in order."""
    text = (ROOT / "DESIGN.md").read_text()
    section = re.search(r"^## Layering\b.*?(?=^## )", text, re.M | re.S).group(0)
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M)
    documented = {
        package: tuple(re.findall(r"`(\w+)`", deps)) for package, deps in rows
    }
    assert list(documented.items()) == list(LAYERS.items())


# -- 2. the sockets client stays below the ORB -------------------------------


def _is_giop_codec(name):
    """``giop.encode_request``, ``repro.orb.giop.decode_reply``, ..."""
    owner, _, attr = name.rpartition(".")
    return owner.rpartition(".")[2] == "giop" and attr.startswith(
        ("encode_", "decode_")
    )


#: rt/client.py and rt/transport.py carry bytes.  What is *in* the
#: bytes (GIOP), who transforms them (modules) and what to do when
#: carrying fails (reliability, scheduling hints) belong to the ORB
#: above — a second client stack grew here once (PR 8 to PR 22).
WIRE_ONLY = ("repro/rt/client.py", "repro/rt/transport.py")
ABOVE_THE_WIRE = ("repro.orb.modules", "repro.reliability", "repro.sched")


@pytest.mark.parametrize("path", WIRE_ONLY)
def test_socket_client_stays_below_the_orb(path):
    tree = ast.parse((SRC / path).read_text())
    imported = set(_imported_names(tree))
    for package in ABOVE_THE_WIRE:
        offending = sorted(name for name in imported if _under(name, package))
        assert not offending, f"{path} imports {offending}"
    codec = sorted(filter(_is_giop_codec, imported | set(_called_names(tree))))
    assert not codec, f"{path} encodes or decodes GIOP itself: {codec}"


def test_the_rule_catches_a_function_local_import():
    tree = ast.parse(
        "def f():\n"
        "    from repro.orb import modules\n"
        "    from repro.orb import giop\n"
        "    return giop.decode_reply(b'')\n"
    )
    assert "repro.orb.modules" in set(_imported_names(tree))
    assert [name for name in _called_names(tree) if _is_giop_codec(name)] == [
        "giop.decode_reply"
    ]


# -- 3. no swallowed broad exception -----------------------------------------


def _swallowing_handlers(tree):
    """Line numbers of broad handlers whose body only passes or continues."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        broad = any(
            kind is None or ast.unparse(kind) in ("Exception", "BaseException")
            for kind in caught
        )
        if broad and all(isinstance(s, (ast.Pass, ast.Continue)) for s in node.body):
            yield node.lineno


def test_no_broad_exception_is_swallowed():
    hits = [
        f"{path}:{line}"
        for path, tree in _modules()
        for line in _swallowing_handlers(tree)
    ]
    assert hits == []


def test_the_swallow_rule_reads_handlers():
    tree = ast.parse(
        "try:\n    f()\nexcept Exception:\n    pass\n"
        "try:\n    f()\nexcept (KeyError, BaseException):\n    continue\n"
        "try:\n    f()\nexcept:\n    pass\n"
        "try:\n    f()\nexcept KeyError:\n    pass\n"
        "try:\n    f()\nexcept Exception:\n    log()\n"
    )
    assert list(_swallowing_handlers(tree)) == [3, 7, 11]


# -- 4. one wall clock -------------------------------------------------------

#: Reading or sleeping on the host's clock changes *behaviour* with the
#: machine, so it happens behind the TimeSource protocol, in one file.
#: ``time.perf_counter*`` is not covered: instruments (the rt timed
#: loops bench reads) time the host on purpose and feed no decision.
WALL_CLOCK = ("time.time", "time.monotonic", "time.sleep")
WALL_CLOCK_OWNER = "repro/rt/clock.py"


def _wall_clock_uses(tree):
    return sorted(
        {name for name in _called_names(tree) if name in WALL_CLOCK}
        | {name for name in _imported_names(tree) if name in WALL_CLOCK}
    )


def test_wall_clock_is_read_in_one_module():
    users = {
        path: uses for path, tree in _modules() if (uses := _wall_clock_uses(tree))
    }
    assert list(users) == [WALL_CLOCK_OWNER], users


def test_the_wall_clock_rule_sees_calls_and_from_imports():
    assert _wall_clock_uses(ast.parse("import time\ntime.sleep(1)\n")) == ["time.sleep"]
    assert _wall_clock_uses(ast.parse("from time import monotonic\n")) == [
        "time.monotonic"
    ]
    assert _wall_clock_uses(ast.parse("import time\ntime.perf_counter()\n")) == []


# -- 5. one wire codec -------------------------------------------------------

#: A second copy of the primitive table is how ``cdr.py`` and
#: ``_cdr_fast.py`` drifted into two codecs once (PR 9 to PR 24).
CDR_TABLE_OWNER = "repro/orb/_cdr_fast.py"
_STRUCT_CALLS = ("Struct", "pack", "pack_into", "unpack", "unpack_from")


def _big_endian_formats(tree):
    """Literal ``">..."`` formats handed to ``struct.Struct`` / ``struct.pack`` ..."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        called = ast.unparse(node.func).removeprefix("struct.")
        first = node.args[0]
        if (
            called in _STRUCT_CALLS
            and isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith(">")
        ):
            yield first.value


def test_cdr_primitive_formats_are_spelled_in_one_module():
    owners = {
        path: formats
        for path, tree in _modules()
        if path.startswith("repro/orb/")
        and (formats := sorted(_big_endian_formats(tree)))
    }
    assert list(owners) == [CDR_TABLE_OWNER], owners


def test_the_format_rule_reads_literal_formats_only():
    tree = ast.parse(
        "import struct\nfrom struct import Struct\n"
        "A = struct.Struct('>I')\n"
        "B = Struct('>d')\n"
        "C = struct.pack('>2I', 1, 2)\n"
        "D = struct.Struct('>' + unit * count)\n"  # computed: a batch, not the table
        "E = struct.Struct('<I')\n"  # not CDR's byte order
        "F = codec.pack('>I')\n"
    )
    assert sorted(_big_endian_formats(tree)) == [">2I", ">I", ">d"]


def test_giop_encoders_take_no_pool():
    giop = dict(_modules())["repro/orb/giop.py"]
    parameters = {
        node.name: [arg.arg for arg in node.args.args + node.args.kwonlyargs]
        for node in giop.body
        if isinstance(node, ast.FunctionDef)
    }
    assert parameters["encode_request"] == ["request"]
    assert parameters["encode_reply"] == [
        "request_id", "result", "exception", "service_contexts"
    ]


# -- 6. one event kernel ----------------------------------------------------

PARALLEL = "repro/netsim/parallel/"
SERIAL_KERNEL = "repro.netsim.kernel"


def _serial_kernel_imports(tree):
    """Names a module takes from the serial kernel (``*``: the whole module)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == SERIAL_KERNEL:
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.netsim":
            yield from ("*" for alias in node.names if alias.name == "kernel")
        elif isinstance(node, ast.Import):
            yield from (
                "*" for alias in node.names if _under(alias.name, SERIAL_KERNEL)
            )


def test_the_sharded_kernel_takes_only_the_error_type():
    taken = {
        path: set(_serial_kernel_imports(tree))
        for path, tree in _modules()
        if path.startswith(PARALLEL)
    }
    assert PARALLEL + "kernel.py" in taken
    extra = {path: names - {"KernelError"} for path, names in taken.items()}
    assert {path: names for path, names in extra.items() if names} == {}


def test_the_kernel_rule_sees_every_import_form():
    tree = ast.parse(
        "from repro.netsim.kernel import KernelError\n"
        "def f():\n    from repro.netsim.kernel import EventKernel\n"
        "import repro.netsim.kernel\n"
        "from repro.netsim import kernel, network\n"
        "from repro.netsim.network import Network\n"
    )
    assert sorted(_serial_kernel_imports(tree)) == [
        "*", "*", "EventKernel", "KernelError"
    ]


# -- 7. one client data path ------------------------------------------------

#: ``(file, function)`` pairs outside ``orb/`` allowed to touch the GIOP
#: codec.  The conformance suite scrubs the one substrate-dependent hint
#: from replies it captured and re-encodes them; it builds no request.
GIOP_CODEC_EXCEPTIONS = {("repro/rt/conformance.py", "canonical_reply")}


def _giop_codec_uses(node, scope="<module>"):
    """``(enclosing function, name)`` per GIOP encode/decode called or imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _is_giop_codec(ast.unparse(child.func)):
            yield scope, ast.unparse(child.func)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((scope, n) for n in _imported_names(child) if _is_giop_codec(n))
        inner = (
            child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            else scope
        )
        yield from _giop_codec_uses(child, inner)


def _giop_codec_outside_orb(modules):
    return sorted(
        f"{path}:{scope} {name}"
        for path, tree in modules
        if not path.startswith("repro/orb/")
        for scope, name in _giop_codec_uses(tree)
        if (path, scope) not in GIOP_CODEC_EXCEPTIONS
    )


def test_giop_is_encoded_and_decoded_in_the_orb_only():
    assert _giop_codec_outside_orb(_modules()) == []


def test_the_data_path_rule_catches_an_injected_call():
    tree = ast.parse(
        "from repro.orb import giop\n"
        "def canonical_reply(wire):\n    return giop.decode_reply(wire)\n"
        "def run(request):\n    return giop.encode_request(request)\n"
        "from repro.orb.giop import decode_reply\n"
    )
    assert _giop_codec_outside_orb([("repro/scenario/runner.py", tree)]) == [
        "repro/scenario/runner.py:<module> repro.orb.giop.decode_reply",
        "repro/scenario/runner.py:canonical_reply giop.decode_reply",
        "repro/scenario/runner.py:run giop.encode_request",
    ]
    # The exception covers its one function in its one file.
    assert _giop_codec_outside_orb([("repro/rt/conformance.py", tree)]) == [
        "repro/rt/conformance.py:<module> repro.orb.giop.decode_reply",
        "repro/rt/conformance.py:run giop.encode_request",
    ]
    assert _giop_codec_outside_orb([("repro/orb/ami.py", tree)]) == []


# -- what the DAG buys -------------------------------------------------------

_NETSIM_ONLY_PROCESS = """
import sys
from repro.orb.servant import Servant
from repro.orb.stub import Stub
from repro.orb.world import World

class Echo(Servant):
    _repo_id = "IDL:test/Echo:1.0"
    def echo(self, value):
        return value

class EchoStub(Stub):
    def echo(self, value):
        return self._call("echo", value)

world = World()
world.lan(["client", "server"])
ior = world.orb("server").poa.activate_object(Echo())
assert EchoStub(world.orb("client"), ior).echo("hi") == "hi"
above = ("repro.rt", "repro.sched", "repro.reliability", "repro.qos", "repro.scenario")
print(sorted(m for m in sys.modules if m == "asyncio" or m.startswith(above)))
"""


def test_a_netsim_process_loads_nothing_above_core():
    """An ORB echo over netsim drags in neither asyncio nor an upper layer."""
    done = subprocess.run(
        [sys.executable, "-c", _NETSIM_ONLY_PROCESS],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
