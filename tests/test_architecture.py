"""Static architecture rules, checked on the AST of ``src/repro``.

Function-local imports count: most of this tree's layering violations
hide in them.  One rule so far (ROADMAP "acyclic layering" will add
the package DAG): the sockets client stays *below* the ORB.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


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
