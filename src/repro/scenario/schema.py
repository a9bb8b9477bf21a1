"""Declared spec fields and the one reader that builds them.

A spec dataclass declares each field once, with :func:`declare`: its
dataclass default is the only default (a field without one is
required), and its metadata names the check its value must pass and,
where it differs from the field name, the key it is read under.
:func:`read` builds any :func:`declared` class from a table, rejecting
a non-table, unknown keys, missing required keys and values that fail
their check.  A check is ``check(where, value) -> value``: it returns
the value as the dataclass stores it or raises :class:`Invalid`
naming ``<section>.<key>``.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Type, TypeVar

Check = Callable[[str, Any], Any]
T = TypeVar("T")


class Invalid(ValueError):
    """A value that fails its declaration; :func:`read` re-raises it."""


def declare(
    check: Check, default: Any = MISSING, *, factory: Any = MISSING, key: str = ""
) -> Any:
    """A dataclass field read from ``key`` (default: its name) via ``check``."""
    return field(
        default=default, default_factory=factory,
        metadata={"check": check, "key": key},
    )


def declared(cls: Type[T]) -> Type[T]:
    """Make ``cls`` a dataclass and index its declared fields by spec key."""
    cls = dataclass(cls)
    keys, required = {}, []
    for f in cls.__dataclass_fields__.values():  # type: ignore[attr-defined]
        if "check" in f.metadata:  # InitVars included, as ``Spec.topology``
            key = f.metadata["key"] or f.name
            keys[key] = (f.name, f.metadata["check"])
            if f.default is MISSING and f.default_factory is MISSING:
                required.append(key)
    cls._spec_keys, cls._spec_required = keys, tuple(required)  # type: ignore
    return cls


def read(cls: Type[T], section: str, table: Any, error: Type[ValueError]) -> T:
    """Build ``cls`` from ``table``; any rejection is raised as ``error``."""
    try:
        return _build(cls, section, table)
    except Invalid as invalid:
        raise error(str(invalid)) from None


def _build(cls: Type[T], section: str, table: Any) -> T:
    if not isinstance(table, dict):
        raise Invalid(f"{section} must be a table, got {table!r}")
    keys = cls._spec_keys  # type: ignore[attr-defined]
    unknown = table.keys() - keys.keys()
    if unknown:
        raise Invalid(
            f"{section}: unknown key(s) {sorted(map(str, unknown))}; "
            f"allowed: {sorted(keys)}"
        )
    for key in cls._spec_required:  # type: ignore[attr-defined]
        if key not in table:
            raise Invalid(f"{section}: missing {key!r}")
    values = {}
    for key, value in table.items():
        name, check = keys[key]
        values[name] = check(f"{section}.{key}", value)
    return cls(**values)


# -- check kinds --------------------------------------------------------------


def _kind(
    words: str, test: Callable[[Any], Any],
    convert: Optional[Callable[[Any], Any]] = None,
) -> Check:
    """A check: ``test`` the value, else ``<where> must <words>``."""

    def check(where: str, value: Any) -> Any:
        if not test(value):
            raise Invalid(f"{where} must {words}, got {value!r}")
        return value if convert is None else convert(value)

    return check


def _real(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _whole(value) and abs(value) < 1e308  # float() of it is finite


def _whole(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _names(value: Any, least: int = 0, most: Optional[int] = None) -> bool:
    return (
        isinstance(value, list)
        and least <= len(value) <= (len(value) if most is None else most)
        and all(isinstance(name, str) and name for name in value)
    )


real = _kind("be a finite number", _real, float)
positive = _kind("be positive", lambda v: _real(v) and v > 0, float)
non_negative = _kind("be non-negative", lambda v: _real(v) and v >= 0, float)
#: A positive rate in Mbit/s, stored in bit/s.
mbps = _kind("be positive", lambda v: _real(v) and v > 0, lambda v: float(v) * 1e6)
integer = _kind("be an integer", _whole)
count = _kind("be >= 1 (an integer)", lambda v: _whole(v) and v >= 1)
natural = _kind("be >= 0 (an integer)", lambda v: _whole(v) and v >= 0)
string = _kind("be a non-empty string", lambda v: isinstance(v, str) and v != "")
boolean = _kind("be true or false", lambda v: isinstance(v, bool))
#: Host names or ``fnmatch`` globs, in the order written.
host_list = _kind("be a list of host names", _names, list)
nonempty_host_list = _kind("name at least one host", lambda v: _names(v, 1), list)
host_pair = _kind("name two hosts", lambda v: _names(v, 2, 2), list)
#: A partition: a non-empty list of non-empty host lists.
host_groups = _kind(
    "be non-empty 'groups' (a list of host lists)",
    lambda v: isinstance(v, list) and v and all(_names(g, 1) for g in v),
    lambda v: [list(group) for group in v],
)
#: ``[[chaos]]``: tables kept as plain dicts, read later row by row.
tables = _kind(
    "be a list of event tables",
    lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v),
    lambda v: [dict(entry) for entry in v],
)


def choice(*options: str) -> Check:
    return _kind(
        f"be one of {options}", lambda v: isinstance(v, str) and v in options
    )


def interval(text: str) -> Check:
    """A real in ``text``, written as in mathematics: ``"[0, 1)"``."""
    low, high = (float(end) for end in text[1:-1].split(","))
    above = (lambda v: low <= v) if text[0] == "[" else (lambda v: low < v)
    below = (lambda v: v <= high) if text[-1] == "]" else (lambda v: v < high)
    return _kind(f"be in {text}", lambda v: _real(v) and above(v) and below(v), float)


def mapping(values: Optional[Check] = None) -> Check:
    """A table of free-form names, each value passing ``values``."""

    def check(where: str, value: Any) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise Invalid(f"{where} must be a table, got {value!r}")
        if values is None:
            return dict(value)
        return {name: values(f"{where}.{name}", v) for name, v in value.items()}

    return check


def table_of(cls: type) -> Check:
    """A sub-table read as the declared class ``cls``."""
    return lambda where, value: _build(cls, where.removeprefix("spec."), value)


def rows(cls: type, bare: Optional[str] = None) -> Check:
    """A list of tables read as ``cls``; a bare string sets key ``bare``."""

    def check(where: str, value: Any) -> List[Any]:
        if not isinstance(value, list):
            raise Invalid(f"{where} must be a list of tables, got {value!r}")
        section = where.removeprefix("spec.")  # ``traffic``, not ``spec.traffic``
        return [
            _build(
                cls, f"{section}[{i}]",
                {bare: entry} if bare and isinstance(entry, str) else entry,
            )
            for i, entry in enumerate(value)
        ]

    return check
