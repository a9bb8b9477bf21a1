"""Shared table-printing helper for the benchmark harness.

Every benchmark prints the rows EXPERIMENTS.md documents, so a
``pytest experiments/ --benchmark-only -s`` run regenerates the
reproduction's tables alongside pytest-benchmark's wall-clock timings.
"""

from __future__ import annotations

from typing import Any, List, Sequence


def print_table(title: str, headers: Sequence[str], rows: List[Sequence[Any]]) -> None:
    """Print one experiment table."""
    widths = [len(str(h)) for h in headers]
    rendered = []
    for row in rows:
        cells = [_fmt(cell) for cell in row]
        rendered.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for cells in rendered:
        print("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)))


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)
