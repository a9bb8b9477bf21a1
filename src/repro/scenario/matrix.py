"""The scenario matrix: N specs x M stacks, SLO-gated.

:class:`ScenarioMatrix` replays every spec under every stack override
and collects one judged :class:`~repro.scenario.runner.ScenarioResult`
per cell.  :meth:`ScenarioMatrix.assert_slos` turns the collected
violations into one actionable failure — this is what the tier-1 test
suite gates on; the full matrix is the ``scenario_matrix`` workload of
``bench/run.py``, every cell digest pinned in ``bench/expected.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.scenario.configurator import (
    DEFAULT_STACKS,
    QUICK_STACKS,
    StackConfig,
)
from repro.scenario.runner import ScenarioResult, run_scenario
from repro.scenario.spec import Spec

__all__ = ["MatrixCell", "ScenarioMatrix", "DEFAULT_STACKS", "QUICK_STACKS"]


@dataclass
class MatrixCell:
    spec: Spec
    stack: StackConfig
    result: ScenarioResult

    def key(self) -> str:
        return f"{self.spec.name}/{self.stack.name}"

    def to_payload(self) -> Dict[str, Any]:
        result = self.result
        return {
            "spec": self.spec.name,
            "stack": self.stack.name,
            "tier": self.spec.tier,
            "offered": result.offered,
            "served": result.served,
            "failures": result.failures,
            "retries": result.retries,
            "duplicate_commits": result.duplicate_commits,
            "goodput": round(result.goodput(), 4),
            "flows": len(result.exporter),
            "flow_digest": result.exporter.digest(),
            "campaign_digest": result.campaign_digest,
            "latency": result.latency_summary(),
            "violations": list(result.violations),
        }


class ScenarioMatrix:
    """Run every (spec, stack) cell; judge, collect, gate."""

    def __init__(
        self,
        specs: Sequence[Spec],
        stacks: Sequence[StackConfig] = DEFAULT_STACKS,
    ) -> None:
        if not specs:
            raise ValueError("a scenario matrix needs at least one spec")
        if not stacks:
            raise ValueError("a scenario matrix needs at least one stack")
        self.specs = list(specs)
        self.stacks = list(stacks)
        self.cells: List[MatrixCell] = []

    def run(
        self, progress: Optional[Any] = None
    ) -> List[MatrixCell]:
        """Execute the full cross product; returns the judged cells.

        Shard-tier specs run once per matrix sweep (their stacks are
        ORB-tier concerns), under the first stack's name.
        """
        self.cells = []
        for spec in self.specs:
            stacks = self.stacks if spec.tier == "orb" else self.stacks[:1]
            for stack in stacks:
                result = run_scenario(spec, stack)
                self.cells.append(MatrixCell(spec, stack, result))
                if progress is not None:
                    progress(self.cells[-1])
        return self.cells

    # -- gating -----------------------------------------------------------

    def violations(self) -> Dict[str, List[str]]:
        return {
            cell.key(): list(cell.result.violations)
            for cell in self.cells
            if cell.result.violations
        }

    def assert_slos(self) -> None:
        """Raise one AssertionError naming every violated cell."""
        broken = self.violations()
        if broken:
            lines = [
                f"  {key}: {'; '.join(problems)}"
                for key, problems in sorted(broken.items())
            ]
            raise AssertionError(
                f"{len(broken)} scenario cell(s) violated their SLOs:\n"
                + "\n".join(lines)
            )

    # -- reporting ----------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        return {
            "specs": [spec.name for spec in self.specs],
            "stacks": [stack.name for stack in self.stacks],
            "cells": [cell.to_payload() for cell in self.cells],
            "violations": self.violations(),
        }
