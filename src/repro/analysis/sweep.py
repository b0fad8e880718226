"""Generic configuration sweeps.

The sensitivity studies of section V-D all have the same shape: vary one
design parameter, rerun the workload set, normalise to a reference
point.  This module factors that pattern out so benchmarks, examples and
downstream users can sweep any parameter of :class:`StreamPIMConfig`
(or a custom config constructor) in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

from repro.baselines.stpim import StreamPIMPlatform
from repro.core.device import StreamPIMConfig
from repro.sim.stats import RunStats
from repro.workloads.spec import WorkloadSpec

#: Builds a device config from one sweep-point value.
ConfigFactory = Callable[[object], StreamPIMConfig]


@dataclass
class SweepResult:
    """All runs of one sweep: {point: {workload: RunStats}}."""

    parameter: str
    points: List[Hashable]
    runs: Dict[Hashable, Dict[str, RunStats]] = field(default_factory=dict)

    def times(self, point: Hashable) -> Dict[str, float]:
        return {w: s.time_ns for w, s in self.runs[point].items()}

    def energies(self, point: Hashable) -> Dict[str, float]:
        return {w: s.energy.total_pj for w, s in self.runs[point].items()}

    def average_speedup(
        self, point: Hashable, reference: Hashable
    ) -> float:
        """Mean per-workload speed-up of ``point`` over ``reference``."""
        ref = self.times(reference)
        now = self.times(point)
        ratios = [ref[w] / now[w] for w in ref]
        return sum(ratios) / len(ratios)


def sweep(
    parameter: str,
    points: Sequence[Hashable],
    config_factory: ConfigFactory,
    workloads: Sequence[WorkloadSpec],
    platform_factory: Optional[
        Callable[[StreamPIMConfig], StreamPIMPlatform]
    ] = None,
) -> SweepResult:
    """Run every workload at every sweep point.

    Args:
        parameter: label of the swept quantity (for reporting).
        points: the values to sweep.
        config_factory: maps one point to a device config.
        workloads: specs to run at every point.
        platform_factory: how to build the platform (default: StPIM).

    Returns:
        A :class:`SweepResult` with every run's stats.
    """
    if not points:
        raise ValueError("sweep needs at least one point")
    if not workloads:
        raise ValueError("sweep needs at least one workload")
    result = SweepResult(parameter=parameter, points=list(points))
    platform_factory = platform_factory or StreamPIMPlatform
    for point in points:
        config = config_factory(point)
        platform = platform_factory(config)
        result.runs[point] = {
            spec.name: platform.run(spec) for spec in workloads
        }
    return result
