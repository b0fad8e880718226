"""Shared platform interface for the evaluation."""

from __future__ import annotations

import abc
from typing import Dict

from repro.sim.stats import RunStats
from repro.workloads.spec import WorkloadSpec


class Platform(abc.ABC):
    """One evaluated computing platform.

    Subclasses implement :meth:`run`, returning a :class:`RunStats` with
    the platform's label, end-to-end time, energy, and breakdowns for a
    given workload spec.
    """

    #: Label used in the paper's figures ("CPU-RM", "StPIM", ...).
    name: str = "platform"

    @abc.abstractmethod
    def run(self, workload: WorkloadSpec) -> RunStats:
        """Execute (analytically or by simulation) one workload."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class PlatformRegistry:
    """Builds the standard platform sets used by the benchmarks."""

    @staticmethod
    def default() -> Dict[str, Platform]:
        """The seven platforms of Figs. 17/18, keyed by paper label."""
        from repro.baselines.cpu import CpuRM, CpuDRAM
        from repro.baselines.coruscant import CoruscantPlatform
        from repro.baselines.elp2im import Elp2imPlatform
        from repro.baselines.felix import FelixPlatform
        from repro.baselines.stpim import StreamPIMPlatform
        from repro.baselines.stpim_e import StpimEPlatform

        platforms = [
            CpuRM(),
            CpuDRAM(),
            Elp2imPlatform(),
            FelixPlatform(),
            CoruscantPlatform(),
            StpimEPlatform(),
            StreamPIMPlatform(),
        ]
        return {p.name: p for p in platforms}
