"""Reliability reports: one per run, one per campaign.

A :class:`ReliabilityRunReport` is attached to every fault-injected run;
it depends only on the pre-sampled session, so the executor and its
per-VPC reference loop (a test oracle) produce *equal* reports under
one seed, and the differential tests assert that equality.  A
:class:`CampaignReport` aggregates the Monte-Carlo runs of
``repro-streampim faults campaign`` and exposes the observed-vs-analytic
undetected-fault comparison that ties the simulation back to
:class:`~repro.core.redundancy.RedundancyAnalysis`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, TextIO, Tuple, Union


@dataclass(frozen=True)
class ReliabilityRunReport:
    """Fault/detection/recovery outcome of one trace execution.

    Attributes:
        workload: workload label.
        seed: run seed (the campaign run index for spawned sub-seeds).
        policy: recovery policy name.
        n_vpcs: trace length.
        hops: bounded segment hops the trace performs in total.
        p_hop: per-hop misalignment probability.
        injected: sampled misaligned hops.
        detected: faults the guard domains caught.
        undetected: silent faults (the SDC source).
        retries: re-shift attempts spent repairing detected faults.
        recovered: detected faults fully repaired.
        sdc_events: VPCs whose destination was silently corrupted.
        sdc_rate: ``sdc_events / n_vpcs``.
        aborted: True when execution stopped with a SimulationFault.
        abort_index: trace position of the abort, when any.
        quarantined: (bank, subarray) pairs the degrade policy retired.
        recovery_ns: total repair/migration time charged to the run.
        recovery_pj: total repair/migration energy charged to the run.
        time_ns: end-to-end run time (None when the run aborted).
        expected_undetected: analytic expected undetected-fault count
            (consistent with ``RedundancyAnalysis``).
        mttf_ns: observed mean time to (undetected) failure, when the
            run completed and suffered at least one silent fault.
    """

    workload: str
    seed: int
    policy: str
    n_vpcs: int
    hops: int
    p_hop: float
    injected: int
    detected: int
    undetected: int
    retries: int
    recovered: int
    sdc_events: int
    sdc_rate: float
    aborted: bool
    abort_index: Optional[int]
    quarantined: Tuple[Tuple[int, int], ...]
    recovery_ns: float
    recovery_pj: float
    time_ns: Optional[float]
    expected_undetected: float
    mttf_ns: Optional[float]

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["quarantined"] = [list(key) for key in self.quarantined]
        return payload


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate of one Monte-Carlo fault campaign.

    ``observed_undetected_mean`` converging to
    ``expected_undetected_per_run`` (within Monte-Carlo error) is the
    consistency check against the analytic redundancy model; the MTTF
    estimate divides completed-run time by observed silent faults.
    """

    workload: str
    scale: float
    policy: str
    master_seed: int
    runs: Tuple[ReliabilityRunReport, ...]

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def aborted_runs(self) -> int:
        return sum(1 for run in self.runs if run.aborted)

    @property
    def total_injected(self) -> int:
        return sum(run.injected for run in self.runs)

    @property
    def total_detected(self) -> int:
        return sum(run.detected for run in self.runs)

    @property
    def total_undetected(self) -> int:
        return sum(run.undetected for run in self.runs)

    @property
    def sdc_runs(self) -> int:
        return sum(1 for run in self.runs if run.sdc_events > 0)

    @property
    def observed_undetected_mean(self) -> float:
        if not self.runs:
            return 0.0
        return self.total_undetected / len(self.runs)

    @property
    def expected_undetected_per_run(self) -> float:
        if not self.runs:
            return 0.0
        return self.runs[0].expected_undetected

    @property
    def mttf_ns(self) -> Optional[float]:
        """Completed-run time divided by observed silent faults."""
        completed = [run for run in self.runs if run.time_ns is not None]
        silent = sum(run.undetected for run in completed)
        if not completed or silent == 0:
            return None
        total_time = 0.0
        for run in completed:
            total_time += run.time_ns
        return total_time / silent

    @property
    def analytic_mttf_ns(self) -> Optional[float]:
        """Mean completed-run time over the analytic expected count."""
        completed = [run for run in self.runs if run.time_ns is not None]
        expected = self.expected_undetected_per_run
        if not completed or expected <= 0.0:
            return None
        total_time = 0.0
        for run in completed:
            total_time += run.time_ns
        return (total_time / len(completed)) / expected

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "policy": self.policy,
            "master_seed": self.master_seed,
            "n_runs": self.n_runs,
            "aborted_runs": self.aborted_runs,
            "sdc_runs": self.sdc_runs,
            "total_injected": self.total_injected,
            "total_detected": self.total_detected,
            "total_undetected": self.total_undetected,
            "observed_undetected_mean": self.observed_undetected_mean,
            "expected_undetected_per_run": self.expected_undetected_per_run,
            "mttf_ns": self.mttf_ns,
            "analytic_mttf_ns": self.analytic_mttf_ns,
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self, target: Union[str, Path, TextIO]) -> None:
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=1)
            return
        json.dump(self.to_dict(), target, indent=1)
