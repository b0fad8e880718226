"""Pre-sampled fault plans for one trace execution.

All randomness of a fault-injection run is drawn *here*, once, before
the executor runs a single VPC: per-VPC fault counts, guard-domain
detection outcomes, net undetected drift, and the per-fault retry
attempt counts.  Execution then consumes an immutable plan, so the
equivalence contract of :mod:`repro.sim.vector_exec` with its per-VPC
reference loop extends to fault campaigns for free.

The sampling model mirrors :class:`~repro.core.redundancy.RedundancyAnalysis`:
every VPC of ``size`` words performs ``ceil(size / words_per_segment) *
n_segments`` bounded segment hops, each of which misaligns independently
with the per-hop probability of
:meth:`~repro.rm.faults.ShiftFaultModel.shift_fault_probability` at the
segment length.  Detected faults follow the configured recovery policy;
undetected faults drift the destination by net +/-1 steps and silently
corrupt data (:mod:`repro.resilience.corruption`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from repro.core.rmbus import RMBusConfig
from repro.rm.faults import ShiftFaultConfig, ShiftFaultModel


class RecoveryPolicy(enum.Enum):
    """What execution does when guard domains detect a misaligned hop."""

    #: Re-shift the segment with bounded attempts and exponential
    #: backoff; escalate to abort only when the budget runs out.
    RETRY = "retry"
    #: Raise a typed :class:`~repro.sim.errors.SimulationFault` carrying
    #: the trace offset of the faulting VPC.
    ABORT = "abort"
    #: Quarantine the faulty subarray, replay its placement on a healthy
    #: one via the placement optimiser, and charge the migration cost.
    DEGRADE = "degrade"


@dataclass(frozen=True)
class FaultCampaignConfig:
    """Parameters of one fault-injection campaign.

    Attributes:
        faults: fault-rate / guard-detection parameters (shared with the
            analytic :class:`~repro.core.redundancy.RedundancyAnalysis`).
        policy: recovery policy for guard-detected faults.
        max_retries: re-shift attempts per detected fault before the
            ``retry`` policy escalates to abort.
        backoff: multiplicative backoff on the re-shift latency between
            consecutive attempts on the same fault.
    """

    faults: ShiftFaultConfig = field(default_factory=ShiftFaultConfig)
    policy: RecoveryPolicy = RecoveryPolicy.RETRY
    max_retries: int = 3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.policy, RecoveryPolicy):
            raise ValueError(
                f"policy must be a RecoveryPolicy, got {self.policy!r}"
            )
        if self.max_retries < 1:
            raise ValueError(
                f"max_retries must be at least 1, got {self.max_retries}"
            )
        if self.backoff < 1.0:
            raise ValueError(
                f"backoff must be at least 1, got {self.backoff}"
            )


@dataclass(frozen=True)
class PlannedFault:
    """Sampled fault outcome of one VPC's transfer.

    Attributes:
        index: trace position of the VPC.
        src1: the VPC's first-operand address (locates the faulty
            subarray for the ``degrade`` policy).
        words: transfer size in words.
        faults: misaligned hops sampled for this transfer.
        detected: how many of them the guard domains caught.
        undetected: the silent remainder.
        drift: net positions of undetected misalignment (each undetected
            fault is +/-1 with equal likelihood).
        attempts: re-shift attempts per detected fault (``retry``).
        recovered: True when every detected fault's retries succeeded
            within the budget.
    """

    index: int
    src1: int
    words: int
    faults: int
    detected: int
    undetected: int
    drift: int
    attempts: Tuple[int, ...]
    recovered: bool


@dataclass(frozen=True)
class FaultPlan:
    """Every sampled fault of one run, in trace order."""

    n_vpcs: int
    hops_total: int
    p_hop: float
    guard_detection: float
    events: Tuple[PlannedFault, ...]

    @property
    def expected_undetected(self) -> float:
        """Analytic expected undetected-fault count for this trace.

        Matches ``RedundancyAnalysis.expected_undetected_faults`` summed
        over the trace (same hop total, same per-hop probability), which
        is what campaign Monte-Carlo estimates converge to.
        """
        return self.hops_total * self.p_hop * (1.0 - self.guard_detection)


def build_fault_plan(
    sizes: np.ndarray,
    src1: np.ndarray,
    config: FaultCampaignConfig,
    bus: RMBusConfig,
    seed: Union[int, np.random.SeedSequence],
) -> FaultPlan:
    """Sample one run's complete fault plan from one seed.

    ``sizes``/``src1`` are the per-VPC transfer sizes and first-operand
    addresses (identical whether read from a scalar or columnar trace).
    The draw order is fixed — vectorized per-VPC fault counts first,
    then detection/drift/retry per faulty VPC in trace order — so one
    seed always yields one plan.
    """
    rng = np.random.default_rng(seed)
    model = ShiftFaultModel(config.faults)
    p_hop = model.shift_fault_probability(bus.segment_domains)
    sizes = np.asarray(sizes, dtype=np.int64)
    src1 = np.asarray(src1, dtype=np.int64)
    if len(sizes) != len(src1):
        raise ValueError(
            f"sizes and src1 must align, got {len(sizes)} vs {len(src1)}"
        )
    chunks = -(-sizes // bus.words_per_segment)
    hops = chunks * bus.n_segments
    fault_counts = (
        rng.binomial(hops, p_hop) if len(sizes) else np.zeros(0, np.int64)
    )
    detection = config.faults.guard_detection
    events = []
    for idx in np.flatnonzero(fault_counts):
        count = int(fault_counts[idx])
        detected = int(rng.binomial(count, detection))
        undetected = count - detected
        drift = 0
        if undetected:
            drift = int(2 * rng.binomial(undetected, 0.5) - undetected)
        attempts = []
        recovered = True
        for _ in range(detected):
            tries = 0
            repaired = False
            while tries < config.max_retries:
                tries += 1
                if rng.random() >= p_hop:  # this re-shift landed cleanly
                    repaired = True
                    break
            attempts.append(tries)
            recovered = recovered and repaired
        events.append(
            PlannedFault(
                index=int(idx),
                src1=int(src1[idx]),
                words=int(sizes[idx]),
                faults=count,
                detected=detected,
                undetected=undetected,
                drift=drift,
                attempts=tuple(attempts),
                recovered=recovered,
            )
        )
    return FaultPlan(
        n_vpcs=int(len(sizes)),
        hops_total=int(hops.sum()) if len(sizes) else 0,
        p_hop=float(p_hop),
        guard_detection=float(detection),
        events=tuple(events),
    )
