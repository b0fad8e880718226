"""Per-run fault session: the object trace execution consumes.

A :class:`FaultSession` resolves a sampled :class:`~repro.resilience.plan.FaultPlan`
against one device under one recovery policy — *before* execution
starts, so execution sees only immutable decisions:

* ``abort_index`` — the trace position where execution must raise a
  typed :class:`~repro.sim.errors.SimulationFault` (``abort`` policy, or
  a ``retry`` whose budget ran out), or None;
* ``drift`` — the per-index net undetected misalignment that silently
  corrupts destination words (applied through
  :meth:`FaultSession.corrupt_values`, i.e.
  :func:`~repro.resilience.corruption.corrupt_words`);
* ``recovery_ns`` / ``recovery_pj`` — the total detect-and-repair cost,
  charged into the run's ``recovery`` breakdown categories.

Execution takes the session through ``execute_trace(...,
faults=session)``; because every random draw happened in the plan, the
same seed gives bit-identical stats, word stores, and reliability
reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.placement import PlacementPlan, Placer
from repro.obs.spans import NULL_COLLECTOR
from repro.resilience.corruption import corrupt_words
from repro.resilience.plan import (
    FaultCampaignConfig,
    FaultPlan,
    RecoveryPolicy,
)
from repro.resilience.report import ReliabilityRunReport
from repro.sim.errors import SimulationFault


class FaultSession:
    """One run's resolved fault decisions and recovery accounting.

    Under ``degrade`` each quarantined subarray's data is remapped to
    the least-loaded healthy PIM subarray.  The load is the words the
    run's ``placement`` plan put in each subarray, plus every earlier
    remap's load charged to its target.  A bare trace given no plan has
    no load to read, so every pick falls to the lowest healthy key.
    """

    def __init__(
        self,
        device,
        plan: FaultPlan,
        config: FaultCampaignConfig,
        placement: Optional[PlacementPlan] = None,
    ) -> None:
        self.plan = plan
        self.config = config
        self.drift: Dict[int, int] = {}
        self.abort_index: Optional[int] = None
        self.recovery_ns = 0.0
        self.recovery_pj = 0.0
        self.injected = 0
        self.detected = 0
        self.undetected = 0
        self.retries = 0
        self.recovered = 0
        self.quarantined: List[Tuple[int, int]] = []
        self.remapped: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
        self._resolve(device, placement)

    # ------------------------------------------------------------------
    def _resolve(self, device, placement: Optional[PlacementPlan]) -> None:
        policy = self.config.policy
        hop_ns = device.bus.hop_ns
        hop_pj = device.bus.energy_per_hop_pj
        placer = None
        # Words in each subarray: the placement plan's, plus remaps.
        loads: Dict[Tuple[int, int], int] = {}
        quarantine_set = set()
        # Observation sink, checked once per session resolve; every
        # retry attempt / quarantine re-copy becomes a span on the
        # "recovery" track whose running offsets mirror recovery_ns, so
        # the exported trace's recovery durations sum to exactly the
        # total execution charges into the breakdown.
        obs = getattr(device, "obs", NULL_COLLECTOR)
        emitting = obs.enabled
        for event in self.plan.events:
            self.injected += event.faults
            self.detected += event.detected
            self.undetected += event.undetected
            if event.drift:
                self.drift[event.index] = event.drift
            if event.detected == 0:
                continue
            if policy is RecoveryPolicy.ABORT:
                self._abort_at(event.index)
                break
            if policy is RecoveryPolicy.RETRY:
                for tries in event.attempts:
                    self.retries += tries
                    for attempt in range(tries):
                        attempt_ns = hop_ns * self.config.backoff**attempt
                        if emitting:
                            obs.emit(
                                "retry",
                                "recovery",
                                self.recovery_ns,
                                attempt_ns,
                                "recovery",
                                {
                                    "index": event.index,
                                    "attempt": attempt,
                                },
                            )
                        self.recovery_ns += attempt_ns
                    self.recovery_pj += tries * hop_pj
                if event.recovered:
                    self.recovered += event.detected
                else:
                    # Retry budget exhausted: escalate to abort.
                    self._abort_at(event.index)
                    break
                continue
            # DEGRADE: quarantine the faulty subarray, replay placement.
            if placer is None:
                placer = Placer(geometry=device.config.geometry)
                if placement is not None:
                    loads = placement.loads()
                placer.charge(loads)
            key = device.address_map.subarray_of(event.src1)
            if key not in quarantine_set:
                quarantine_set.add(key)
                self.quarantined.append(key)
                target = placer.remap_target(self.quarantined)
                self.remapped.append((key, target))
                # The evicted data, and what was remapped to it, now
                # loads the target.
                moved = loads.get(key, 0)
                loads[target] = loads.get(target, 0) + moved
                placer.charge({target: moved})
            remap_ns = device.bus.transfer_ns(event.words)
            if emitting:
                obs.emit(
                    "remap",
                    "recovery",
                    self.recovery_ns,
                    remap_ns,
                    "recovery",
                    {"index": event.index, "words": event.words},
                )
            self.recovery_ns += remap_ns
            self.recovery_pj += device.bus.transfer_energy_pj(event.words)
            self.recovered += event.detected
        if emitting:
            registry = obs.registry
            registry.counter("faults.injected").inc(self.injected)
            registry.counter("faults.detected").inc(self.detected)
            registry.counter("faults.undetected").inc(self.undetected)
            registry.counter("faults.retries").inc(self.retries)
            registry.counter("faults.recovered").inc(self.recovered)
            registry.counter("faults.quarantined").inc(
                len(self.quarantined)
            )
            if self.abort_index is not None:
                registry.counter("faults.aborts").inc()

    def _abort_at(self, index: int) -> None:
        self.abort_index = index
        # The faulting VPC never completes, so its destination is never
        # written: no silent corruption at the abort point itself.
        self.drift.pop(index, None)

    # ------------------------------------------------------------------
    # Engine contract
    # ------------------------------------------------------------------
    def abort_error(self) -> SimulationFault:
        """The typed fault execution raises at ``abort_index``."""
        if self.abort_index is None:
            raise RuntimeError("session has no abort decision")
        return SimulationFault(
            "guard domains detected a misaligned hop; "
            f"{self.config.policy.value} policy stopped execution",
            index=self.abort_index,
        )

    def corrupt_values(self, values: np.ndarray, drift: int) -> np.ndarray:
        """Corrupt one destination slice (the execution hook)."""
        return corrupt_words(values, drift)

    # ------------------------------------------------------------------
    def report(
        self,
        workload: str,
        seed: int,
        time_ns: Optional[float] = None,
    ) -> ReliabilityRunReport:
        """Summarise the run; a pure function of the session."""
        sdc_events = len(self.drift)
        mttf_ns = None
        if time_ns is not None and self.undetected > 0:
            mttf_ns = time_ns / self.undetected
        return ReliabilityRunReport(
            workload=workload,
            seed=seed,
            policy=self.config.policy.value,
            n_vpcs=self.plan.n_vpcs,
            hops=self.plan.hops_total,
            p_hop=self.plan.p_hop,
            injected=self.injected,
            detected=self.detected,
            undetected=self.undetected,
            retries=self.retries,
            recovered=self.recovered,
            sdc_events=sdc_events,
            sdc_rate=(
                sdc_events / self.plan.n_vpcs if self.plan.n_vpcs else 0.0
            ),
            aborted=self.abort_index is not None,
            abort_index=self.abort_index,
            quarantined=tuple(self.quarantined),
            recovery_ns=self.recovery_ns,
            recovery_pj=self.recovery_pj,
            time_ns=time_ns,
            expected_undetected=self.plan.expected_undetected,
            mttf_ns=mttf_ns,
        )
