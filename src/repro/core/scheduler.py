"""Round construction and the ``unblock`` scheduling optimisation.

Section IV-C: data preparation (inter-subarray/inter-bank copying, done
with read/write operations) and explicit computation (done with shift
operations) cannot coexist inside one subarray.  Without countermeasures
a computing subarray blocks incoming read/writes and, transitively, the
computations waiting on them — serialising the whole device.

The scheduler models a PIM task as a sequence of *rounds*; each round has
a data-preparation phase (broadcast/collect TRAN traffic) and a compute
phase (VPC batches on many subarrays).  Three policies reproduce the
Fig. 22 configurations:

* ``BASE`` — no distribute placement, rounds fully serial.
* ``DISTRIBUTE`` — rows spread across subarrays, but read/write blocking
  still serialises each round's preparation with all compute, and
  device-wide copy traffic is serialised on the shared internal bus.
* ``UNBLOCK`` — operands/results in disjoint subarray sets and
  interleaved execution: round ``k+1``'s preparation overlaps round
  ``k``'s compute (software pipelining), and copies to different banks
  proceed concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.obs.spans import NULL_COLLECTOR
from repro.rm.timing import RMTimingConfig
from repro.sim.stats import EnergyBreakdown, TimeBreakdown


class SchedulerPolicy(enum.Enum):
    """Optimisation levels of Fig. 22."""

    BASE = "base"
    DISTRIBUTE = "distribute"
    UNBLOCK = "unblock"

    @property
    def overlaps_prep(self) -> bool:
        return self is SchedulerPolicy.UNBLOCK


@dataclass(frozen=True)
class PrepCostModel:
    """Cost model of read/write data preparation.

    The Table III read/write latency/energy figures are per *row-level
    access*: one access senses or drives all tracks of a mat row (512
    tracks = 64 words of 8 bits).  Copy traffic therefore moves
    ``access_width_words`` words per read+write pair when row streaming
    is available.

    Attributes:
        access_width_words: words sensed per row-level read access.
        write_access_width_words: words driven per row-level write
            access — RM writes draw a high current (Table III: 11.79 pJ
            vs 3.80 pJ), so the write drivers cover only half a row per
            access.
        activate_ns: fixed cost of opening a row in a target subarray.
        unblock_parallelism: effective concurrent copy streams in
            unblock mode — interleaved execution lets copies to
            different banks use independent peripheries, but shared
            command-bus bandwidth keeps the effective concurrency below
            the 8-bank ideal.
        blocked_access_width: effective words per access in blocked mode
            — read/write commands squeezed between compute phases cannot
            keep rows open, so streaming degenerates to narrow accesses.
    """

    access_width_words: int = 64
    write_access_width_words: int = 32
    activate_ns: float = 10.0
    unblock_parallelism: float = 1.25
    blocked_access_width: int = 2

    def __post_init__(self) -> None:
        if self.access_width_words <= 0 or self.blocked_access_width <= 0:
            raise ValueError("access widths must be positive")
        if self.write_access_width_words <= 0:
            raise ValueError("write_access_width_words must be positive")
        if self.activate_ns < 0:
            raise ValueError("activate_ns must be non-negative")
        if self.unblock_parallelism <= 0:
            raise ValueError("unblock_parallelism must be positive")


@dataclass
class Round:
    """One prep+compute round of a PIM task.

    Attributes:
        label: human-readable tag ("gemm col 17").
        prep_words: words copied during preparation.
        prep_targets: distinct destination subarrays of the preparation.
        compute_ns: span of the compute phase (max over the subarrays
            active this round).
        compute_time: exclusive-category breakdown of the compute span.
        compute_energy: energy of all compute work in the round.
        move_vpcs: TRAN commands issued for the preparation.
        repeat: consecutive identical rounds this entry stands for; the
            fields above describe one of them.  A lowering emits a run
            once and the scheduler prices it once, in closed form.
    """

    label: str = ""
    prep_words: int = 0
    prep_targets: int = 0
    compute_ns: float = 0.0
    compute_time: TimeBreakdown = field(default_factory=TimeBreakdown)
    compute_energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    move_vpcs: int = 0
    repeat: int = 1

    def __post_init__(self) -> None:
        if self.repeat < 1:
            raise ValueError(f"repeat must be positive, got {self.repeat}")


@dataclass
class ScheduleResult:
    """Composed execution of a round sequence.

    ``rounds`` counts rounds, not runs: the sum of every run's
    ``repeat``.
    """

    total_ns: float
    time: TimeBreakdown
    energy: EnergyBreakdown
    rounds: int


@dataclass(frozen=True)
class TraceDependencies:
    """The scheduler's dependency relation over one columnar trace.

    Execution serialises commands through per-subarray busy-until times
    plus one global RM-bus time: a command waits for — and then extends
    — the busy time of every subarray it *acquires*.  These columns name
    those resources per command, so any two commands are ordered exactly
    when their acquired sets intersect (or both hold the bus); a
    schedule is free to overlap them otherwise.  The vector engine's
    busy-until scan consumes these same columns, so analyses built on
    this relation (the SPV010 race detector) agree with the engine by
    construction rather than with one observed interleaving.

    Attributes:
        home: ``sub(src1)`` — acquired by every command (int64).
        remote: subarray an operand copy acquires — ``sub(src2)`` for
            compute commands whose second operand lives outside the home
            subarray — or ``-1`` when no copy is needed (int64).
        dest: subarray a result/cross copy acquires — ``sub(des)`` when
            it differs from home — or ``-1`` (int64).
        uses_bus: cross-subarray TRANs additionally serialise on the
            shared global RM bus (bool).
    """

    home: np.ndarray
    remote: np.ndarray
    dest: np.ndarray
    uses_bus: np.ndarray

    def __len__(self) -> int:
        return len(self.home)

    def acquired(self, index: int) -> FrozenSet[int]:
        """Subarrays command ``index`` serialises on."""
        out = {int(self.home[index])}
        for column in (self.remote, self.dest):
            value = int(column[index])
            if value >= 0:
                out.add(value)
        return frozenset(out)

    def ordered(self, i: int, j: int) -> bool:
        """Whether a direct busy-until edge orders commands ``i``, ``j``.

        True iff they share an acquired subarray or both hold the global
        bus.  Conservative: ordering inherited transitively through a
        third command is not credited, so ``False`` means "the relation
        itself does not order them", which is exactly what a race check
        must test.
        """
        if bool(self.uses_bus[i]) and bool(self.uses_bus[j]):
            return True
        return not self.acquired(i).isdisjoint(self.acquired(j))


def trace_dependencies(cols, words_per_subarray: int) -> TraceDependencies:
    """Compute the dependency columns of a columnar trace.

    ``cols`` is a :class:`~repro.isa.columnar.ColumnarTrace`; the return
    value is what :meth:`repro.sim.vector_exec.VectorExecState.feed`
    feeds its busy-until scan.
    """
    if words_per_subarray < 1:
        raise ValueError(
            f"words_per_subarray must be positive, got {words_per_subarray}"
        )
    compute = cols.is_compute
    home = cols.src1.astype(np.int64) // words_per_subarray
    sub2 = cols.src2.astype(np.int64) // words_per_subarray
    subd = cols.des.astype(np.int64) // words_per_subarray
    remote = np.where(compute & (sub2 != home), sub2, -1)
    dest = np.where(subd != home, subd, -1)
    uses_bus = ~compute & (dest >= 0)
    return TraceDependencies(
        home=home, remote=remote, dest=dest, uses_bus=uses_bus
    )


class Scheduler:
    """Composes rounds under a policy, producing time/energy totals."""

    def __init__(
        self,
        policy: SchedulerPolicy = SchedulerPolicy.UNBLOCK,
        timing: Optional[RMTimingConfig] = None,
        prep_model: Optional[PrepCostModel] = None,
    ) -> None:
        self.policy = policy
        self.timing = timing or RMTimingConfig()
        self.prep_model = prep_model or PrepCostModel()
        #: Observation sink (:mod:`repro.obs`); disabled by default.
        self.obs = NULL_COLLECTOR

    # ------------------------------------------------------------------
    # Preparation phase costs
    # ------------------------------------------------------------------
    def prep_duration_ns(self, round_: Round) -> float:
        """Wall-clock span of a round's data preparation."""
        if round_.prep_words <= 0:
            return 0.0
        model = self.prep_model
        t = self.timing
        if self.policy.overlaps_prep:
            read_accesses = math.ceil(
                round_.prep_words / model.access_width_words
            )
            write_accesses = math.ceil(
                round_.prep_words / model.write_access_width_words
            )
            streams = model.unblock_parallelism
        else:
            read_accesses = write_accesses = math.ceil(
                round_.prep_words / model.blocked_access_width
            )
            streams = 1.0
        activates = max(1, round_.prep_targets)
        serial_ns = (
            activates * model.activate_ns
            + read_accesses * t.read_ns
            + write_accesses * t.write_ns
        )
        return serial_ns / streams

    def prep_energy(self, round_: Round) -> EnergyBreakdown:
        """Energy of a round's preparation.

        One read access per ``access_width_words`` plus one write access
        per ``write_access_width_words`` words moved; blocking wastes
        time, not energy, so the full access widths apply in every mode.
        """
        energy = EnergyBreakdown()
        if round_.prep_words > 0:
            model = self.prep_model
            reads = math.ceil(round_.prep_words / model.access_width_words)
            writes = math.ceil(
                round_.prep_words / model.write_access_width_words
            )
            energy.add("read", reads * self.timing.read_pj)
            energy.add("write", writes * self.timing.write_pj)
        return energy

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def compose(self, rounds: List[Round]) -> ScheduleResult:
        """Total execution of a task's rounds under the current policy.

        Each run of ``repeat`` identical rounds is priced once and
        scaled, so composition costs O(runs), not O(rounds).
        """
        time = TimeBreakdown()
        energy = EnergyBreakdown()
        if not rounds:
            return ScheduleResult(0.0, time, energy, 0)

        prep_ns = [self.prep_duration_ns(run) for run in rounds]
        for run in rounds:
            energy.merge(self.prep_energy(run).scaled(run.repeat))
            energy.merge(run.compute_energy.scaled(run.repeat))
        count = sum(run.repeat for run in rounds)

        if not self.policy.overlaps_prep:
            total_ns = 0.0
            for run, prep in zip(rounds, prep_ns):
                total_ns += run.repeat * (prep + run.compute_ns)
                self._add_prep_time(time, run.repeat * prep)
                time.merge(run.compute_time.scaled(run.repeat))
            result = ScheduleResult(total_ns, time, energy, count)
            self._observe_rounds(rounds, result)
            return result

        # Unblock: interleaved execution software-pipelines preparation
        # against compute across the whole schedule.  Copies and compute
        # target disjoint subarray sets, so preparation flows fluidly
        # behind whatever compute is in flight: the schedule is bound by
        # whichever of (total compute, total prep) is larger, plus the
        # startup delay until the first target subarray has its operand
        # (per-subarray compute starts as soon as its copy lands).
        startup = prep_ns[0] / max(1, rounds[0].prep_targets)
        total_prep = sum(
            run.repeat * prep for run, prep in zip(rounds, prep_ns)
        )
        remaining_prep = max(0.0, total_prep - startup)
        total_compute = sum(run.repeat * run.compute_ns for run in rounds)
        total_ns = startup + max(total_compute, remaining_prep)
        self._add_prep_time(time, startup)
        merged_compute = TimeBreakdown()
        for run in rounds:
            merged_compute.merge(run.compute_time.scaled(run.repeat))
        self._add_overlapped_compute(
            time, merged_compute, total_compute, remaining_prep
        )
        result = ScheduleResult(total_ns, time, energy, count)
        self._observe_rounds(rounds, result)
        return result

    # ------------------------------------------------------------------
    def _observe_rounds(
        self, rounds: List[Round], result: ScheduleResult
    ) -> None:
        """Emit one composed schedule into the observation sink.

        Enabled-checked once per compose; each round's prep and compute
        phases become spans on the ``sched.prep`` / ``sched.compute``
        lanes, reconstructed with the same policy-aware clocks as
        :func:`repro.analysis.timeline.schedule_timeline` (reused
        directly — it is the reference reconstruction of this
        composition).  Runs are expanded: a run of ``repeat`` rounds
        emits ``repeat`` span pairs, each under the run's label.
        """
        obs = self.obs
        if not obs.enabled or not rounds:
            return
        from repro.analysis.timeline import schedule_timeline

        for interval in schedule_timeline(self, rounds):
            obs.emit(
                interval.label or interval.lane,
                "sched",
                interval.start_ns,
                interval.duration_ns,
                f"sched.{interval.lane}",
            )
        registry = obs.registry
        registry.counter("sched.composes").inc()
        registry.counter("sched.rounds").inc(result.rounds)
        registry.counter("sched.prep_words").inc(
            sum(r.repeat * r.prep_words for r in rounds)
        )
        registry.counter("sched.move_vpcs").inc(
            sum(r.repeat * r.move_vpcs for r in rounds)
        )
        registry.gauge("sched.total_ns").set(result.total_ns)

    # ------------------------------------------------------------------
    def _add_prep_time(self, time: TimeBreakdown, prep_ns: float) -> None:
        """Charge exposed preparation time, split read/write by latency."""
        if prep_ns <= 0:
            return
        t = self.timing
        read_share = t.read_ns / (t.read_ns + t.write_ns)
        time.add("read", prep_ns * read_share)
        time.add("write", prep_ns * (1.0 - read_share))

    def _add_overlapped_compute(
        self,
        time: TimeBreakdown,
        compute_time: TimeBreakdown,
        compute_ns: float,
        concurrent_prep_ns: float,
    ) -> None:
        """Account one unblock-mode span of max(compute, next prep).

        The portion where prep and compute coincide is overlapped time;
        any prep overhang beyond the compute span is exposed read/write.
        """
        if compute_ns <= 0:
            self._add_prep_time(time, concurrent_prep_ns)
            return
        hidden = min(compute_ns, concurrent_prep_ns)
        overhang = max(0.0, concurrent_prep_ns - compute_ns)
        # Reclassify the coincident part of the compute span: move it
        # from its process/shift components into "overlapped".
        adjusted = TimeBreakdown(
            read_ns=compute_time.read_ns,
            write_ns=compute_time.write_ns,
            shift_ns=compute_time.shift_ns,
            process_ns=compute_time.process_ns,
            overlapped_ns=compute_time.overlapped_ns,
        )
        remaining = hidden
        for component in ("process_ns", "shift_ns"):
            if remaining <= 0:
                break
            available = getattr(adjusted, component)
            moved = min(available, remaining)
            setattr(adjusted, component, available - moved)
            adjusted.overlapped_ns += moved
            remaining -= moved
        time.merge(adjusted)
        self._add_prep_time(time, overhang)
