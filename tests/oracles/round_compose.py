"""Per-round reference composition: what the run-length compose replaces.

:func:`compose` walks a round list one round at a time, building a
prep-energy and prep-time breakdown per round, exactly as
:meth:`repro.core.scheduler.Scheduler.compose` did before rounds
carried a ``repeat`` count.  :func:`expand` turns a run-length list into
that one-round-per-entry form, and :func:`per_column_matmul_rounds` is
the matmul lowering that emitted one :class:`Round` per column group.
The differential tests hold the closed-form compose and the run-length
lowering equal to these.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

from repro.core.scheduler import Round, ScheduleResult, Scheduler
from repro.isa.vpc import VPC
from repro.sim.stats import EnergyBreakdown, TimeBreakdown


def expand(rounds: Sequence[Round]) -> List[Round]:
    """One ``repeat=1`` copy of each run per round it stands for."""
    return [
        dataclasses.replace(run, repeat=1)
        for run in rounds
        for _ in range(run.repeat)
    ]


def compose(scheduler: Scheduler, rounds: Sequence[Round]) -> ScheduleResult:
    """Total execution of a per-round list under ``scheduler.policy``.

    Every round must have ``repeat == 1`` (pass runs through
    :func:`expand` first).  Emits no observation spans.
    """
    if any(round_.repeat != 1 for round_ in rounds):
        raise ValueError("the per-round composition takes expanded rounds")
    time = TimeBreakdown()
    energy = EnergyBreakdown()
    total_ns = 0.0
    if not rounds:
        return ScheduleResult(0.0, time, energy, 0)

    for round_ in rounds:
        energy.merge(scheduler.prep_energy(round_))
        energy.merge(round_.compute_energy)

    if not scheduler.policy.overlaps_prep:
        for round_ in rounds:
            prep_ns = scheduler.prep_duration_ns(round_)
            total_ns += prep_ns + round_.compute_ns
            scheduler._add_prep_time(time, prep_ns)
            time.merge(round_.compute_time)
        return ScheduleResult(total_ns, time, energy, len(rounds))

    first = rounds[0]
    startup = scheduler.prep_duration_ns(first) / max(1, first.prep_targets)
    total_prep = sum(scheduler.prep_duration_ns(r) for r in rounds)
    remaining_prep = max(0.0, total_prep - startup)
    total_compute = sum(r.compute_ns for r in rounds)
    total_ns = startup + max(total_compute, remaining_prep)
    scheduler._add_prep_time(time, startup)
    merged_compute = TimeBreakdown()
    for round_ in rounds:
        merged_compute.merge(round_.compute_time)
    scheduler._add_overlapped_compute(
        time, merged_compute, total_compute, remaining_prep
    )
    return ScheduleResult(total_ns, time, energy, len(rounds))


def per_column_matmul_rounds(task, operation, handles, placer) -> List[Round]:
    """The matmul lowering's rounds, one per column group.

    ``task`` is a :class:`~repro.core.task.PimTask` whose matrices are
    placed into ``handles``; the returned rounds all have
    ``repeat == 1``.
    """
    a = handles[operation.inputs[0]]
    b = handles[operation.inputs[1]]
    m, k = a.shape
    n = b.cols
    if n > m:
        resident, rows_count, bcast_count = b, n, m
    else:
        resident, rows_count, bcast_count = a, m, n
    parallel_rows = task._parallelism(resident, rows_count)
    pool = len(placer.operand_pool)
    col_groups = 1
    if parallel_rows == rows_count and rows_count < pool:
        col_groups = min(bcast_count, max(1, pool // rows_count))
    per_sub = math.ceil(rows_count / parallel_rows)
    slices = resident.slices_per_row()
    slice_length = math.ceil(k / slices)
    engine = task._engine()
    proto = VPC.mul(0, 0, 0, slice_length)
    batch = engine.batch_profile(proto, per_sub * slices)
    round_energy = engine.profile(proto).energy.scaled(
        float(rows_count * col_groups * slices)
    )
    reduce_time = None
    if slices > 1:
        reduce_proto = VPC.add(0, 0, 0, rows_count * (slices - 1))
        reduce_batch = engine.batch_profile(reduce_proto, 1)
        reduce_time = reduce_batch.time
        merged_energy = EnergyBreakdown()
        merged_energy.merge(round_energy)
        merged_energy.merge(engine.profile(reduce_proto).energy)
        round_energy = merged_energy
    compute_ns = batch.time_ns
    compute_time = batch.time
    if reduce_time is not None:
        compute_ns += reduce_time.total_ns
        merged_time = TimeBreakdown()
        merged_time.merge(compute_time)
        merged_time.merge(reduce_time)
        compute_time = merged_time
    rounds: List[Round] = []
    n_rounds = math.ceil(bcast_count / col_groups)
    for j in range(n_rounds):
        cols = min(col_groups, bcast_count - j * col_groups)
        prep = cols * k + k * parallel_rows * cols
        if slices > 1:
            prep += rows_count * (slices - 1) * cols
        rounds.append(
            Round(
                label=f"{operation.output} cols {j * col_groups}..",
                prep_words=prep,
                prep_targets=parallel_rows * cols,
                compute_ns=compute_ns,
                compute_time=compute_time,
                compute_energy=round_energy,
                move_vpcs=rows_count * cols * slices,
            )
        )
    return rounds
