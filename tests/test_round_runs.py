"""Run-length rounds against the per-round reference composition.

The matmul lowering emits at most two runs of identical rounds and
``Scheduler.compose`` prices each run once in closed form.  These tests
hold both to ``tests/oracles/round_compose.py``: the per-round compose
loop, run on the expanded round list, and the lowering that emitted one
round per column group.  They also cover the observation spans and
timelines of runs, and the memory cost of shape-only operands.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeline import schedule_timeline
from repro.baselines.stpim import StreamPIMPlatform, spec_to_task
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.scheduler import Round, Scheduler, SchedulerPolicy
from repro.core.task import TaskOp
from repro.obs import Collector
from repro.sim.stats import EnergyBreakdown, TimeBreakdown
from repro.workloads import POLYBENCH, polybench_workload
from repro.workloads.dnn import MLPShape, mlp_spec
from tests.oracles import round_compose

_TIME_FIELDS = (
    "read_ns", "write_ns", "shift_ns", "process_ns", "overlapped_ns",
    "recovery_ns",
)
_ENERGY_FIELDS = ("read_pj", "write_pj", "shift_pj", "compute_pj", "recovery_pj")


def _close(actual: float, expected: float, scale: float = 0.0) -> bool:
    return math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12 * scale)


def _assert_same_schedule(actual, expected) -> None:
    assert actual.rounds == expected.rounds
    assert _close(actual.total_ns, expected.total_ns)
    # Unblock moves the hidden part of the compute span out of process
    # and shift time, and that subtraction of nearly equal sums can
    # leave a small residue: time fields are held to 1e-12 of the total.
    for name in _TIME_FIELDS:
        assert _close(
            getattr(actual.time, name),
            getattr(expected.time, name),
            expected.total_ns,
        ), name
    for name in _ENERGY_FIELDS:
        assert _close(
            getattr(actual.energy, name), getattr(expected.energy, name)
        ), name


_maybe_zero_ns = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=1e6)
)


@st.composite
def _runs(draw):
    runs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        process = draw(_maybe_zero_ns)
        shift = draw(_maybe_zero_ns)
        runs.append(
            Round(
                label=f"run {len(runs)}",
                prep_words=draw(
                    st.one_of(st.just(0), st.integers(1, 5_000_000))
                ),
                prep_targets=draw(st.integers(0, 600)),
                compute_ns=process + shift,
                compute_time=TimeBreakdown(shift_ns=shift, process_ns=process),
                compute_energy=EnergyBreakdown(
                    shift_pj=draw(_maybe_zero_ns),
                    compute_pj=draw(_maybe_zero_ns),
                ),
                move_vpcs=draw(st.integers(0, 10_000)),
                repeat=draw(st.integers(1, 64)),
            )
        )
    return runs


class TestComposeDifferential:
    @settings(max_examples=200, deadline=None)
    @given(runs=_runs(), policy=st.sampled_from(list(SchedulerPolicy)))
    def test_runs_match_per_round_oracle(self, runs, policy):
        scheduler = Scheduler(policy)
        expanded = round_compose.expand(runs)
        _assert_same_schedule(
            scheduler.compose(runs),
            round_compose.compose(scheduler, expanded),
        )

    @settings(max_examples=50, deadline=None)
    @given(runs=_runs(), policy=st.sampled_from(list(SchedulerPolicy)))
    def test_unit_runs_are_bit_identical(self, runs, policy):
        """On a list of single rounds the closed form is the loop."""
        scheduler = Scheduler(policy)
        expanded = round_compose.expand(runs)
        assert scheduler.compose(expanded) == round_compose.compose(
            scheduler, expanded
        )

    def test_empty_list(self):
        for policy in SchedulerPolicy:
            scheduler = Scheduler(policy)
            result = scheduler.compose([])
            assert result == round_compose.compose(scheduler, [])
            assert result.rounds == 0

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            Round(repeat=0)

    def test_oracle_rejects_runs(self):
        with pytest.raises(ValueError):
            round_compose.compose(Scheduler(), [Round(repeat=2)])


def _matmul_lowerings(spec, device=None):
    """(runs, per-column reference rounds) of every matmul of ``spec``."""
    task = spec_to_task(spec, device or StreamPIMDevice())
    placer = task._build_placer()
    handles = task._place_all(placer)
    out = []
    for operation in task._operations:
        if operation.op is TaskOp.MATMUL:
            runs, _ = task._lower_matmul(operation, handles, placer)
            reference = round_compose.per_column_matmul_rounds(
                task, operation, handles, placer
            )
            out.append((runs, reference))
    return out


class TestLoweringExpansion:
    @pytest.mark.parametrize(
        "spec",
        [
            POLYBENCH["gemm"],
            POLYBENCH["2mm"],
            mlp_spec(),
            mlp_spec(MLPShape(batch=100, layers=(32, 8))),
        ],
        ids=["gemm", "2mm", "mlp", "mlp-narrow"],
    )
    def test_runs_expand_to_per_column_rounds(self, spec):
        lowerings = _matmul_lowerings(spec)
        assert lowerings
        for runs, reference in lowerings:
            assert 1 <= len(runs) <= 2
            expanded = round_compose.expand(runs)
            assert len(expanded) == len(reference)
            for got, want in zip(expanded, reference):
                assert got.prep_words == want.prep_words
                assert got.prep_targets == want.prep_targets
                assert got.move_vpcs == want.move_vpcs
                assert got.compute_ns == want.compute_ns
                assert got.compute_time == want.compute_time
                assert got.compute_energy == want.compute_energy

    def test_mlp_layers_cover_groups_with_a_remainder(self):
        """Both mlp cases include column groups plus a narrower last
        round, the shape that gives a lowering its second run."""
        for spec in (mlp_spec(), mlp_spec(MLPShape(batch=100, layers=(32, 8)))):
            two_runs = [
                (runs, reference)
                for runs, reference in _matmul_lowerings(spec)
                if len(runs) == 2
            ]
            assert two_runs
            for runs, reference in two_runs:
                full, rest = runs
                assert full.prep_targets > rest.prep_targets
                assert len(reference) == full.repeat + 1
        narrow = _matmul_lowerings(mlp_spec(MLPShape(batch=100, layers=(32, 8))))
        assert narrow[0][0][0].repeat > 1


def _obs_run(spec, policy):
    device = StreamPIMDevice(StreamPIMConfig(scheduler_policy=policy))
    collector = Collector()
    device.observe(collector)
    task = spec_to_task(spec, device)
    task.run(functional=False)
    return task, collector


class TestObservedRuns:
    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_spans_and_counters_match_expansion(self, policy):
        spec = mlp_spec(MLPShape(batch=100, layers=(32, 8, 24)))
        task, collector = _obs_run(spec, policy)
        placer = task._build_placer()
        handles = task._place_all(placer)
        scheduler = task.device.scheduler
        per_op = [
            round_compose.expand(task._lower(op, handles, placer)[0])
            for op in task._operations
        ]
        everything = [round_ for rounds in per_op for round_ in rounds]
        # PimTask.run composes the whole task once.
        expected = schedule_timeline(scheduler, everything)
        spans = [s for s in collector.spans if s.category == "sched"]
        assert len(spans) == len(expected)
        for span, interval in zip(spans, expected):
            assert span.track == f"sched.{interval.lane}"
            assert span.ts_ns == pytest.approx(interval.start_ns, rel=1e-12)
            assert span.end_ns == pytest.approx(interval.end_ns, rel=1e-12)
        snapshot = collector.registry.snapshot()
        assert snapshot["sched.composes"] == 1
        assert snapshot["sched.rounds"] == len(everything)
        assert snapshot["sched.move_vpcs"] == sum(
            r.move_vpcs for r in everything
        )
        total = round_compose.compose(scheduler, everything).total_ns
        assert snapshot["sched.total_ns"]["value"] == pytest.approx(
            total, rel=1e-12
        )

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_each_round_spans_once(self, policy):
        """Regression: ``run`` composed every operation on its own and
        then the whole task, so each round's spans appeared twice (atax
        at 0.01: two rounds read ``sched.rounds`` 4)."""
        task, collector = _obs_run(polybench_workload("atax", scale=0.01), policy)
        placer = task._build_placer()
        handles = task._place_all(placer)
        rounds = [
            round_
            for op in task._operations
            for round_ in task._lower(op, handles, placer)[0]
        ]
        spans = [s for s in collector.spans if s.category == "sched"]
        compute = [s for s in spans if s.track == "sched.compute"]
        assert len(compute) == sum(r.repeat for r in rounds) == 2
        assert len(spans) == len(schedule_timeline(task.device.scheduler, rounds))
        assert len({(s.track, s.ts_ns) for s in spans}) == len(spans)
        assert collector.registry.snapshot()["sched.rounds"] == 2

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_timeline_of_runs_is_timeline_of_expansion(self, policy):
        scheduler = Scheduler(policy)
        for runs, _ in _matmul_lowerings(mlp_spec()):
            assert schedule_timeline(scheduler, runs) == schedule_timeline(
                scheduler, round_compose.expand(runs)
            )


class TestShapeOnlyOperands:
    def test_paper_3mm_peak_memory(self):
        """Timing-only runs allocate no operand storage: 3mm at paper
        dimensions registers ~0.25 GB of shape-only operands."""
        platform = StreamPIMPlatform()
        tracemalloc.start()
        try:
            platform.run(POLYBENCH["3mm"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_shape_only_operand_is_a_read_only_view(self):
        task = spec_to_task(POLYBENCH["gemm"])
        values = task._matrices["c0"]
        assert values.shape == (2000, 2300)
        assert not values.flags.writeable
        assert not values.any()

    def test_functional_dnn_destination_is_writable_and_correct(
        self, small_geometry, small_bus_config
    ):
        spec = mlp_spec(MLPShape(batch=3, layers=(5, 7, 4)))
        device = StreamPIMDevice(
            StreamPIMConfig(geometry=small_geometry, bus=small_bus_config)
        )
        task = spec.build_task(device, seed=3)
        assert not task._matrices["act1"].flags.writeable
        report = task.run()
        m = task._matrices
        act = m["act0"]
        for i in range(2):
            act = act @ m[f"w{i}"] + m[f"b{i}"]
            result = report.results[f"act{i + 1}"]
            assert np.array_equal(result, act)
            assert result.flags.writeable
        result[0, 0] += 1  # the result is the caller's to keep
        assert not task._matrices["act2"].any()
        event = task.run_event()
        assert np.array_equal(event.results["act2"], act)

    def test_unwritten_shape_only_operands_come_back_writable(
        self, small_geometry, small_bus_config
    ):
        """Every operand of a platform task is shape-only, inputs too."""
        device = StreamPIMDevice(
            StreamPIMConfig(geometry=small_geometry, bus=small_bus_config)
        )
        spec = mlp_spec(MLPShape(batch=3, layers=(5, 7, 4)))
        report = spec_to_task(spec, device).run()
        for name, values in report.results.items():
            assert values.flags.writeable, name
            assert values.flags.c_contiguous, name
        assert not report.results["a0"].any()
