"""Tests for the subarray engine, placement, and scheduler."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import (
    MatrixHandle,
    Placer,
    PlacementPolicy,
)
from repro.core.scheduler import (
    PrepCostModel,
    Round,
    Scheduler,
    SchedulerPolicy,
)
from repro.core.subarray_engine import SubarrayEngine
from repro.isa.vpc import VPC, VPCOpcode
from repro.sim.stats import EnergyBreakdown, TimeBreakdown


class TestSubarrayEngine:
    def test_profile_time_matches_cycles(self):
        engine = SubarrayEngine()
        profile = engine.profile(VPC.mul(0, 0, 0, 100))
        assert profile.time_ns == pytest.approx(
            profile.cycles * engine.timing.cycle_ns
        )

    def test_compute_has_energy_in_both_categories(self):
        engine = SubarrayEngine()
        profile = engine.profile(VPC.mul(0, 0, 0, 100))
        assert profile.energy.compute_pj > 0
        assert profile.energy.shift_pj > 0
        assert profile.energy.read_pj == 0  # no conversion on the RM path

    def test_tran_is_pure_shift(self):
        engine = SubarrayEngine()
        profile = engine.profile(VPC.tran(0, 1, 50))
        assert profile.energy.compute_pj == 0
        assert profile.energy.shift_pj > 0
        assert profile.time.shift_ns == pytest.approx(profile.time_ns)

    def test_transfer_mostly_overlapped_for_long_vectors(self):
        # Fig. 19: StPIM hides transfer under compute.
        engine = SubarrayEngine()
        profile = engine.profile(VPC.mul(0, 0, 0, 2000))
        assert profile.time.shift_ns / profile.time_ns < 0.05

    def test_add_faster_than_mul(self):
        engine = SubarrayEngine()
        mul = engine.profile(VPC.mul(0, 0, 0, 500))
        add = engine.profile(VPC.add(0, 0, 0, 500))
        assert add.cycles < mul.cycles

    def test_batch_single_equals_profile(self):
        engine = SubarrayEngine()
        vpc = VPC.mul(0, 0, 0, 64)
        assert engine.batch_profile(vpc, 1).cycles == engine.profile(vpc).cycles

    def test_batch_cheaper_than_independent_runs(self):
        """Pipelining across VPCs amortises fills."""
        engine = SubarrayEngine()
        vpc = VPC.mul(0, 0, 0, 64)
        single = engine.profile(vpc)
        batch = engine.batch_profile(vpc, 10)
        assert batch.cycles < 10 * single.cycles
        assert batch.cycles > single.cycles

    def test_batch_energy_scales_linearly(self):
        engine = SubarrayEngine()
        vpc = VPC.add(0, 0, 0, 32)
        single = engine.profile(vpc)
        batch = engine.batch_profile(vpc, 7)
        assert batch.energy.total_pj == pytest.approx(
            7 * single.energy.total_pj
        )

    def test_batch_time_categories_sum_to_total(self):
        engine = SubarrayEngine()
        batch = engine.batch_profile(VPC.mul(0, 0, 0, 100), 5)
        assert batch.time.total_ns == pytest.approx(
            batch.cycles * engine.timing.cycle_ns
        )

    def test_batch_rejects_nonpositive_count(self):
        engine = SubarrayEngine()
        with pytest.raises(ValueError):
            engine.batch_profile(VPC.mul(0, 0, 0, 8), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4096),
        count=st.integers(min_value=1, max_value=20),
        opcode=st.sampled_from([VPCOpcode.MUL, VPCOpcode.SMUL, VPCOpcode.ADD]),
    )
    def test_property_batch_bounds(self, n, count, opcode):
        """Batch latency lies between 1x and count x the single latency."""
        engine = SubarrayEngine()
        vpc = VPC(opcode, 0, 0, 1, n)
        single = engine.profile(vpc).cycles
        batch = engine.batch_profile(vpc, count).cycles
        assert single <= batch <= count * single


class TestPlacer:
    def test_distribute_spreads_rows(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.DISTRIBUTE)
        handle = placer.place_matrix("A", rows=4, cols=8)
        assert handle.subarray_count() == 4

    def test_base_packs_sequentially(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.BASE)
        handle = placer.place_matrix("A", rows=4, cols=8)
        assert handle.subarray_count() == 1

    def test_base_spills_when_full(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.BASE)
        capacity = placer.subarray_capacity_words
        # Two rows fit per subarray, so three rows need two subarrays.
        handle = placer.place_matrix("A", rows=3, cols=capacity // 2 - 1)
        assert handle.subarray_count() == 2

    def test_oversized_row_sliced(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.DISTRIBUTE)
        capacity = placer.subarray_capacity_words
        handle = placer.place_matrix("A", rows=1, cols=capacity + 10)
        assert handle.sliced
        slices = handle.row_slices(0)
        assert len(slices) == 2
        assert slices[0].length == capacity
        assert slices[1].length == 10
        assert slices[1].offset == capacity

    def test_duplicate_name_rejected(self, small_geometry):
        placer = Placer(small_geometry)
        placer.place_matrix("A", 1, 1)
        with pytest.raises(ValueError):
            placer.place_matrix("A", 1, 1)

    def test_capacity_exhaustion_raises(self, small_geometry):
        placer = Placer(small_geometry)
        total = placer.subarray_capacity_words * len(placer.operand_pool)
        with pytest.raises(MemoryError):
            placer.place_matrix("A", rows=1 + total // 100, cols=101)

    def test_disjoint_result_sets(self, small_geometry):
        placer = Placer(
            small_geometry,
            PlacementPolicy.DISTRIBUTE,
            disjoint_result_sets=True,
        )
        operands = set(placer.operand_pool)
        results = set(placer.result_pool)
        assert operands.isdisjoint(results)
        a = placer.place_matrix("A", 2, 4, result=False)
        c = placer.place_matrix("C", 2, 4, result=True)
        assert set(map(tuple, a.slices[:, :2].tolist())) <= operands
        assert set(map(tuple, c.slices[:, :2].tolist())) <= results

    def test_overlapping_pools_without_unblock(self, small_geometry):
        placer = Placer(small_geometry, disjoint_result_sets=False)
        assert set(placer.operand_pool) == set(placer.result_pool)

    def test_addresses_within_subarray(self, small_geometry):
        placer = Placer(small_geometry)
        handle = placer.place_matrix("A", 3, 10)
        for row in range(3):
            for piece in handle.row_slices(row):
                start = placer.address_map.subarray_of(piece.address)
                end = placer.address_map.subarray_of(
                    piece.address + piece.length - 1
                )
                assert start == end == piece.subarray_key

    def test_plan_lookup(self, small_geometry):
        placer = Placer(small_geometry)
        placer.place_matrix("A", 1, 1)
        assert placer.plan.handle("A").name == "A"
        with pytest.raises(KeyError):
            placer.plan.handle("missing")

    def test_rejects_bad_shape(self, small_geometry):
        with pytest.raises(ValueError):
            Placer(small_geometry).place_matrix("A", 0, 5)

    def test_rejects_geometry_without_pim(self, small_geometry):
        from repro.rm.address import DeviceGeometry

        geo = DeviceGeometry(
            banks=small_geometry.banks,
            pim_banks=0,
            bank=small_geometry.bank,
        )
        with pytest.raises(ValueError):
            Placer(geo)


def _round(prep_words=0, targets=1, compute_ns=0.0, shift=0.0, process=0.0):
    time = TimeBreakdown(shift_ns=shift, process_ns=process)
    return Round(
        prep_words=prep_words,
        prep_targets=targets,
        compute_ns=compute_ns,
        compute_time=time,
        compute_energy=EnergyBreakdown(compute_pj=1.0),
    )


class TestScheduler:
    def test_empty_rounds(self):
        result = Scheduler().compose([])
        assert result.total_ns == 0.0
        assert result.rounds == 0

    def test_blocked_policies_serialise(self):
        sched = Scheduler(SchedulerPolicy.DISTRIBUTE)
        rounds = [_round(prep_words=64, compute_ns=100.0) for _ in range(3)]
        prep = sched.prep_duration_ns(rounds[0])
        result = sched.compose(rounds)
        assert result.total_ns == pytest.approx(3 * (prep + 100.0))

    def test_unblock_overlaps_prep(self):
        sched = Scheduler(SchedulerPolicy.UNBLOCK)
        rounds = [
            _round(prep_words=640, targets=4, compute_ns=1000.0, process=1000.0)
            for _ in range(4)
        ]
        serial = Scheduler(SchedulerPolicy.DISTRIBUTE).compose(rounds)
        overlapped = sched.compose(rounds)
        assert overlapped.total_ns < serial.total_ns

    def test_unblock_bound_by_max_of_prep_and_compute(self):
        sched = Scheduler(SchedulerPolicy.UNBLOCK)
        rounds = [
            _round(prep_words=64, targets=2, compute_ns=500.0, process=500.0)
            for _ in range(5)
        ]
        total_prep = sum(sched.prep_duration_ns(r) for r in rounds)
        result = sched.compose(rounds)
        assert result.total_ns >= max(5 * 500.0, total_prep * 0.99)

    def test_blocked_prep_slower_than_unblock_prep(self):
        round_ = _round(prep_words=1000, targets=8)
        blocked = Scheduler(SchedulerPolicy.DISTRIBUTE).prep_duration_ns(round_)
        fluid = Scheduler(SchedulerPolicy.UNBLOCK).prep_duration_ns(round_)
        assert blocked > fluid

    def test_prep_energy_independent_of_policy(self):
        round_ = _round(prep_words=1000, targets=8)
        blocked = Scheduler(SchedulerPolicy.DISTRIBUTE).prep_energy(round_)
        fluid = Scheduler(SchedulerPolicy.UNBLOCK).prep_energy(round_)
        assert blocked.total_pj == pytest.approx(fluid.total_pj)

    def test_no_prep_costs_nothing(self):
        sched = Scheduler()
        assert sched.prep_duration_ns(_round(prep_words=0)) == 0.0
        assert sched.prep_energy(_round(prep_words=0)).total_pj == 0.0

    def test_energy_includes_prep_and_compute(self):
        sched = Scheduler(SchedulerPolicy.UNBLOCK)
        rounds = [_round(prep_words=128, compute_ns=10.0)]
        result = sched.compose(rounds)
        assert result.energy.compute_pj == pytest.approx(1.0)
        assert result.energy.read_pj > 0
        assert result.energy.write_pj > 0

    def test_time_breakdown_sums_to_total(self):
        for policy in SchedulerPolicy:
            sched = Scheduler(policy)
            rounds = [
                _round(
                    prep_words=200,
                    targets=3,
                    compute_ns=100.0,
                    process=80.0,
                    shift=20.0,
                )
                for _ in range(3)
            ]
            result = sched.compose(rounds)
            assert result.time.total_ns == pytest.approx(
                result.total_ns, rel=1e-6
            ), policy

    def test_prep_cost_model_validation(self):
        with pytest.raises(ValueError):
            PrepCostModel(access_width_words=0)
        with pytest.raises(ValueError):
            PrepCostModel(write_access_width_words=0)
        with pytest.raises(ValueError):
            PrepCostModel(unblock_parallelism=0)
        with pytest.raises(ValueError):
            PrepCostModel(activate_ns=-1)

    @settings(max_examples=30)
    @given(
        n_rounds=st.integers(min_value=1, max_value=10),
        prep_words=st.integers(min_value=0, max_value=10_000),
        compute_ns=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_property_unblock_never_slower_than_blocked(
        self, n_rounds, prep_words, compute_ns
    ):
        rounds = [
            _round(
                prep_words=prep_words,
                targets=4,
                compute_ns=compute_ns,
                process=compute_ns,
            )
            for _ in range(n_rounds)
        ]
        blocked = Scheduler(SchedulerPolicy.DISTRIBUTE).compose(rounds)
        fluid = Scheduler(SchedulerPolicy.UNBLOCK).compose(rounds)
        assert fluid.total_ns <= blocked.total_ns + 1e-9
