"""Array-native placement held to the per-row reference placer.

``tests/oracles/scalar_placer.py`` is the placer as it was before
placement became array arithmetic: one subarray scan per row slice.
The array placer must leave the same slices, cursors and round-robin
pointers after every matrix and raise the same ``MemoryError``.  It
keeps per-run summaries and builds a slice table on its first read,
so the tables must come out the same however late they are read.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.stpim import spec_to_task
from repro.core.device import StreamPIMDevice
from repro.core.placement import (
    MatrixHandle,
    PlacementPlan,
    PlacementPolicy,
    Placer,
)
from repro.core.task import PimTask
from repro.rm.address import DeviceGeometry
from repro.rm.bank import BankConfig
from repro.rm.mat import MatConfig
from repro.rm.subarray import SubarrayConfig
from repro.workloads import POLYBENCH
from tests.oracles import scalar_placer


def _geometry(pim_banks: int, subarrays: int, domains: int) -> DeviceGeometry:
    mat = MatConfig(
        save_tracks=16,
        transfer_tracks=16,
        domains_per_track=domains,
        word_bits=8,
        ports_per_track=2,
    )
    return DeviceGeometry(
        banks=pim_banks + 1,
        pim_banks=pim_banks,
        bank=BankConfig(
            subarrays=subarrays,
            subarray=SubarrayConfig(mats=2, pim_mats=1, mat=mat),
            pim_bank=True,
        ),
    )


def _oracle_cursors(oracle, geometry):
    return [
        oracle._cursors.get((bank, sub), 0)
        for bank in range(geometry.pim_banks)
        for sub in range(geometry.bank.subarrays)
    ]


def _assert_merged_segments(placer):
    """Each pool's segments tile it in order, neighbours differing."""
    for kind, (lo, hi) in placer._pools.items():
        segments = placer._segments[kind]
        assert segments[0][0] == lo and segments[-1][1] == hi
        for (_, end, cursor), (first, _, after) in zip(
            segments, segments[1:]
        ):
            assert end == first and cursor != after


def _plan_json(plan) -> str:
    return json.dumps(plan.to_dict(), sort_keys=True)


@st.composite
def _scenarios(draw):
    geometry = _geometry(
        draw(st.integers(1, 2)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from([8, 16, 64])),
    )
    capacity = geometry.subarray_capacity_words
    matrices = []
    for _ in range(draw(st.integers(1, 8))):
        transposed = draw(st.booleans())
        matrices.append(
            dict(
                rows=draw(st.integers(1, 12)),
                # Short rows, rows that fill a subarray in a few pieces,
                # and rows longer than a subarray (sliced).
                cols=draw(
                    st.one_of(
                        st.integers(1, 3),
                        st.integers(1, capacity),
                        st.integers(capacity, 3 * capacity),
                    )
                ),
                result=draw(st.booleans()),
                transposed=transposed,
                mirror=not transposed and draw(st.booleans()),
            )
        )
    return dict(
        geometry=geometry,
        policy=draw(st.sampled_from(list(PlacementPolicy))),
        disjoint=draw(st.booleans()),
        fraction=draw(st.sampled_from([0.1, 0.25, 0.5])),
        matrices=matrices,
    )


class TestArrayPlacerDifferential:
    @settings(max_examples=300, deadline=None)
    @given(scenario=_scenarios())
    def test_matches_row_oracle(self, scenario):
        geometry = scenario["geometry"]
        args = (
            geometry,
            scenario["policy"],
            scenario["disjoint"],
            scenario["fraction"],
        )
        placer = Placer(*args)
        oracle = scalar_placer.Placer(*args)
        assert placer.operand_pool == oracle.operand_pool
        assert placer.result_pool == oracle.result_pool
        for index, shape in enumerate(scenario["matrices"]):
            name = f"M{index}"
            errors = []
            for candidate in (placer, oracle):
                try:
                    candidate.place_matrix(name, **shape)
                except MemoryError as exc:
                    errors.append(str(exc))
            if errors:
                # Both fail on the same matrix with the same message.
                assert len(errors) == 2 and errors[0] == errors[1]
                return
            handle = placer.plan.handle(name)
            expected = oracle.plan.handle(name)
            for ours, theirs in (
                (handle, expected),
                (handle.mirror, expected.mirror),
            ):
                if theirs is None:
                    assert ours is None
                    continue
                for row, slices in enumerate(theirs.rows_placement):
                    assert ours.row_slices(row) == slices
            assert placer.cursors.tolist() == _oracle_cursors(
                oracle, geometry
            )
            assert placer._rr_next == oracle._rr_next
            assert _plan_json(placer.plan) == _plan_json(oracle.plan)

    @settings(max_examples=300, deadline=None)
    @given(scenario=_scenarios())
    def test_tables_read_after_every_placement(self, scenario):
        """Place the whole scenario, a ``MemoryError`` part-way
        included, and only then read the tables: a table built from
        the placer's live state instead of the run summaries differs."""
        args = (
            scenario["geometry"],
            scenario["policy"],
            scenario["disjoint"],
            scenario["fraction"],
        )
        placer = Placer(*args)
        oracle = scalar_placer.Placer(*args)
        placed, pickled = [], {}
        for index, shape in enumerate(scenario["matrices"]):
            name = f"M{index}"
            try:
                placer.place_matrix(name, **shape)
            except MemoryError:
                with pytest.raises(MemoryError):
                    oracle.place_matrix(name, **shape)
                # The oracle keeps the rows it placed before failing and
                # the array placer does not: rebuild the oracle from the
                # matrices placed so far.
                oracle = scalar_placer.Placer(*args)
                for done, done_shape in placed:
                    oracle.place_matrix(done, **done_shape)
                continue
            oracle.place_matrix(name, **shape)
            placed.append((name, shape))
            pickled[name] = pickle.dumps(placer.plan.handle(name))
        pairs = []
        for name, handle in placer.plan.matrices.items():
            expected = oracle.plan.handle(name)
            again = pickle.loads(pickled[name])
            pairs.append((handle, again, expected))
            assert (handle.mirror is None) == (expected.mirror is None)
            if expected.mirror is not None:
                pairs.append((handle.mirror, again.mirror, expected.mirror))
        for ours, copy, _ in pairs:
            assert ours._slices is None and copy._slices is None
        for ours, copy, theirs in pairs:
            counts = ours.subarray_count(), ours.slices_per_row()
            assert ours.row_ptr.tolist() == np.cumsum(
                [0] + list(map(len, theirs.rows_placement))
            ).tolist()
            assert ours.slices.tolist() == [
                [piece.bank, piece.subarray, piece.address, piece.offset,
                 piece.length]
                for row in theirs.rows_placement
                for piece in row
            ]
            assert np.array_equal(copy.slices, ours.slices)
            assert np.array_equal(copy.row_ptr, ours.row_ptr)
            keys = ours.slices[:, 0] << 32 | ours.slices[:, 1]
            assert counts == (
                len(np.unique(keys)),
                max(map(len, theirs.rows_placement)),
            )
        assert _plan_json(placer.plan) == _plan_json(oracle.plan)

    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_fill_mid_matrix_wraps_rounds(self, policy):
        """Subarrays fill part-way through one matrix, and a second
        matrix starts where the first one left the pointer."""
        geometry = _geometry(1, 3, 8)
        cols = geometry.subarray_capacity_words // 3 + 1
        placer = Placer(geometry, policy)
        oracle = scalar_placer.Placer(geometry, policy)
        for name, rows in (("A", 4), ("B", 2)):
            placer.place_matrix(name, rows, cols)
            oracle.place_matrix(name, rows, cols)
        assert _plan_json(placer.plan) == _plan_json(oracle.plan)
        assert placer._rr_next == oracle._rr_next


class TestFragmentedSegments:
    """Mixed row lengths leave the pool's cursors all different, so the
    placer's cursor segments approach one per subarray."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "policy,disjoint",
        [
            (PlacementPolicy.DISTRIBUTE, False),
            (PlacementPolicy.DISTRIBUTE, True),
            (PlacementPolicy.BASE, False),
            (PlacementPolicy.BASE, True),
        ],
    )
    def test_matches_row_oracle(self, seed, policy, disjoint):
        geometry = _geometry(2, 12, 256)
        capacity = geometry.subarray_capacity_words
        pool = geometry.pim_banks * geometry.bank.subarrays
        rng = np.random.default_rng(seed)
        args = (geometry, policy, disjoint, 0.25)
        placer = Placer(*args)
        oracle = scalar_placer.Placer(*args)
        placed, most_segments, failures = [], 0, 0
        for index in range(400):
            name = f"M{index}"
            shape = dict(
                rows=int(rng.integers(1, pool + 1)),
                # Mostly short rows of many lengths, and now and then a
                # row longer than a subarray (sliced).
                cols=int(
                    rng.integers(capacity, 2 * capacity)
                    if rng.random() < 0.05
                    else rng.integers(1, capacity // 32)
                ),
                result=bool(rng.random() < 0.3),
            )
            before = placer.cursors
            try:
                placer.place_matrix(name, **shape)
            except MemoryError:
                failures += 1
                assert np.array_equal(placer.cursors, before)
                with pytest.raises(MemoryError):
                    oracle.place_matrix(name, **shape)
                oracle = scalar_placer.Placer(*args)
                for done, done_shape in placed:
                    oracle.place_matrix(done, **done_shape)
                if failures == 3:
                    break
                continue
            oracle.place_matrix(name, **shape)
            placed.append((name, shape))
            assert placer.cursors.tolist() == _oracle_cursors(
                oracle, geometry
            )
            assert placer._rr_next == oracle._rr_next
            _assert_merged_segments(placer)
            most_segments = max(
                most_segments,
                len(placer._segments["operand"])
                + len(placer._segments["result"]),
            )
        assert failures == 3
        assert most_segments >= pool // 3
        assert _plan_json(placer.plan) == _plan_json(oracle.plan)


class TestDeferredTables:
    def test_round_model_builds_no_table(self, monkeypatch):
        """The round model reads only ``subarray_count`` and
        ``slices_per_row``: a StPIM run of gemm at paper dimensions
        leaves every slice table unbuilt."""
        placed = []
        place_all = PimTask._place_all

        def recording(task, placer):
            handles = place_all(task, placer)
            placed.extend(handles.values())
            return handles

        monkeypatch.setattr(PimTask, "_place_all", recording)
        task = spec_to_task(POLYBENCH["gemm"], StreamPIMDevice())
        task.run("gemm", functional=False)
        assert placed
        for handle in placed:
            for one in (handle, handle.mirror):
                if one is not None:
                    assert one._slices is None and one._row_ptr is None
                    # No run built its per-subarray arrays either.
                    for run in one.placed.runs:
                        assert "arrays" not in vars(run)

    def test_table_given_or_placed(self):
        with pytest.raises(ValueError):
            MatrixHandle("M", 1, 1)


class TestAllOrNothing:
    def test_failed_matrix_frees_its_rows(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.DISTRIBUTE)
        capacity = placer.subarray_capacity_words
        pool = len(placer.operand_pool)
        with pytest.raises(MemoryError):
            placer.place_matrix("A", rows=pool + 1, cols=capacity)
        assert not placer.cursors.any()
        assert placer._rr_next == {"operand": 0, "result": 0}
        assert "A" not in placer.plan.matrices
        placer.place_matrix("x", rows=1, cols=1)

    def test_failed_mirror_frees_the_primary(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.BASE)
        capacity = placer.subarray_capacity_words
        pool = len(placer.operand_pool)
        placer.place_matrix("x", rows=1, cols=1)
        cursors = placer.cursors.copy()
        # The primary's full-subarray rows take every subarray but the
        # first; its mirror needs that much room again.
        with pytest.raises(MemoryError):
            placer.place_matrix(
                "A", rows=pool - 1, cols=capacity, mirror=True
            )
        assert np.array_equal(placer.cursors, cursors)
        assert list(placer.plan.matrices) == ["x"]


class TestPlanColumns:
    def test_json_round_trip(self, small_geometry):
        placer = Placer(small_geometry, disjoint_result_sets=True)
        capacity = placer.subarray_capacity_words
        placer.place_matrix("B", 1, capacity + 3)
        placer.place_matrix("A", 3, 5, mirror=True)
        placer.place_matrix("C", 2, 4, result=True, transposed=True)
        data = json.loads(_plan_json(placer.plan))
        restored = PlacementPlan.from_dict(data)
        assert _plan_json(restored) == _plan_json(placer.plan)
        for name, handle in placer.plan.matrices.items():
            again = restored.handle(name)
            assert np.array_equal(again.slices, handle.slices)
            assert np.array_equal(again.row_ptr, handle.row_ptr)
            assert again.slices.dtype == np.int64

    def test_ragged_rows_round_trip(self):
        handle = MatrixHandle(
            "M", 2, 3,
            slices=[(0, 0, 100, 0, 3), (0, 0, 200, 0, 2), (0, 1, 300, 2, 1)],
            row_ptr=[0, 1, 3],
        )
        data = handle.to_dict()
        assert data["rows_placement"] == [
            [[0, 0, 100, 0, 3]],
            [[0, 0, 200, 0, 2], [0, 1, 300, 2, 1]],
        ]
        again = MatrixHandle.from_dict(data)
        assert again.to_dict() == data
        assert again.sliced and again.slices_per_row() == 2

    def test_malformed_slices_rejected(self):
        data = MatrixHandle("M", 1, 2, slices=[(0, 0, 9, 0, 2)]).to_dict()
        data["rows_placement"] = [[[0, 0, 9, 0]]]
        with pytest.raises(ValueError):
            MatrixHandle.from_dict(data)


class TestRemapTarget:
    def test_least_loaded_healthy_subarray(self, small_geometry):
        placer = Placer(small_geometry, PlacementPolicy.BASE)
        capacity = placer.subarray_capacity_words
        placer.place_matrix("A", 1, capacity)  # fills (0, 0)
        placer.place_matrix("B", 1, 3)  # (0, 1) holds 3 words
        # Ties on the cursor go to the lowest (bank, subarray) key.
        assert placer.remap_target([]) == (0, 2)
        assert placer.remap_target([(0, 2)]) == (0, 3)
        assert placer.remap_target([(0, 2), (0, 3)]) == (0, 1)
        # Keys outside the pool never match a pool subarray.
        assert placer.remap_target([(1, 2), (0, 9)]) == (0, 2)
        with pytest.raises(MemoryError, match="quarantined"):
            placer.remap_target(placer.operand_pool)

    @pytest.mark.parametrize("disjoint", [False, True])
    def test_fragmented_placer(self, disjoint):
        """Vectors of many lengths dealt round-robin leave nearly every
        subarray with its own cursor; the pick is still the
        least-loaded healthy subarray, ties to the lowest key, as the
        row oracle's cursors give it."""
        geometry = _geometry(2, 8, 64)
        args = (geometry, PlacementPolicy.DISTRIBUTE, disjoint)
        placer = Placer(*args)
        oracle = scalar_placer.Placer(*args)
        for index in range(40):
            for one in (placer, oracle):
                one.place_matrix(
                    f"v{index}", 1, 7 * index % 23 + 1, result=index % 3 == 0
                )
        for result, pool in (
            (False, placer.operand_pool),
            (True, placer.result_pool),
        ):
            kind = "result" if result and disjoint else "operand"
            load = {key: oracle._cursors.get(key, 0) for key in pool}
            assert len(placer._segments[kind]) >= len(pool) * 3 // 4
            lowest = min(load[key] for key in pool)
            for quarantined in (
                [],
                pool[: len(pool) // 2],
                pool[::2],
                pool[1::3],
                [key for key in pool if load[key] == lowest],
            ):
                healthy = [
                    (load[key], key) for key in pool if key not in quarantined
                ]
                assert (
                    placer.remap_target(quarantined, result=result)
                    == min(healthy)[1]
                )

    def test_charge_loads_the_pick(self, small_geometry):
        """Charged words count like placed ones; keys outside the pool
        are ignored and equal neighbours stay one segment."""
        placer = Placer(small_geometry, PlacementPolicy.BASE)
        placer.place_matrix("B", 1, 3)  # (0, 0) holds 3 words
        placer.charge({(0, 2): 5, (1, 2): 7, (0, 99): 1})
        assert placer.cursors.tolist() == [3, 0, 5, 0]
        assert placer.remap_target([]) == (0, 1)
        placer.charge({(0, 1): 5, (0, 3): 9})
        assert placer.cursors.tolist() == [3, 5, 5, 9]
        assert placer._segments["operand"] == [(0, 1, 3), (1, 3, 5), (3, 4, 9)]
        assert placer.remap_target([(0, 0)]) == (0, 1)

    def test_result_pool_when_disjoint(self, small_geometry):
        placer = Placer(small_geometry, disjoint_result_sets=True)
        (result_key,) = placer.result_pool
        assert placer.remap_target([], result=True) == result_key
        assert placer.remap_target([]) == placer.operand_pool[0]
