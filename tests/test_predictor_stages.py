"""Staged predictor against the per-point oracle, and its cost-stage memo.

:meth:`~repro.analysis.predictor.TracePredictor.predict` prices each
distinct set of cost tables once (the cost stage, remembered on the
predictor) and then evaluates each design point in O(operations) (the
point stage).  ``tests/oracles/point_predictor.py`` is the per-point
``predict`` it replaced, which rebuilds every per-command column at
every point; it reads its topology from the reference build
``tests/oracles/predictor_build.py``, which :class:`TestBuildAgainstOracle`
holds equal to the predictor's build and cost stage field by field.

Contract with the oracle: energy and ``category_ns`` are bit-identical
(their formulas did not move); ``time_ns`` agrees within 1e-12 relative,
because the point stage adds ``base`` to a precomputed
``max(chain + appendage)`` instead of adding it per event; each
``time_breakdown`` field agrees within 1e-12 relative or 1e-12 of
``time_ns``, since the overlap split subtracts nearly equal sums.
"""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import predictor as predictor_module
from repro.analysis.explore import build_grid
from repro.analysis.predictor import AnalyticDevice, TracePredictor
from repro.core.compile import compile_workload
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.scheduler import SchedulerPolicy
from repro.core.subarray_engine import SubarrayEngine
from repro.sim import vector_exec
from repro.isa.columnar import (
    ADD_BYTE,
    ColumnarTraceBuilder,
    MUL_BYTE,
    SMUL_BYTE,
    TRAN_BYTE,
)
from repro.workloads import POLYBENCH, find_workload, polybench_workload
from repro.workloads.dnn import MLPShape, mlp_spec
from tests.oracles import point_predictor, predictor_build
from tests.oracles.predictor_build import PredictorBuild
from tests.test_predictor import WPS, _synthetic_trace

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

POLICIES = list(SchedulerPolicy)


def _config(
    policy=SchedulerPolicy.UNBLOCK,
    read=1.0,
    write=1.0,
    decode_ns=None,
    read_pj=1.0,
    write_pj=1.0,
):
    """The default device with its timing scaled field by field."""
    base = StreamPIMConfig()
    timing = base.timing
    return replace(
        base,
        scheduler_policy=policy,
        timing=replace(
            timing,
            read_ns=timing.read_ns * read,
            write_ns=timing.write_ns * write,
            read_pj=timing.read_pj * read_pj,
            write_pj=timing.write_pj * write_pj,
        ),
        vpc_decode_ns=(
            base.vpc_decode_ns if decode_ns is None else decode_ns
        ),
    )


def assert_matches_oracle(predictor, build, device):
    got = predictor.predict(device, workload="w")
    want = point_predictor.predict(build, device, workload="w")
    assert math.isclose(got.time_ns, want.time_ns, rel_tol=1e-12)
    assert got.energy == want.energy
    assert got.category_ns == want.category_ns
    for f in dataclasses.fields(want.time_breakdown):
        a = getattr(got.time_breakdown, f.name)
        b = getattr(want.time_breakdown, f.name)
        assert math.isclose(
            a, b, rel_tol=1e-12, abs_tol=1e-12 * want.time_ns
        ), (f.name, a, b)
    assert (got.pim_vpcs, got.move_vpcs, got.commands, got.ops) == (
        want.pim_vpcs, want.move_vpcs, want.commands, want.ops
    )
    assert got.cross_trans == want.cross_trans
    return got


def _random_trace(seed, commands, subarrays, op_every):
    """Random TRAN/MUL/SMUL/ADD commands over a few subarrays.

    Unlike the lowering-shaped groups, operands and destinations land
    anywhere, so operand copies, result copies into other subarrays,
    in-subarray TRANs and bus TRANs all mix inside one operation.
    """
    rng = np.random.default_rng(seed)
    builder = ColumnarTraceBuilder()
    codes = (TRAN_BYTE, MUL_BYTE, SMUL_BYTE, ADD_BYTE)
    for i in range(commands):
        code = codes[int(rng.integers(0, 4))]
        size = int(rng.integers(1, 80))
        sub1, sub2, subd = rng.integers(0, subarrays, size=3).tolist()
        src1 = sub1 * WPS + int(rng.integers(0, 1000))
        des = subd * WPS + int(rng.integers(0, 1000))
        src2 = None if code == TRAN_BYTE else sub2 * WPS + 2000
        builder.emit(code, src1, src2, des, size)
        if (i + 1) % op_every == 0:
            builder.mark_op_boundary()
    return builder.build()


_point = dict(
    policy=st.sampled_from(POLICIES),
    read=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    write=st.sampled_from([0.5, 1.0, 3.0]),
    decode_ns=st.sampled_from([0.0, 1.0, 10.0, 40.0, 200.0]),
)


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(groups=st.integers(1, 12), seed=st.integers(0, 50), **_point)
    def test_synthetic_groups(
        self, groups, seed, policy, read, write, decode_ns
    ):
        trace = _synthetic_trace(groups, seed)
        predictor = TracePredictor(trace, WPS)
        config = _config(policy, read, write, decode_ns)
        assert_matches_oracle(
            predictor, PredictorBuild(trace, WPS), AnalyticDevice(config)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        commands=st.integers(1, 200),
        subarrays=st.integers(1, 6),
        op_every=st.integers(1, 60),
        **_point,
    )
    def test_random_traces(
        self, seed, commands, subarrays, op_every, policy, read, write,
        decode_ns,
    ):
        trace = _random_trace(seed, commands, subarrays, op_every)
        predictor = TracePredictor(trace, WPS)
        config = _config(policy, read, write, decode_ns)
        assert_matches_oracle(
            predictor, PredictorBuild(trace, WPS), AnalyticDevice(config)
        )

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("name", [*POLYBENCH, "mlp"])
    def test_shipped_kernels(self, name, policy):
        spec = (
            mlp_spec(MLPShape(batch=16, layers=(32, 8, 24)))
            if name == "mlp"
            else polybench_workload(name, scale=0.02)
        )
        device = StreamPIMDevice(_config(policy))
        compiled = compile_workload(spec, device=device, use_cache=False)
        predictor = TracePredictor(
            compiled.trace, device.address_map.words_per_subarray
        )
        build = PredictorBuild(
            compiled.trace, device.address_map.words_per_subarray
        )
        for read, write, decode_ns in [
            (1.0, 1.0, 10.0), (0.5, 2.0, 10.0), (1.0, 1.0, 40.0),
        ]:
            config = _config(policy, read, write, decode_ns)
            got = assert_matches_oracle(
                predictor, build, AnalyticDevice(config)
            )
            fresh = TracePredictor(
                compiled.trace, device.address_map.words_per_subarray
            )
            assert fresh.predict(StreamPIMDevice(config), workload="w") == got


#: Topology fields both builds hold; the rest of each ``_OpStructure``
#: is the other side's own indexing (per-command columns in the
#: reference, value-vector indices in the predictor).
SHARED_OP_FIELDS = {
    "count_end", "src_subs", "load_subs", "load_pos", "K", "respos",
    "first_pos", "seg_len", "res_home", "src_prev_idx", "dst_prev_idx",
    "L_src", "L_dst", "ok_src", "ok_dst",
}


def _assert_same(got, want, what):
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
        if want.dtype.kind == "f":
            assert [x.hex() for x in got.tolist()] == [
                x.hex() for x in want.tolist()
            ], what
        else:
            assert np.array_equal(got, want), what
    elif isinstance(want, float):
        assert type(got) is float and got.hex() == want.hex(), (
            what, got, want,
        )
    else:
        assert type(got) is type(want) and got == want, (what, got, want)


def assert_build_matches_oracle(trace, words_per_subarray, devices):
    """The build's topology and counts, and the cost stage's priced
    summaries at each device, equal the reference build's: arrays by
    value and dtype, floats by ``float.hex``."""
    predictor = TracePredictor(trace, words_per_subarray)
    build = PredictorBuild(trace, words_per_subarray)
    for name in (
        "commands", "ops", "n_subs", "cross_trans", "pim_vpcs",
        "move_vpcs", "_shape_keys", "_word_uniq",
    ):
        _assert_same(getattr(predictor, name), getattr(build, name), name)
    assert predictor._cnt.keys() == build._cnt.keys()
    for key, want in build._cnt.items():
        _assert_same(predictor._cnt[key], want, key)
    mine_fields = dataclasses.fields(predictor_module._OpStructure)
    ref_fields = dataclasses.fields(predictor_build._OpStructure)
    assert {f.name for f in mine_fields} & {
        f.name for f in ref_fields
    } == SHARED_OP_FIELDS
    assert len(predictor._ops) == len(build._ops)
    for i, (mine, ref) in enumerate(zip(predictor._ops, build._ops)):
        for name in sorted(SHARED_OP_FIELDS):
            _assert_same(getattr(mine, name), getattr(ref, name), (i, name))
    for device in devices:
        tables = vector_exec.priced_costs(
            device, "shape", build._shape_keys
        ) + vector_exec.priced_costs(
            device, "copy", build._word_uniq.tolist()
        )
        got = predictor._price(*tables)
        want = build.price(*tables)
        for f in dataclasses.fields(want.energy):
            _assert_same(
                getattr(got.energy, f.name), getattr(want.energy, f.name),
                f.name,
            )
        assert got.category_ns.keys() == want.category_ns.keys()
        for key, value in want.category_ns.items():
            _assert_same(got.category_ns[key], value, key)
        assert len(got.ops) == len(want.ops)
        for i, (mine, ref) in enumerate(zip(got.ops, want.ops)):
            for f in dataclasses.fields(ref):
                _assert_same(
                    getattr(mine, f.name), getattr(ref, f.name), (i, f.name)
                )
    return build


def _devices(policy=SchedulerPolicy.UNBLOCK):
    return [
        AnalyticDevice(_config(policy)),
        AnalyticDevice(_config(policy, read=0.5, write=3.0, decode_ns=40.0)),
    ]


class TestBuildAgainstOracle:
    """The dense-index build and its cost stage against the reference
    build (``tests/oracles/predictor_build.py``), field by field."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("name", POLYBENCH)
    def test_shipped_kernels(self, name, policy):
        device = StreamPIMDevice(_config(policy))
        compiled = compile_workload(
            polybench_workload(name, scale=0.03), device=device,
            use_cache=False,
        )
        assert_build_matches_oracle(
            compiled.trace, device.address_map.words_per_subarray,
            _devices(policy),
        )

    def test_mlp(self):
        device = StreamPIMDevice(_config())
        compiled = compile_workload(
            find_workload("mlp"), device=device, use_cache=False
        )
        build = assert_build_matches_oracle(
            compiled.trace, device.address_map.words_per_subarray,
            _devices(),
        )
        assert build.cross_trans

    def test_random_trace_mixes_every_case(self):
        """Operations with and without cross TRANs, single-command
        operations and operand copies all occur in the fixed traces."""
        mixed = assert_build_matches_oracle(
            _random_trace(3, 200, 4, 7), WPS, _devices()
        )
        single = assert_build_matches_oracle(
            _random_trace(5, 40, 3, 1), WPS, _devices()
        )
        ks = [op.K for op in mixed._ops + single._ops]
        assert 0 in ks and max(ks) > 1
        assert any(op.end - op.start == 1 for op in single._ops)
        assert mixed._has_op.any() and mixed._cross.any()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        commands=st.integers(1, 200),
        subarrays=st.integers(1, 6),
        op_every=st.integers(1, 60),
    )
    def test_random_traces(self, seed, commands, subarrays, op_every):
        trace = _random_trace(seed, commands, subarrays, op_every)
        assert_build_matches_oracle(trace, WPS, _devices())


@pytest.fixture(scope="module")
def gemm():
    spec = polybench_workload("gemm", scale=0.02)
    return compile_workload(spec, use_cache=False).trace


class TestMemo:
    def test_hit_is_bit_identical_to_fresh_predictor(self, gemm):
        predictor = TracePredictor(gemm, WPS)
        device = AnalyticDevice(_config(read=2.0))
        first = predictor.predict(device)
        predictor.predict(AnalyticDevice(_config(read=0.5)))
        hit = predictor.predict(device)
        assert len(predictor._priced) == 2
        assert hit == first == TracePredictor(gemm, WPS).predict(device)
        # Stats own their energy and categories: mutating one prediction
        # leaves the memo, and so the next hit, untouched.
        hit.energy.add("read", 5.0)
        hit.category_ns["copy"] = 0.0
        assert predictor.predict(device) == first

    def test_decode_only_points_share_one_entry(self, gemm):
        predictor = TracePredictor(gemm, WPS)
        times = [
            predictor.predict(AnalyticDevice(_config(decode_ns=d))).time_ns
            for d in (1.0, 10.0, 40.0, 1000.0)
        ]
        assert len(predictor._priced) == 1
        assert times == sorted(times) and times[0] < times[-1]

    @pytest.mark.parametrize(
        "change",
        [
            dict(read=2.0),
            dict(write=2.0),
            dict(read_pj=2.0),
            dict(write_pj=2.0),
            dict(policy=SchedulerPolicy.BASE),
            dict(policy=SchedulerPolicy.DISTRIBUTE),
        ],
        ids=lambda change: next(iter(change)) + "=" + str(
            next(iter(change.values()))
        ),
    )
    def test_cost_inputs_get_their_own_entry(self, gemm, change):
        predictor = TracePredictor(gemm, WPS)
        base = AnalyticDevice(_config())
        changed = AnalyticDevice(_config(**change))
        predictor.predict(base)
        predicted = predictor.predict(changed)
        assert len(predictor._priced) == 2
        assert predicted == TracePredictor(gemm, WPS).predict(changed)

    def test_serial_policies_price_copies_alike(self, gemm):
        """BASE and DISTRIBUTE differ only in placement, which the
        trace already fixes: the predictor reads the policy only through
        the copy cost, which is the same under both, so they share an
        entry and predict the same stats."""
        predictor = TracePredictor(gemm, WPS)
        a = predictor.predict(AnalyticDevice(_config(SchedulerPolicy.BASE)))
        b = predictor.predict(
            AnalyticDevice(_config(SchedulerPolicy.DISTRIBUTE))
        )
        assert len(predictor._priced) == 1 and a == b

    def test_swapped_engine_gets_its_own_entry(self, gemm):
        """A device whose engine model was replaced (as StPIM-e does)
        prices its own tables instead of reusing the stock engine's."""
        from repro.baselines.stpim_e import ElectricalSubarrayEngine

        predictor = TracePredictor(gemm, WPS)
        stock = predictor.predict(AnalyticDevice(_config()))
        device = AnalyticDevice(_config())
        device.engine_model = ElectricalSubarrayEngine(
            processor=device.processor, bus=device.bus, timing=device.timing
        )
        electrical = predictor.predict(device)
        assert len(predictor._priced) == 2
        assert electrical == TracePredictor(gemm, WPS).predict(device)
        assert electrical != stock

    def test_warm_grid_prices_each_table_set_once(self, gemm, monkeypatch):
        """The 20 read = write points of explore's default grid take 4
        distinct cost-table sets (4 timing scales x 5 decode latencies):
        each set is profiled and copy-priced once, and a memo hit prices
        nothing."""
        # Start from an empty process-wide cost memo, so the count does
        # not depend on what earlier tests priced.
        monkeypatch.setattr(vector_exec, "_PRICES", {})
        calls = {"profile": 0, "copy": 0}
        profile = SubarrayEngine.profile
        copy_cost = AnalyticDevice._copy_cost_ns

        def counted_profile(engine, vpc):
            calls["profile"] += 1
            return profile(engine, vpc)

        def counted_copy(device, words):
            calls["copy"] += 1
            return copy_cost(device, words)

        monkeypatch.setattr(SubarrayEngine, "profile", counted_profile)
        monkeypatch.setattr(AnalyticDevice, "_copy_cost_ns", counted_copy)
        base = StreamPIMConfig()
        points = [
            point
            for point in build_grid(
                workloads=[("gemm", 0.02)], policies=["unblock"]
            )
            if point.read_scale == point.write_scale
        ]
        predictor = TracePredictor(gemm, WPS)
        for point in points:
            predictor.predict(AnalyticDevice(point.config(base)))
        assert len(points) == 20
        assert len(predictor._priced) == 4
        assert calls == {
            "profile": 4 * len(predictor._shape_keys),
            "copy": 4 * len(predictor._word_uniq),
        }

    def test_entries_hold_no_per_command_array(self, gemm):
        predictor = TracePredictor(gemm, WPS)
        for read in (0.5, 1.0, 2.0):
            predictor.predict(AnalyticDevice(_config(read=read)))
        assert predictor.commands > predictor.n_subs
        for priced in predictor._priced.values():
            assert len(priced.ops) == predictor.ops
            for op, cost in zip(predictor._ops, priced.ops):
                for f in dataclasses.fields(cost):
                    value = getattr(cost, f.name)
                    if isinstance(value, np.ndarray):
                        assert value.shape == op.load_subs.shape
                    else:
                        assert isinstance(value, float)
