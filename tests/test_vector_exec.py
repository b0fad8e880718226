"""Vector trace engine: exact equivalence with the per-VPC reference loop
(``tests/oracles/scalar_exec.py``) + supporting machinery."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.predictor import AnalyticDevice, TracePredictor
from repro.cli import _check_specs, main
from repro.core.compile import compile_workload
from repro.core.device import StreamPIMConfig, StreamPIMDevice, WordStore
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace, write_trace_binary
from repro.isa.vpc import VPC
from repro.sim.engine import Engine
from repro.sim.stats import TimeBreakdown
from repro.sim import vector_exec
from repro.sim.vector_exec import VectorExecState, sweep_spans
from repro.verify.trace_verifier import TraceVerificationError
from repro.workloads import polybench_workload
from tests.oracles import scalar_exec, span_sweep

_BREAKDOWN_FIELDS = (
    "read_ns", "write_ns", "shift_ns", "process_ns", "overlapped_ns"
)
_ENERGY_FIELDS = ("read_pj", "write_pj", "shift_pj", "compute_pj")


def _run_both(trace, config=None, functional=True):
    """The same trace through both engines on fresh devices."""
    scalar_device = StreamPIMDevice(config) if config else StreamPIMDevice()
    vector_device = StreamPIMDevice(config) if config else StreamPIMDevice()
    return scalar_device, vector_device, (
        lambda: scalar_exec.execute_trace(
            scalar_device, trace, workload="diff", functional=functional
        ),
        lambda: vector_device.execute_trace(
            trace, workload="diff", functional=functional
        ),
    )


def _assert_identical(scalar_stats, vector_stats):
    """Exact (bitwise) equality of every reported quantity."""
    assert vector_stats.time_ns == scalar_stats.time_ns
    for name in _BREAKDOWN_FIELDS:
        assert getattr(vector_stats.time_breakdown, name) == getattr(
            scalar_stats.time_breakdown, name
        ), name
    for name in _ENERGY_FIELDS:
        assert getattr(vector_stats.energy, name) == getattr(
            scalar_stats.energy, name
        ), name
    assert vector_stats.counters == scalar_stats.counters
    assert vector_stats.platform == scalar_stats.platform
    assert vector_stats.workload == scalar_stats.workload


class TestDifferentialAllWorkloads:
    """Scalar and vector engines agree exactly on every generator."""

    @pytest.mark.parametrize(
        "spec",
        list(_check_specs(0.01)),
        ids=lambda spec: spec.name,
    )
    def test_workload_is_bit_identical(self, spec):
        task = spec.build_task()
        trace = task.to_trace()
        config = task.device.config
        scalar_device = StreamPIMDevice(config)
        vector_device = StreamPIMDevice(config)
        task.materialize(scalar_device)
        task.materialize(vector_device)

        cols = ColumnarTrace.from_trace(trace)
        try:
            scalar_stats = scalar_exec.execute_trace(
                scalar_device, trace, workload=spec.name
            )
        except ValueError as exc:
            # Some generators (power_iter) produce traces the functional
            # model rejects (negative intermediates); both engines must
            # reject them identically, and timing parity is then checked
            # without the functional replay.
            with pytest.raises(ValueError) as excinfo:
                vector_device.execute_trace(cols, workload=spec.name)
            assert str(excinfo.value) == str(exc)
            scalar_stats = scalar_exec.execute_trace(
                StreamPIMDevice(config),
                trace,
                workload=spec.name,
                functional=False,
            )
            vector_stats = StreamPIMDevice(config).execute_trace(
                cols, workload=spec.name, functional=False
            )
            _assert_identical(scalar_stats, vector_stats)
            return

        vector_stats = vector_device.execute_trace(cols, workload=spec.name)
        _assert_identical(scalar_stats, vector_stats)
        # Functional replay left both word stores in the same state —
        # same addresses present, same values.
        assert vector_device.store.snapshot() == scalar_device.store.snapshot()


class TestEngineSelection:
    def test_vector_accepts_object_trace(self):
        trace = VPCTrace([VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8)])
        _, _, (run_scalar, run_vector) = _run_both(trace)
        _assert_identical(run_scalar(), run_vector())

    def test_unknown_engine_rejected(self):
        device = StreamPIMDevice()
        with pytest.raises(ValueError, match="tests/oracles"):
            device.execute_trace(VPCTrace([]), engine="scalar")

    def test_empty_trace(self):
        trace = VPCTrace([])
        _, _, (run_scalar, run_vector) = _run_both(trace)
        _assert_identical(run_scalar(), run_vector())


class _CountingStore(WordStore):
    """A word store recording the words each gather/scatter moves."""

    def __init__(self) -> None:
        super().__init__()
        self.gathered = []
        self.scattered = []

    def gather(self, addresses):
        self.gathered.append(np.size(addresses))
        return super().gather(addresses)

    def scatter(self, addresses, values):
        self.scattered.append(np.size(addresses))
        super().scatter(addresses, values)


class TestChunkApplyCost:
    """A chunk's functional apply moves its own words, not the store's."""

    # Operand and result ranges merge to [0, 8) [64, 72) [128, 136)
    # [200, 201): 25 words; the results are [64, 72) [128, 136)
    # [200, 201): 17 words.
    CHUNK = VPCTrace(
        [VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8), VPC.mul(0, 64, 200, 8)]
    )

    @pytest.mark.parametrize("seeded_words", [0, 150_000])
    def test_one_gather_and_one_scatter_of_chunk_words(self, seeded_words):
        device = StreamPIMDevice()
        store = device.store = _CountingStore()
        store.write(1 << 20, np.arange(seeded_words) % 7)
        store.write(0, range(1, 9))
        store.gathered.clear()
        store.scattered.clear()

        state = VectorExecState(device)
        state.feed(ColumnarTrace.from_trace(self.CHUNK))

        assert state.fallbacks == 0
        assert store.gathered == [25]
        assert store.scattered == [17]
        assert store.read(128, 8).tolist() == [2 * v for v in range(1, 9)]
        assert store.read(200, 1)[0] == sum(v * v for v in range(1, 9))
        assert len(store) == seeded_words + 8 + 17


#: Word layout of the hazard traces: eight 8-word vector slots, then
#: sixteen scalar slots.  Vectors are ``k <= 8`` words, so two vector
#: ranges overlap only when a step aims them at each other on purpose.
_VECTOR_SLOTS = 8
_SCALAR_BASE = 256
_SCALAR_SLOTS = 16


@st.composite
def _hazard_traces(draw):
    """Seed words, a short trace and its chunk cuts.

    The trace is built from the batched apply's hazards: staging slots
    reused row to row, TRAN chains, compute chains several RAW levels
    deep, overlapping and self TRANs, ADD/SMUL into their own operand,
    a vector written a word at a time then read whole, and seeds large
    enough that results wrap negative at a later RAW level.
    """
    k = draw(st.integers(1, 4))
    low, high = draw(
        st.sampled_from([(0, 50), (1 << 19, 1 << 20), (1 << 39, 1 << 40)])
    )
    vector = st.integers(0, _VECTOR_SLOTS - 1).map(lambda j: 8 * j)
    scalar = st.integers(0, _SCALAR_SLOTS - 1).map(
        lambda j: _SCALAR_BASE + j
    )
    vpcs = []
    for step in draw(
        st.lists(
            st.sampled_from(
                [
                    "op",
                    "staging",
                    "chain",
                    "deep",
                    "overlap",
                    "own",
                    "bytewise",
                ]
            ),
            min_size=1,
            max_size=8,
        )
    ):
        if step == "op":
            a, b, d = draw(vector), draw(vector), draw(vector)
            vpcs.append(
                draw(
                    st.sampled_from(
                        [
                            VPC.tran(a, d, k),
                            VPC.tran(draw(scalar), draw(scalar), 1),
                            VPC.mul(a, b, draw(scalar), k),
                            VPC.add(a, b, d, k),
                            VPC.smul(draw(scalar), b, d, k),
                        ]
                    )
                )
            )
        elif step == "staging":
            stage, x = draw(vector), draw(vector)
            for _ in range(draw(st.integers(1, 3))):
                vpcs.append(VPC.tran(draw(vector), stage, k))
                vpcs.append(VPC.mul(stage, x, draw(scalar), k))
        elif step == "chain":
            a, b, c, x = (draw(vector) for _ in range(4))
            vpcs += [
                VPC.tran(a, b, k),
                VPC.tran(b, c, k),
                VPC.mul(c, x, draw(scalar), k),
            ]
        elif step == "deep":
            v = draw(vector)
            for _ in range(draw(st.integers(2, 4))):
                d, x = draw(vector), draw(vector)
                vpcs.append(
                    draw(
                        st.sampled_from(
                            [
                                VPC.add(v, x, d, k),
                                VPC.smul(draw(scalar), v, d, k),
                            ]
                        )
                    )
                )
                v = d
        elif step == "overlap":
            a = draw(vector)
            vpcs.append(VPC.tran(a, a + draw(st.integers(0, k - 1)), k))
        elif step == "own":
            a, b = draw(vector), draw(vector)
            vpcs.append(
                draw(
                    st.sampled_from(
                        [VPC.add(a, b, a, k), VPC.smul(draw(scalar), a, a, k)]
                    )
                )
            )
        else:  # bytewise
            v, x = draw(vector), draw(vector)
            for j in range(k):
                vpcs.append(VPC.tran(draw(scalar), v + j, 1))
            vpcs.append(VPC.mul(v, x, draw(scalar), k))
    words = 8 * _VECTOR_SLOTS
    seeds = draw(
        st.lists(
            st.integers(low, high),
            min_size=words + _SCALAR_SLOTS,
            max_size=words + _SCALAR_SLOTS,
        )
    )
    cuts = draw(
        st.lists(st.integers(1, max(1, len(vpcs) - 1)), max_size=4)
    )
    return seeds, vpcs, sorted(set(cuts))


def _seeded_device(seeds):
    device = StreamPIMDevice()
    words = 8 * _VECTOR_SLOTS
    device.store.write(0, seeds[:words])
    device.store.write(_SCALAR_BASE, seeds[words:])
    return device


def _feed_chunks(device, cols, cuts):
    state = VectorExecState(device, workload="diff")
    for lo, hi in zip([0, *cuts], [*cuts, len(cols)]):
        state.feed(ColumnarTrace(cols.records[lo:hi]))
    return state, state.finish()


class _ExactLoopSpy:
    """Counts the chunks handed to the exact per-command loop and
    records each one's ``(commands, index_offset)``."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.handed = []
        self._inner = vector_exec._apply_functional_columnar
        monkeypatch.setattr(
            vector_exec, "_apply_functional_columnar", self
        )

    def __call__(self, device, cols, **kwargs):
        self.calls += 1
        self.handed.append((len(cols), kwargs.get("index_offset", 0)))
        return self._inner(device, cols, **kwargs)


class TestBatchedApply:
    """The dataflow-batched apply equals the scalar oracle exactly."""

    @settings(max_examples=120, deadline=None)
    @given(case=_hazard_traces())
    def test_random_hazard_traces_match_oracle(self, case):
        seeds, vpcs, cuts = case
        trace = VPCTrace(vpcs)
        scalar_device = _seeded_device(seeds)
        vector_device = _seeded_device(seeds)
        cols = ColumnarTrace.from_trace(trace)
        try:
            expected = scalar_exec.execute_trace(
                scalar_device, trace, workload="diff", verify=False
            )
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                _feed_chunks(vector_device, cols, cuts)
            assert str(excinfo.value) == str(exc)
            return
        _, stats = _feed_chunks(vector_device, cols, cuts)
        _assert_identical(expected, stats)
        assert vector_device.store.snapshot() == scalar_device.store.snapshot()

    # s0 = x.x = 2**62 (level 0), s1 = s0 + s0 wraps to -2**63 (level
    # 1), and the ADD reading s1 is the exact loop's offending command.
    NEGATIVE_AT_LEVEL_1 = VPCTrace(
        [
            VPC.mul(0, 0, 256, 1),
            VPC.add(256, 256, 257, 1),
            VPC.add(257, 0, 258, 1),
        ]
    )

    def test_negative_result_leaves_store_to_exact_loop(self):
        device = StreamPIMDevice()
        device.store.write(0, [1 << 31])
        before = device.store.snapshot()
        cols = ColumnarTrace.from_trace(self.NEGATIVE_AT_LEVEL_1)

        assert vector_exec._apply_functional_chunk(device, cols) is False
        assert device.store.snapshot() == before

        oracle = StreamPIMDevice()
        oracle.store.write(0, [1 << 31])
        with pytest.raises(ValueError) as expected:
            scalar_exec.execute_trace(oracle, self.NEGATIVE_AT_LEVEL_1)
        state = VectorExecState(device)
        with pytest.raises(ValueError) as raised:
            state.feed(cols)
        assert str(raised.value) == str(expected.value)
        assert state.fallbacks == 1

    # A vector written one word at a time, then read whole: [0, 1) and
    # [1, 2) overlap [0, 2) without being equal to it.
    NOT_INTERVAL_EXACT = VPCTrace(
        [
            VPC.tran(256, 0, 1),
            VPC.tran(257, 1, 1),
            VPC.mul(0, 8, 300, 2),
        ]
    )

    def test_chunk_cut_before_clash_skips_exact_loop(self, monkeypatch):
        """The chunk is cut before the MUL that reads the vector whole,
        and both interval-exact pieces are batched."""
        seeds = list(range(3, 3 + 8 * _VECTOR_SLOTS + _SCALAR_SLOTS))
        oracle = _seeded_device(seeds)
        scalar_exec.execute_trace(oracle, self.NOT_INTERVAL_EXACT)
        device = _seeded_device(seeds)
        spy = _ExactLoopSpy(monkeypatch)

        state = VectorExecState(device)
        state.feed(ColumnarTrace.from_trace(self.NOT_INTERVAL_EXACT))

        assert spy.calls == 0
        assert state.fallbacks == 0
        assert device.store.snapshot() == oracle.store.snapshot()

    def test_self_clash_hands_rest_to_exact_loop(self, monkeypatch):
        """A TRAN whose source and destination overlap unequally clashes
        with itself: the pieces before it are batched and the exact
        loop takes the chunk from it on, at its global index."""
        trace = VPCTrace(
            [
                VPC.tran(256, 0, 1),
                VPC.tran(257, 1, 1),
                VPC.mul(0, 8, 300, 2),
                VPC.tran(16, 17, 4),
                VPC.add(17, 24, 32, 4),
            ]
        )
        seeds = list(range(3, 3 + 8 * _VECTOR_SLOTS + _SCALAR_SLOTS))
        oracle = _seeded_device(seeds)
        scalar_exec.execute_trace(oracle, trace)
        device = _seeded_device(seeds)
        spy = _ExactLoopSpy(monkeypatch)

        state = VectorExecState(device)
        state.offset = 100
        state.feed(ColumnarTrace.from_trace(trace))

        assert spy.handed == [(2, 103)]
        assert state.fallbacks == 0
        assert device.store.snapshot() == oracle.store.snapshot()

    def test_negative_in_later_piece_replays_from_it(self, monkeypatch):
        """The first piece is applied; the second reads a value that
        wraps negative, so only it goes to the exact loop, which raises
        the oracle's error."""
        trace = VPCTrace(
            [
                VPC.tran(256, 0, 1),
                VPC.tran(257, 1, 1),
                VPC.mul(0, 0, 258, 2),
                VPC.add(258, 258, 259, 1),
            ]
        )
        # The scalars moved into words 0 and 1 square to 2**62 each.
        seeds = [1] * (8 * _VECTOR_SLOTS) + [1 << 31] * _SCALAR_SLOTS
        oracle = _seeded_device(seeds)
        with pytest.raises(ValueError) as expected:
            scalar_exec.execute_trace(oracle, trace)
        device = _seeded_device(seeds)
        spy = _ExactLoopSpy(monkeypatch)
        cols = ColumnarTrace.from_trace(trace)

        with pytest.raises(ValueError) as raised:
            vector_exec._apply_functional_chunk(device, cols)

        assert str(raised.value) == str(expected.value)
        assert spy.handed == [(2, 2)]
        # The first piece's writes reached the store before the error.
        assert device.store.read(0, 2).tolist() == [1 << 31] * 2

    def test_interval_exact_chunk_skips_exact_loop(self, monkeypatch):
        spy = _ExactLoopSpy(monkeypatch)
        device = StreamPIMDevice()
        device.store.write(0, range(1, 9))
        state = VectorExecState(device)
        state.feed(ColumnarTrace.from_trace(TestChunkApplyCost.CHUNK))
        assert spy.calls == 0
        assert state.fallbacks == 0


#: Subarray ids of the scan traces: the first few and the device's last
#: two, so the flat busy list is indexed at both ends.
_SUBARRAYS = StreamPIMDevice().address_map.total_words // (
    StreamPIMDevice().address_map.words_per_subarray
)
_SCAN_SUBS = (0, 1, 2, _SUBARRAYS - 2, _SUBARRAYS - 1)


@st.composite
def _scan_traces(draw):
    """A trace mixing every busy-scan class, seeds and chunk cuts.

    Classes: compute in one subarray, compute with an operand copy, with
    a result copy, with both, in-subarray TRAN and cross TRAN.  No
    PolyBench kernel at the benchmark scale emits an operand copy, so
    this is where that class is exercised.
    """
    wps = StreamPIMDevice().address_map.words_per_subarray
    k = draw(st.integers(1, 6))
    sub = st.sampled_from(_SCAN_SUBS)
    slot = st.integers(0, 7).map(lambda j: 8 * j)

    def at(s):
        return s * wps + draw(slot)

    vpcs = []
    for kind in draw(
        st.lists(
            st.sampled_from(
                ["compute", "operand", "result", "both", "local", "cross"]
            ),
            min_size=1,
            max_size=30,
        )
    ):
        home = draw(sub)
        other = draw(sub.filter(lambda s, home=home: s != home))
        far = draw(sub.filter(lambda s, home=home: s != home))
        if kind == "local":
            vpcs.append(VPC.tran(at(home), at(home), k))
            continue
        if kind == "cross":
            vpcs.append(VPC.tran(at(home), at(other), k))
            continue
        src2 = at(other if kind in ("operand", "both") else home)
        des = at(far if kind in ("result", "both") else home)
        make = draw(st.sampled_from([VPC.mul, VPC.add, VPC.smul]))
        vpcs.append(make(at(home), src2, des, k))
    seeds = draw(st.lists(st.integers(0, 50), min_size=64, max_size=64))
    cuts = draw(
        st.lists(st.integers(1, max(1, len(vpcs) - 1)), max_size=5)
    )
    return seeds, vpcs, sorted(set(cuts))


def _scan_device(seeds):
    device = StreamPIMDevice()
    wps = device.address_map.words_per_subarray
    for s in _SCAN_SUBS:
        device.store.write(s * wps, seeds)
    return device


class TestBusyScan:
    """The begin-only busy scan equals the scalar oracle and itself under
    any command-aligned chunking: ``RunStats``, spans and store."""

    @settings(max_examples=150, deadline=None)
    @given(case=_scan_traces())
    def test_every_class_matches_oracle_under_chunking(self, case):
        seeds, vpcs, cuts = case
        trace = VPCTrace(vpcs)
        cols = ColumnarTrace.from_trace(trace)

        oracle_spans = []
        sweep = scalar_exec.spans_to_breakdown

        def capture(spans):
            oracle_spans.extend(spans)
            return sweep(spans)

        oracle = _scan_device(seeds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scalar_exec, "spans_to_breakdown", capture)
            expected = scalar_exec.execute_trace(
                oracle, trace, workload="diff", verify=False
            )

        triples = []
        stores = []
        for chunk_cuts in (cuts, []):
            device = _scan_device(seeds)
            sink = []
            state = VectorExecState(device, workload="diff", span_sink=sink)
            for lo, hi in zip([0, *chunk_cuts], [*chunk_cuts, len(cols)]):
                state.feed(ColumnarTrace(cols.records[lo:hi]))
            _assert_identical(expected, state.finish())
            (triple,) = sink
            triples.append(triple)
            stores.append(device.store.snapshot())

        want = (
            [span.start for span in oracle_spans],
            [span.finish for span in oracle_spans],
            [span.kind == "rw" for span in oracle_spans],
        )
        for triple in triples:
            assert [a.tolist() for a in triple] == list(want)
            assert [a.dtype for a in triple] == [
                np.float64, np.float64, np.bool_
            ]
        assert stores[0] == stores[1] == oracle.store.snapshot()


class TestVerifyGateParity:
    """Both engines reject out-of-bounds traces with the same report."""

    def _oob_trace(self, device):
        # The read range hangs off the end of the device (SPV001).
        total = device.address_map.total_words
        return VPCTrace(
            [VPC.tran(0, 64, 8), VPC.tran(total - 2, 128, 8)]
        )

    def _oob_address_trace(self, device):
        # The start address itself is unmappable (IndexError at replay).
        total = device.address_map.total_words
        return VPCTrace(
            [VPC.tran(0, 64, 8), VPC.tran(total + 10, 128, 8)]
        )

    def test_same_diagnostics(self):
        scalar_device = StreamPIMDevice()
        vector_device = StreamPIMDevice()
        trace = self._oob_trace(scalar_device)
        with pytest.raises(TraceVerificationError) as scalar:
            scalar_exec.execute_trace(scalar_device, trace, workload="oob")
        with pytest.raises(TraceVerificationError) as vector:
            vector_device.execute_trace(trace, workload="oob")
        scalar_errors = [d.render() for d in scalar.value.report.errors]
        vector_errors = [d.render() for d in vector.value.report.errors]
        assert scalar_errors == vector_errors
        assert len(scalar_errors) > 0

    def test_unverified_replay_raises_index_error(self):
        scalar_device = StreamPIMDevice()
        vector_device = StreamPIMDevice()
        trace = self._oob_address_trace(scalar_device)
        with pytest.raises(IndexError) as scalar:
            scalar_exec.execute_trace(
                scalar_device,
                trace,
                workload="oob",
                functional=False,
                verify=False,
            )
        with pytest.raises(IndexError) as vector:
            vector_device.execute_trace(
                trace, workload="oob", functional=False, verify=False
            )
        assert str(vector.value) == str(scalar.value)

    def test_cached_verifier_is_reused(self):
        device = StreamPIMDevice()
        trace = VPCTrace([VPC.tran(0, 64, 8)])
        device.execute_trace(trace, functional=False)
        first = device._bounds_verifier
        assert first is not None
        device.execute_trace(trace, functional=False)
        assert device._bounds_verifier is first


def _reference_breakdown(starts, finishes, is_rw):
    """Quadratic reference: classify every covered instant directly."""
    edges = sorted(set(starts) | set(finishes))
    result = TimeBreakdown()
    for left, right in zip(edges, edges[1:]):
        rw = pim = False
        for start, finish, kind_rw in zip(starts, finishes, is_rw):
            if start <= left and right <= finish:
                if kind_rw:
                    rw = True
                else:
                    pim = True
        width = right - left
        if rw and pim:
            result.add("overlapped", width)
        elif pim:
            result.add("process", width)
        elif rw:
            result.add("read", width * 0.3)
            result.add("write", width * 0.7)
    return result


class TestSweepSpans:
    def test_empty(self):
        empty = np.array([], dtype=np.float64)
        breakdown = sweep_spans(empty, empty, np.array([], dtype=bool))
        assert breakdown.total_ns == 0.0

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(7)
        starts = rng.uniform(0.0, 100.0, size=64)
        widths = rng.uniform(0.0, 20.0, size=64)
        finishes = starts + widths
        is_rw = rng.integers(0, 2, size=64).astype(bool)
        fast = sweep_spans(starts, finishes, is_rw)
        slow = _reference_breakdown(
            starts.tolist(), finishes.tolist(), is_rw.tolist()
        )
        for name in _BREAKDOWN_FIELDS:
            assert getattr(fast, name) == pytest.approx(
                getattr(slow, name)
            ), name

    def test_zero_width_spans_contribute_nothing(self):
        starts = np.array([5.0, 5.0])
        finishes = np.array([5.0, 5.0])
        is_rw = np.array([True, False])
        assert sweep_spans(starts, finishes, is_rw).total_ns == 0.0

    @staticmethod
    def _assert_bitwise_reference(spans):
        starts = np.array([s for s, _, _ in spans], dtype=np.float64)
        finishes = np.array([f for _, f, _ in spans], dtype=np.float64)
        is_rw = np.array([rw for _, _, rw in spans], dtype=bool)
        got = sweep_spans(starts, finishes, is_rw)
        want = span_sweep.sweep_spans(starts, finishes, is_rw)
        for name in _BREAKDOWN_FIELDS:
            assert getattr(got, name).hex() == getattr(want, name).hex(), name

    @pytest.mark.parametrize(
        "spans",
        [
            [],
            [(1.5, 4.0, True)],
            [(1.5, 4.0, False)],
            [(3.0, 3.0, True), (3.0, 3.0, False), (3.0, 3.0, True)],
            [(2.0, 2.0, False), (0.0, 5.0, True)],
            [(0.0, 2.0, True), (2.0, 4.0, False), (2.0, 4.0, True)],
            [(0.0, 1.0, True), (1.0, 2.0, True), (0.5, 1.0, False)],
        ],
        ids=[
            "empty",
            "one-rw",
            "one-pim",
            "all-equal-edges",
            "zero-width-inside",
            "shared-edges-across-classes",
            "tied-edges",
        ],
    )
    def test_edge_cases_equal_reference_bitwise(self, spans):
        self._assert_bitwise_reference(spans)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 7.0]),
                    st.floats(0.0, 1e6, allow_nan=False),
                ),
                st.one_of(
                    st.just(0.0),
                    st.sampled_from([0.1, 0.2, 1.0, 4.5]),
                    st.floats(0.0, 1e3, allow_nan=False),
                ),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_equals_reference_bitwise(self, drawn):
        """Spans drawn from a few edge values tie often, across the rw
        and pim classes too; some have zero width."""
        self._assert_bitwise_reference(
            [(start, start + width, rw) for start, width, rw in drawn]
        )


@pytest.fixture(scope="module")
def gemm_trace():
    spec = polybench_workload("gemm", scale=0.01)
    return compile_workload(spec, use_cache=False).trace


class TestPriceMemo:
    """The process-wide cost memo prices a key once per pricing
    configuration, whichever device or predictor asks."""

    @pytest.fixture
    def priced(self, monkeypatch):
        """Keys ``shape_costs``/``copy_costs`` price, from an empty
        memo."""
        monkeypatch.setattr(vector_exec, "_PRICES", {})
        priced = {"shape": [], "copy": []}
        shape_costs = vector_exec.shape_costs
        copy_costs = vector_exec.copy_costs

        def count_shapes(device, keys):
            priced["shape"].extend(keys)
            return shape_costs(device, keys)

        def count_copies(device, counts):
            priced["copy"].extend(counts)
            return copy_costs(device, counts)

        monkeypatch.setattr(vector_exec, "shape_costs", count_shapes)
        monkeypatch.setattr(vector_exec, "copy_costs", count_copies)
        return priced

    def test_equal_config_prices_no_key(self, priced, gemm_trace):
        first = StreamPIMDevice().execute_trace(gemm_trace, functional=False)
        assert priced["shape"] and priced["copy"]
        assert len(set(priced["shape"])) == len(priced["shape"])
        priced["shape"].clear()
        priced["copy"].clear()
        second = StreamPIMDevice(StreamPIMConfig()).execute_trace(
            gemm_trace, functional=False
        )
        assert priced == {"shape": [], "copy": []}
        assert second == first

    def test_other_timing_reuses_no_entry(self, priced, gemm_trace):
        StreamPIMDevice().execute_trace(gemm_trace, functional=False)
        shapes = sorted(priced["shape"])
        copies = sorted(priced["copy"])
        priced["shape"].clear()
        priced["copy"].clear()
        base = StreamPIMConfig()
        slower = replace(
            base, timing=replace(base.timing, read_ns=2 * base.timing.read_ns)
        )
        device = StreamPIMDevice(slower)
        stats = device.execute_trace(gemm_trace, functional=False)
        assert sorted(priced["shape"]) == shapes
        assert sorted(priced["copy"]) == copies
        _assert_identical(
            scalar_exec.execute_trace(
                StreamPIMDevice(slower), gemm_trace, functional=False
            ),
            stats,
        )

    def test_predictor_prices_no_table_the_engine_priced(
        self, priced, gemm_trace
    ):
        """After an engine run on an equal configuration the predictor
        prices no key: it reads every shape and word count from the
        engine's entries, and takes no shape of a cross-subarray TRAN,
        which both time as a bus copy."""
        device = StreamPIMDevice()
        device.execute_trace(gemm_trace, functional=False)
        priced["shape"].clear()
        priced["copy"].clear()
        predictor = TracePredictor(
            gemm_trace, device.address_map.words_per_subarray
        )
        predictor.predict(AnalyticDevice(device.config))
        assert priced == {"shape": [], "copy": []}
        assert predictor._shape_keys

    def test_configurations_kept_are_bounded(self, priced):
        base = StreamPIMConfig()
        extra = 3
        configs = [
            replace(
                base,
                timing=replace(
                    base.timing, read_ns=base.timing.read_ns * (1 + step)
                ),
            )
            for step in range(vector_exec.PRICE_MEMO_CONFIGS + extra)
        ]
        for config in configs:
            vector_exec.priced_costs(AnalyticDevice(config), "copy", [1, 8])
        kept = vector_exec._PRICES
        assert len(kept) == vector_exec.PRICE_MEMO_CONFIGS
        # The oldest configurations were dropped, the newest kept.
        inputs = [
            vector_exec.pricing_inputs(AnalyticDevice(config))
            for config in configs
        ]
        assert list(kept) == inputs[extra:]


class TestEnginePendingCounter:
    def test_schedule_and_run(self):
        engine = Engine()
        for delay in (1.0, 2.0, 3.0):
            engine.schedule(delay, lambda: None)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0

    def test_cancel_decrements(self):
        engine = Engine()
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        drop.cancel()
        assert engine.pending == 1
        drop.cancel()  # idempotent
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        keep.cancel()  # cancel after execution must not go negative
        assert engine.pending == 0

    def test_step_consumes_one_live_event(self):
        engine = Engine()
        first = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        first.cancel()
        assert engine.pending == 1
        assert engine.step() is True
        assert engine.pending == 0
        assert engine.step() is False


class TestCliIntegration:
    def test_sweep_jobs_matches_sequential(self, capsys):
        argv = ["sweep", "--workloads", "atax", "--scale", "0.01"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential
        assert "atax" in sequential

    def test_replay_vector_engine(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        trace = VPCTrace([VPC.tran(0, 64, 8), VPC.add(0, 64, 128, 8)])
        write_trace_binary(trace, path)
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        reference = scalar_exec.execute_trace(
            StreamPIMDevice(), trace, functional=False
        )
        assert f"time   : {reference.time_ns / 1e3:.2f} us" in out
        assert (
            f"energy : {reference.energy.total_pj / 1e3:.2f} nJ" in out
        )
