"""Vector trace engine: exact equivalence with the per-VPC reference loop
(``tests/oracles/scalar_exec.py``) + supporting machinery."""

import numpy as np
import pytest

from repro.cli import _check_specs, main
from repro.core.device import StreamPIMDevice, WordStore
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace import VPCTrace, write_trace_binary
from repro.isa.vpc import VPC
from repro.sim.engine import Engine
from repro.sim.stats import TimeBreakdown
from repro.sim.vector_exec import VectorExecState, sweep_spans
from repro.verify.trace_verifier import TraceVerificationError
from tests.oracles import scalar_exec

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
