"""Performance and resilience gates, each a fixed scale and a fixed floor.

Every gate times a user-visible path (trace execution, placement,
lowering, the trace cache, streamed compile/execute, deep analysis, the
analytic sweep, a real service) on the machine running the suite, so each
floor is a same-machine ratio or a generous absolute budget.  Where a
gate has a shared-runner floor and a local acceptance floor, both
(scale, floor) pairs run.  Each test records its measured value and
floor with ``record_property``, so ``--junitxml`` carries the numbers.

The module is marked ``slow``; ``pyproject.toml`` deselects it from
the default run.  Run the gates with ``make gates`` or
``pytest -m slow tests/``.
"""

import gc
import hashlib
import json
import math
import socket
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro.core.compile import compile_workload
from repro.core.device import StreamPIMConfig, StreamPIMDevice
from repro.core.stream import run_stream, task_chunk_producer
from repro.core.task import PimTask, TaskOp
from repro.isa.columnar import ColumnarTrace
from repro.isa.trace_cache import TraceCache
from repro.serve import ServeClient, ServeClientError
from repro.serve.protocol import Request, decode_line, encode_message
from repro.workloads import POLYBENCH, find_workload, polybench_workload
from repro.baselines.stpim import spec_to_task
from tests.oracles import scalar_exec, scalar_lowering, scalar_placer
from tests.test_serve_scheduling import jain
from tests.test_serve_server import start_server

pytestmark = pytest.mark.slow

#: Timed runs per side; the best is kept.
REPEATS = 3


@pytest.fixture(autouse=True)
def _fresh_heap():
    """Time each gate as a process that ran only that gate would.

    A ``tests/`` session holds every imported test module and test
    item, and each full garbage-collector pass walks all of them: that
    doubled the cached-reload time of the cache gate.  Freezing moves
    them out of the collector's view; garbage the gate itself makes is
    still collected.
    """
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def best_of(fn, repeats=REPEATS):
    """Best-of-N wall time of ``fn()`` and the last call's result.

    The minimum is the least noise-contaminated estimate of the cost
    (as ``timeit`` reports); the first run doubles as warm-up.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def record(record_property, **values):
    for name, value in values.items():
        record_property(name, round(value, 4))


# ----------------------------------------------------------------------
# Trace execution: the vector engine against the per-VPC oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def matmul_100k():
    """A matmul trace of at least 100k VPCs: one TRAN + one MUL per
    output element of a side x side result (B stored transposed)."""
    side = math.ceil(math.sqrt(100_000 / 2))
    rng = np.random.default_rng(2024)
    task = PimTask(StreamPIMDevice())
    task.add_matrix("A", rng.integers(0, 200, size=(side, 64)))
    task.add_matrix("B", rng.integers(0, 200, size=(64, side)))
    task.add_matrix("C", shape=(side, side))
    task.add_operation(TaskOp.MATMUL, "A", "B", "C")
    trace = task.to_trace()
    return trace, ColumnarTrace.from_trace(trace)


def test_vector_engine_beats_scalar_oracle(matmul_100k, record_property):
    trace, cols = matmul_100k
    assert len(trace) >= 100_000
    assert ColumnarTrace.from_bytes(cols.to_bytes()) == cols
    scalar_s, scalar_stats = best_of(
        lambda: scalar_exec.execute_trace(
            StreamPIMDevice(), trace, workload="bench", functional=False
        )
    )
    vector_s, vector_stats = best_of(
        lambda: StreamPIMDevice().execute_trace(
            cols, workload="bench", functional=False
        )
    )
    assert vector_stats == scalar_stats
    speedup = scalar_s / vector_s
    record(record_property, speedup=speedup, floor=1.0)
    assert speedup >= 1.0


#: Interleaved (control, disabled) pairs of the overhead gate.
OVERHEAD_PAIRS = 21


def test_disabled_observability_overhead(matmul_100k, record_property):
    """``execute_trace`` with the collector disabled against a direct
    engine call that bypasses the obs plumbing; both skip verification
    so the delta is the dispatch overhead.

    The two sides run in back-to-back pairs, the order flipped every
    pair, and the gate reads the median of the per-pair time ratios: a
    host slowdown that spans a pair cancels in its ratio, and the median
    drops the pairs it splits.
    """
    from repro.sim.vector_exec import VectorExecState

    _, cols = matmul_100k

    def control():
        state = VectorExecState(
            StreamPIMDevice(),
            workload="bench",
            functional=False,
            exact_apply=True,
        )
        state.feed(cols)
        return state.finish()

    def disabled():
        return StreamPIMDevice().execute_trace(
            cols, workload="bench", functional=False, verify=False
        )

    def timed(fn):
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result

    control()
    disabled()
    ratios = []
    for pair in range(OVERHEAD_PAIRS):
        if pair % 2:
            disabled_s, disabled_stats = timed(disabled)
            control_s, control_stats = timed(control)
        else:
            control_s, control_stats = timed(control)
            disabled_s, disabled_stats = timed(disabled)
        assert disabled_stats == control_stats
        ratios.append(disabled_s / control_s)
    overhead_pct = (percentile(ratios, 50) - 1.0) * 100.0
    record(
        record_property,
        overhead_pct=overhead_pct,
        pairs=OVERHEAD_PAIRS,
        ceiling_pct=5.0,
    )
    assert overhead_pct <= 5.0


# ----------------------------------------------------------------------
# Placement: the array placer against the per-row oracle
# ----------------------------------------------------------------------
def test_array_placement_beats_row_oracle(record_property):
    """gemm's paper-dimension ``_place_all`` on the StPIM config, with
    every slice table read back.

    The array placer builds a handle's table on its first read, so the
    timed region reads ``slices`` of every handle and mirror: both sides
    then produce every slice, as the oracle always does.
    """
    task = spec_to_task(POLYBENCH["gemm"], StreamPIMDevice())

    def place(oracle):
        placer = task._build_placer()
        if oracle:
            placer = scalar_placer.Placer(
                placer.geometry,
                placer.policy,
                placer.disjoint_result_sets,
                placer.result_set_fraction,
            )
        task._place_all(placer)
        if not oracle:
            for handle in placer.plan.matrices.values():
                for placed in (handle, handle.mirror):
                    if placed is not None:
                        placed.slices
        return placer.plan

    oracle_s, expected = best_of(lambda: place(True))
    array_s, plan = best_of(lambda: place(False))
    assert json.dumps(plan.to_dict(), sort_keys=True) == json.dumps(
        expected.to_dict(), sort_keys=True
    )
    speedup = oracle_s / array_s
    record(
        record_property,
        oracle_ms=oracle_s * 1e3,
        array_ms=array_s * 1e3,
        speedup=speedup,
        floor=10.0,
    )
    assert speedup >= 10.0


# ----------------------------------------------------------------------
# Compile: lowering against the per-command oracle, and the trace cache
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scale, floor", [(0.05, 1.0), (0.1, 5.0)])
def test_lowering_beats_scalar_oracle(scale, floor, record_property):
    spec = polybench_workload("gemm", scale=scale)
    # The task build stays outside the timed region.
    scalar_s = columnar_s = math.inf
    for _ in range(REPEATS):
        task = spec.build_task(seed=7)
        t0 = time.perf_counter()
        scalar_trace = scalar_lowering.to_trace(task)
        scalar_s = min(scalar_s, time.perf_counter() - t0)
    for _ in range(REPEATS):
        task = spec.build_task(seed=7)
        t0 = time.perf_counter()
        columnar_trace = task.to_trace()
        columnar_s = min(columnar_s, time.perf_counter() - t0)
    assert (
        ColumnarTrace.from_trace(scalar_trace).to_bytes()
        == columnar_trace.to_bytes()
    )
    speedup = scalar_s / columnar_s
    record(record_property, speedup=speedup, floor=floor)
    assert speedup >= floor


@pytest.mark.parametrize("scale, floor", [(0.08, 1.0), (0.15, 20.0)])
def test_cached_compile_beats_cold(scale, floor, tmp_path, record_property):
    """Cold compile-and-store against a cached reload of the Fig. 17
    set, through a fresh cache directory."""
    cache = TraceCache(tmp_path / "cache")
    cold_s = warm_s = 0.0
    for name in POLYBENCH:
        spec = polybench_workload(name, scale=scale)
        t0 = time.perf_counter()
        cold = compile_workload(spec, cache=cache)
        cold_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        cached = compile_workload(spec, cache=cache)
        warm_s += time.perf_counter() - t0
        assert not cold.cache_hit and cached.cache_hit, name
        assert cached.trace.to_bytes() == cold.trace.to_bytes(), name
    speedup = cold_s / warm_s
    record(record_property, speedup=speedup, floor=floor)
    assert speedup >= floor


# ----------------------------------------------------------------------
# Streamed compile/execute against phased, cold end to end
# ----------------------------------------------------------------------
def _phased_cold(spec):
    task = spec.build_task(seed=7)
    trace = task.to_trace()
    task.materialize()
    stats = task.device.execute_trace(
        trace, workload=spec.name, functional=True
    )
    return task, trace, stats


def _streamed_cold(spec):
    task = spec.build_task(seed=7)
    result, _ = run_stream(
        task.device,
        task_chunk_producer(task),
        workload=spec.name,
        functional=True,
    )
    return task, result


@pytest.mark.parametrize("scale, floor", [(0.05, 1.0), (0.1, 1.15)])
def test_streamed_beats_phased(scale, floor, record_property):
    phased_total = streamed_total = 0.0
    for name in POLYBENCH:
        spec = polybench_workload(name, scale=scale)
        phased_s, (p_task, p_trace, p_stats) = best_of(
            lambda: _phased_cold(spec)
        )
        streamed_s, (s_task, result) = best_of(lambda: _streamed_cold(spec))
        assert result.stats == p_stats, name
        assert result.trace.to_bytes() == p_trace.to_bytes(), name
        assert (
            s_task.device.store.snapshot() == p_task.device.store.snapshot()
        ), name
        phased_total += phased_s
        streamed_total += streamed_s
    speedup = phased_total / streamed_total
    record(record_property, speedup=speedup, floor=floor)
    assert speedup >= floor


# ----------------------------------------------------------------------
# Deep analysis budget
# ----------------------------------------------------------------------
def test_deep_analysis_budget(record_property):
    """The SPV008-SPV012 pass over the ~93k-VPC gemm trace costs a
    small fraction of one functional vector execution of the same
    trace, stays under an absolute budget, and finds nothing."""
    from repro.obs import MetricsRegistry
    from repro.verify.dataflow import DataflowAnalyzer

    task = polybench_workload("gemm", scale=0.1).build_task(seed=7)
    trace = task.to_trace()
    t0 = time.perf_counter()
    task.device.execute_trace(trace, workload="bench", functional=True)
    vector_s = time.perf_counter() - t0
    analyzer = DataflowAnalyzer(
        geometry=task.device.config.geometry,
        plan=task.placement_plan,
        scalar_slots=task.trace_scalar_slots,
        registry=MetricsRegistry(),
    )
    deep_s, report = best_of(
        lambda: analyzer.analyze(trace, subject="bench gemm")
    )
    ratio = deep_s / vector_s
    record(
        record_property,
        deep_s=deep_s,
        budget_s=10.0,
        ratio=ratio,
        max_ratio=0.5,
    )
    assert report.ok(strict=True), report.rule_ids()
    assert ratio <= 0.5
    assert deep_s <= 10.0


# ----------------------------------------------------------------------
# Analytic sweep against re-simulating every point
# ----------------------------------------------------------------------
#: (read_scale, write_scale, vpc_decode_ns); the first entry is the
#: paper's default configuration.
TIMING_POINTS = [
    (1.0, 1.0, 10.0),
    (0.5, 1.0, 10.0),
    (2.0, 1.0, 10.0),
    (1.0, 0.5, 10.0),
    (1.0, 2.0, 10.0),
    (1.0, 1.0, 5.0),
    (1.0, 1.0, 40.0),
    (2.0, 2.0, 20.0),
]
#: 32 points: wide enough to amortise the one-time predictor builds,
#: as the explorer's 1,000+-point grids do.  Each pass past the first
#: eight shifts the decode cost so every point is distinct.
SWEEP_POINTS = [
    (r, w, d + 2.5 * i)
    for i in range(4)
    for r, w, d in TIMING_POINTS
]


def test_analytic_sweep_beats_simulation(record_property):
    """Per workload: one simulated design point (fresh device, operand
    materialisation, functional vector execution) against one
    predictor build plus 32 closed-form points.  The gated figure is
    what simulating every point would cost over what the analytic
    sweep cost; the default point must agree with the simulation."""
    from repro.analysis.predictor import AnalyticDevice, TracePredictor

    base = StreamPIMConfig()
    configs = [
        replace(
            base,
            timing=replace(
                base.timing,
                read_ns=base.timing.read_ns * read_scale,
                write_ns=base.timing.write_ns * write_scale,
            ),
            vpc_decode_ns=decode_ns,
        )
        for read_scale, write_scale, decode_ns in SWEEP_POINTS
    ]
    sim_total_s = analytic_total_s = 0.0
    for spec in (
        find_workload("gemm", scale=0.05),
        find_workload("3mm", scale=0.05),
        find_workload("mlp"),
    ):
        compiled = compile_workload(spec, seed=7)
        t0 = time.perf_counter()
        device = StreamPIMDevice(base)
        compiled.task.materialize(device)
        stats = device.execute_trace(
            compiled.trace,
            workload=spec.name,
            functional=True,
            verify=False,
        )
        sim_total_s += time.perf_counter() - t0

        t0 = time.perf_counter()
        predictor = TracePredictor(
            compiled.trace, device.address_map.words_per_subarray
        )
        predicted = [
            predictor.predict(AnalyticDevice(config), workload=spec.name)
            for config in configs
        ]
        analytic_total_s += time.perf_counter() - t0
        time_err = (predicted[0].time_ns - stats.time_ns) / stats.time_ns
        assert abs(time_err) <= 0.10, (spec.name, time_err)
    speedup = sim_total_s * len(configs) / analytic_total_s
    record(
        record_property,
        sim_point_total_s=sim_total_s,
        analytic_total_s=analytic_total_s,
        speedup=speedup,
        floor=100.0,
    )
    assert speedup >= 100.0


# ----------------------------------------------------------------------
# Serving: a real service over a unix socket
# ----------------------------------------------------------------------
HANG_GRACE_S = 2.0
DEADLINE_MS = 60000.0
#: Deadline plus hang grace plus 5 s of transport slack.
BUDGET_MS = DEADLINE_MS + (HANG_GRACE_S + 5.0) * 1000.0
SERVE_FLAGS = (
    "--queue-limit", "512",
    "--tenant-rate", "100000",
    "--tenant-burst", "100000",
    "--hang-grace", str(HANG_GRACE_S),
    "--drain-timeout", "30",
)


@contextmanager
def serving(socket_path, cache_dir, *flags, workers):
    """A server whose workers have all finished importing.

    Load issued before the first worker heartbeat would sit in the
    dispatch pipes and be billed to the measured phase.  The body
    drains the server itself (:func:`drain`); the process is killed if
    it is still running on exit.
    """
    proc = start_server(
        socket_path, cache_dir, *SERVE_FLAGS, *flags, workers=workers
    )
    try:
        deadline = time.time() + 30.0
        while True:
            with ServeClient(socket_path=socket_path) as probe:
                pool = probe.stats().result["pool"]["workers"]
            if pool and all(
                w.get("alive") and not w.get("starting")
                for w in pool.values()
            ):
                break
            assert time.time() < deadline, "worker pool not warm in 30s"
            time.sleep(0.1)
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def drain(socket_path, proc):
    """Drain via the control method; returns the exit code."""
    try:
        with ServeClient(socket_path=socket_path) as client:
            client.drain()
    except ServeClientError:
        pass
    try:
        return proc.wait(timeout=45.0)
    except subprocess.TimeoutExpired:
        return None


#: (method, params) of the chaos gate's normal load; request i uses
#: entry i % len(MIX).
MIX = [
    ("run", {"workload": "atax", "platform": "StPIM", "scale": 0.01}),
    ("run", {"workload": "bicg", "platform": "CPU-RM", "scale": 0.01}),
    ("compile", {"workload": "atax", "scale": 0.01}),
    ("run", {"workload": "mvt", "platform": "FELIX", "scale": 0.01}),
    ("compile", {"workload": "bicg", "scale": 0.01}),
    ("run", {"workload": "atax", "platform": "CORUSCANT", "scale": 0.01}),
]
CHAOS_REQUESTS = 60
CHAOS_THREADS = 6
CRASHES = 2
SLOW = round(CHAOS_REQUESTS * 0.08)
#: Codes acceptable for an ``x-crash`` injection: the worker died, so
#: the request dead-letters after redelivery, or the crash class's
#: breaker already opened and shed it.
CRASH_CODES = {"DEAD_LETTER", "CIRCUIT_OPEN", "WORKER_CRASH"}


def chaos_plan(chaos):
    plan = [
        ("normal", method, dict(params))
        for method, params in (
            MIX[i % len(MIX)] for i in range(CHAOS_REQUESTS)
        )
    ]
    if chaos:
        for i in range(SLOW):
            plan.insert(
                (i * 7) % len(plan), ("slow", "x-sleep", {"ms": 250.0})
            )
        for i in range(CRASHES):
            # One breaker class per crash (distinct workload label), so
            # every injection reaches a worker and kills it instead of
            # being shed by the previous crash's open breaker.
            plan.insert(
                (i * 13 + 3) % len(plan),
                ("crash", "x-crash", {"workload": f"chaos{i}"}),
            )
    return plan


def run_load(socket_path, plan):
    """Issue ``plan`` from blocking client threads; one record each."""
    lock = threading.Lock()
    cursor = iter(range(len(plan)))
    records = [None] * len(plan)

    def worker(thread_index):
        with ServeClient(socket_path=socket_path, timeout_s=120.0) as client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                kind, method, params = plan[index]
                request_id = f"t{thread_index}-r{index}"
                started = time.time()
                response = client.call(
                    method,
                    params,
                    deadline_ms=DEADLINE_MS,
                    request_id=request_id,
                )
                records[index] = {
                    "kind": kind,
                    "method": method,
                    "params": params,
                    "id": request_id,
                    "response_id": response.id,
                    "ok": response.ok,
                    "code": None if response.ok else response.error.code.value,
                    "result": response.result,
                    "latency_ms": (time.time() - started) * 1000.0,
                }

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(CHAOS_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
        assert not thread.is_alive()
    return records


def chaos_phase(tmp_path, chaos):
    """One server lifetime: start, load, stats, drain."""
    socket_path = str(tmp_path / ("chaos.sock" if chaos else "base.sock"))
    flags = ("--chaos",) if chaos else ()
    with serving(socket_path, tmp_path / "cache", *flags, workers=3) as proc:
        records = run_load(socket_path, chaos_plan(chaos))
        with ServeClient(socket_path=socket_path) as client:
            stats = client.stats().result
        exit_code = drain(socket_path, proc)
    assert exit_code == 0, "server did not drain cleanly"
    # Exactly once: every request resolved to one response carrying
    # its own id, within its deadline plus the hang grace.
    assert all(records)
    assert len({r["id"] for r in records}) == len(records)
    for r in records:
        assert r["response_id"] in ("", r["id"]), r
        assert r["latency_ms"] <= BUDGET_MS, r
        if r["kind"] == "normal":
            assert r["ok"], r
        elif r["kind"] == "crash":
            assert not r["ok"] and r["code"] in CRASH_CODES, r
        elif not r["ok"]:
            # A slow request may legitimately hit its deadline.
            assert r["code"] == "DEADLINE_EXCEEDED", r
    assert_one_shot_identity(r for r in records if r["kind"] == "normal")
    return records, stats


def assert_one_shot_identity(records):
    """Served results equal in-process one-shot results exactly."""
    from repro.baselines import default_platforms

    platforms = default_platforms()
    expected = {}
    for r in records:
        p = r["params"]
        key = (r["method"], p["workload"], p.get("platform"), p["scale"])
        if key not in expected:
            spec = find_workload(p["workload"], scale=p["scale"])
            if r["method"] == "run":
                stats = platforms[p["platform"]].run(spec)
                expected[key] = (stats.time_ns, stats.energy.total_pj)
            else:
                trace = compile_workload(spec, use_cache=False).trace
                expected[key] = hashlib.sha256(trace.to_bytes()).hexdigest()
        if r["method"] == "run":
            got = (r["result"]["time_ns"], r["result"]["energy_pj"])
        else:
            got = r["result"]["trace_sha256"]
        assert got == expected[key], key


def test_serve_chaos(tmp_path, record_property):
    """Baseline load, then the same load with forced worker kills and
    slow requests: exactly-once, deadlines, typed crash codes, worker
    restarts, bit-identity with one-shot runs, chaos p99 within 3x of
    the baseline, and a clean drain of both servers."""
    baseline, _ = chaos_phase(tmp_path, chaos=False)
    chaos, stats = chaos_phase(tmp_path, chaos=True)
    assert stats["pool"]["restarts"] >= CRASHES

    def p99(records):
        normal = [r for r in records if r["kind"] == "normal"]
        return percentile([r["latency_ms"] for r in normal], 99.0)

    # The baseline p99 is clamped up to 250 ms so tiny absolute
    # latencies cannot flake the ratio.
    ratio = p99(chaos) / max(p99(baseline), 250.0)
    record(record_property, p99_ratio=ratio, max_ratio=3.0)
    assert ratio <= 3.0


def pipelined_exchange(socket_path, requests):
    """Write every request up front, then read until all are answered.

    Sustained load needs a deep server-side backlog (what the batch
    planner feeds on), which blocking one-call-per-thread clients
    cannot produce.  Returns the responses in arrival order and the
    elapsed seconds.
    """
    responses = []
    started = time.time()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(120.0)
        conn.connect(socket_path)
        conn.sendall(b"".join(encode_message(r.to_dict()) for r in requests))
        buffer = b""
        while len(responses) < len(requests):
            chunk = conn.recv(65536)
            assert chunk, f"{len(requests) - len(responses)} unanswered"
            arrived_ms = (time.time() - started) * 1000.0
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                obj = decode_line(line)
                assert obj.get("ok"), obj
                assert arrived_ms <= BUDGET_MS, obj
                responses.append(obj)
    elapsed = time.time() - started
    assert sorted(r["id"] for r in responses) == sorted(
        r.id for r in requests
    )
    return responses, elapsed


def result_sha(result):
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode("utf-8")
    ).hexdigest()


#: Batchable run-only load: three batch keys, one per workload, so
#: grouping is exercised without collapsing the run into one key.
SUSTAINED_MIX = [
    {"workload": "atax", "platform": "StPIM", "scale": 0.01},
    {"workload": "bicg", "platform": "StPIM", "scale": 0.01},
    {"workload": "mvt", "platform": "StPIM", "scale": 0.01},
]
SUSTAINED = [
    Request(
        id=f"s-{i}",
        method="run",
        params=dict(SUSTAINED_MIX[i % len(SUSTAINED_MIX)]),
        deadline_ms=DEADLINE_MS,
    )
    for i in range(90)
]


def sustained_phase(tmp_path, max_batch):
    """One server lifetime under the pipelined batchable load."""
    socket_path = str(tmp_path / f"batch{max_batch}.sock")
    with serving(
        socket_path,
        tmp_path / "cache",
        "--max-batch",
        str(max_batch),
        workers=2,
    ) as proc:
        # Warm the workers so the timed phase measures steady-state
        # serving, not one-time imports and compilation.
        with ServeClient(socket_path=socket_path, timeout_s=60.0) as warm:
            for params in SUSTAINED_MIX:
                assert warm.call("run", dict(params)).ok
        responses, elapsed = pipelined_exchange(socket_path, SUSTAINED)
        exit_code = drain(socket_path, proc)
    assert exit_code == 0, "server did not drain cleanly"
    return (
        len(responses) / elapsed,
        {r["id"]: result_sha(r["result"]) for r in responses},
    )


def test_batched_throughput(tmp_path, record_property):
    """The same pipelined load against an unbatched and a batched
    server with equal workers: batched throughput reaches 1.5x, and
    every request's result hashes the same in both phases and as an
    in-process one-shot ``execute_request``."""
    from repro.serve.supervisor import execute_request

    unbatched_rps, unbatched = sustained_phase(tmp_path, max_batch=1)
    batched_rps, batched = sustained_phase(tmp_path, max_batch=8)
    speedup = batched_rps / unbatched_rps
    record(
        record_property,
        unbatched_rps=unbatched_rps,
        batched_rps=batched_rps,
        speedup=speedup,
        floor=1.5,
    )
    assert batched == unbatched
    reference = {}
    for request in SUSTAINED:
        key = request.params["workload"]
        if key not in reference:
            envelope = execute_request(
                "run", dict(request.params), None, {}
            )
            assert envelope["ok"]
            reference[key] = result_sha(envelope["result"])
        assert unbatched[request.id] == reference[key], request.id
    assert speedup >= 1.5


def test_tenant_fairness(tmp_path, record_property):
    """A 10:1 two-tenant pipelined mix is served ~1:1 (Jain >= 0.9)
    while both tenants are backlogged.

    All heavy-tenant requests are written first, the adversarial order
    for a FIFO.  Each tenant runs a different workload, so a batch
    never mixes tenants and grouping cannot mask an unfair pick order.
    """
    heavy, light = 100, 10
    requests = [
        Request(
            id=f"heavy-{i}",
            method="run",
            params={"workload": "atax", "platform": "StPIM", "scale": 0.01},
            tenant="heavy",
            deadline_ms=DEADLINE_MS,
        )
        for i in range(heavy)
    ] + [
        Request(
            id=f"light-{i}",
            method="run",
            params={"workload": "bicg", "platform": "StPIM", "scale": 0.01},
            tenant="light",
            deadline_ms=DEADLINE_MS,
        )
        for i in range(light)
    ]
    socket_path = str(tmp_path / "fair.sock")
    # A batch coarser than 4 would dominate a window of ~2 * light
    # completions; DRR fairness itself is batch-agnostic.
    with serving(
        socket_path, tmp_path / "cache", "--max-batch", "4", workers=2
    ) as proc:
        responses, _ = pipelined_exchange(socket_path, requests)
        exit_code = drain(socket_path, proc)
    assert exit_code == 0, "server did not drain cleanly"
    window = [r["id"] for r in responses[: 2 * light]]
    index = jain(
        sum(1 for rid in window if rid.startswith(tenant))
        for tenant in ("heavy", "light")
    )
    record(record_property, jain=index, floor=0.9)
    assert index >= 0.9
