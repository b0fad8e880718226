"""Serving-layer integration tests: worker execution, grouping keys,
and a real end-to-end service over a unix socket.

The heavy chaos pass (forced worker kills, slow injection, p99 gate)
lives in ``tests/test_gates.py`` (``make gates``); here we keep
one small but *real* server round trip plus in-process coverage of the
worker-side typed-envelope mapping and the same-key grouping key.
"""

import asyncio
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.baselines import default_platforms
from repro.core.compile import compile_workload
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    GROUP_POLICY,
    PER_ITEM,
    SHARED,
    ErrorCode,
    ProtocolError,
    encode_message,
    group_key,
    parse_request,
)
from repro.serve.supervisor import (
    WorkerHandle,
    WorkerPool,
    execute_batch,
    execute_request,
)
from repro.workloads import find_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def run_request(method, params, deadline_ts=None, **options):
    options.setdefault("enable_debug_methods", True)
    return execute_request(method, params, deadline_ts, options)


class TestExecuteRequest:
    """The worker maps every failure to a typed code — no guessing."""

    def test_run_matches_inprocess_platform(self):
        envelope = run_request(
            "run", {"workload": "atax", "platform": "StPIM", "scale": 0.01}
        )
        assert envelope["ok"]
        spec = find_workload("atax", scale=0.01)
        stats = default_platforms()["StPIM"].run(spec)
        assert envelope["result"]["time_ns"] == stats.time_ns
        assert envelope["result"]["energy_pj"] == stats.energy.total_pj

    def test_unknown_workload_typed(self):
        envelope = run_request("run", {"workload": "nope"})
        assert not envelope["ok"]
        assert envelope["code"] == ErrorCode.UNKNOWN_WORKLOAD.value
        assert "nope" in envelope["message"]

    def test_unknown_platform_typed(self):
        envelope = run_request(
            "run", {"workload": "atax", "platform": "TPU", "scale": 0.01}
        )
        assert not envelope["ok"]
        assert envelope["code"] == ErrorCode.UNKNOWN_WORKLOAD.value

    def test_unknown_method_typed(self):
        envelope = run_request("frobnicate", {})
        assert envelope["code"] == ErrorCode.UNKNOWN_METHOD.value

    def test_debug_methods_gated_in_worker(self):
        envelope = execute_request(
            "x-fault", {}, None, {"enable_debug_methods": False}
        )
        assert envelope["code"] == ErrorCode.UNKNOWN_METHOD.value

    def test_injected_fault_typed(self):
        envelope = run_request("x-fault", {})
        assert envelope["code"] == ErrorCode.SIMULATION_FAULT.value

    def test_expired_deadline_cancels_cooperatively(self):
        envelope = run_request(
            "x-sleep", {"ms": 60000.0}, deadline_ts=time.time() - 1.0
        )
        assert envelope["code"] == ErrorCode.DEADLINE_EXCEEDED.value

    def test_compile_hits_cache_and_matches_local_sha(self, tmp_path):
        params = {"workload": "atax", "scale": 0.01, "seed": 7}
        cold = run_request("compile", params, cache_dir=str(tmp_path))
        warm = run_request("compile", params, cache_dir=str(tmp_path))
        assert cold["ok"] and warm["ok"]
        assert cold["result"]["cache_hit"] is False
        assert warm["result"]["cache_hit"] is True
        local = compile_workload(
            find_workload("atax", scale=0.01), seed=7, use_cache=False
        )
        sha = hashlib.sha256(local.trace.to_bytes()).hexdigest()
        assert cold["result"]["trace_sha256"] == sha
        assert warm["result"]["trace_sha256"] == sha


class TestExecuteBatch:
    """A dispatch's same-spec ``run`` items execute once; every member
    still gets its own envelope, its own deadline check, and a failed
    execution is never handed to the next member."""

    PARAMS = {"workload": "atax", "platform": "StPIM", "scale": 0.01}

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.serve import supervisor

        calls = []
        real = supervisor._do_run

        def counting(spec, deadline_ts):
            calls.append(spec)
            return real(spec, deadline_ts)

        monkeypatch.setattr(supervisor, "_do_run", counting)
        return calls

    def batch(self, *items):
        return list(
            execute_batch(
                [
                    {"id": rid, "method": "run", "params": params,
                     "deadline_ts": deadline_ts}
                    for rid, params, deadline_ts in items
                ],
                {},
            )
        )

    def test_same_spec_runs_execute_once(self, calls):
        other = dict(self.PARAMS, platform="StPIM-e")
        results = self.batch(
            ("r1", self.PARAMS, None),
            # Params the spec ignores do not change the work.
            ("r2", dict(self.PARAMS, note="ignored"), None),
            ("r3", other, None),
            ("r4", self.PARAMS, None),
        )
        assert [rid for rid, _ in results] == ["r1", "r2", "r3", "r4"]
        assert len(calls) == 2
        one_shot = run_request("run", self.PARAMS)
        assert one_shot["ok"]
        for rid, payload in results:
            expected = one_shot if rid != "r3" else run_request("run", other)
            assert payload == expected, rid

    def test_shared_run_rechecks_each_members_deadline(self, calls):
        results = dict(
            self.batch(
                ("r1", self.PARAMS, None),
                ("r2", self.PARAMS, time.time() - 1.0),
                ("r3", self.PARAMS, time.time() + 60.0),
            )
        )
        assert len(calls) == 1
        assert results["r1"]["ok"] and results["r3"] == results["r1"]
        assert results["r2"]["code"] == ErrorCode.DEADLINE_EXCEEDED.value

    def test_failed_run_is_not_reused(self, calls, monkeypatch):
        from repro.serve import supervisor

        counting = supervisor._do_run

        def flaky(spec, deadline_ts):
            if not calls:
                calls.append(spec)
                raise OSError("disk hiccup")
            return counting(spec, deadline_ts)

        monkeypatch.setattr(supervisor, "_do_run", flaky)
        results = dict(
            self.batch(
                ("r1", self.PARAMS, None),
                ("r2", self.PARAMS, None),
                ("r3", self.PARAMS, None),
            )
        )
        assert results["r1"]["code"] == ErrorCode.CACHE_IO.value
        assert results["r2"]["ok"] and results["r3"] == results["r2"]
        assert len(calls) == 2  # the failure, then one shared run

    def test_other_methods_each_execute_and_junk_is_skipped(self):
        sleep = {"ms": 1.0}
        results = list(
            execute_batch(
                [
                    {"id": rid, "method": "x-sleep", "params": sleep}
                    for rid in ("a", "b")
                ]
                + ["not an item"],
                {"enable_debug_methods": True},
            )
        )
        assert [rid for rid, _ in results] == ["a", "b"]
        assert all(payload["ok"] for _, payload in results)


class TestCoalesceKey:
    """The typed spec is the same-key grouping key (compile coalescing
    shares one result; run grouping shares one dispatch)."""

    def _compile_req(self, rid="r", **params):
        merged = {"workload": "atax", "scale": 0.01, "seed": 7}
        merged.update(params)
        return parse_request(
            {"id": rid, "method": "compile", "params": merged}
        )

    def test_only_compile_coalesces(self):
        assert GROUP_POLICY == {"compile": SHARED, "run": PER_ITEM}
        run = parse_request(
            {"id": "r", "method": "run", "params": {"workload": "atax"}}
        )
        assert group_key(run.spec) != group_key(self._compile_req().spec)

    def test_identical_compiles_share_a_key(self):
        a = group_key(self._compile_req("r1").spec)
        b = group_key(self._compile_req("r2").spec)
        assert a is not None and a == b and hash(a) == hash(b)
        # Omitted params take the compile defaults.
        bare = parse_request(
            {"id": "r3", "method": "compile", "params": {"workload": "atax"}}
        )
        assert group_key(bare.spec) == a

    @pytest.mark.parametrize(
        "variant",
        [{"seed": 8}, {"scale": 0.02}, {"workload": "bicg"}, {"deep": True}],
    )
    def test_different_work_gets_different_keys(self, variant):
        assert (
            group_key(self._compile_req(**variant).spec)
            != group_key(self._compile_req().spec)
        )

    def test_no_cache_never_coalesces(self):
        assert group_key(self._compile_req(no_cache=True).spec) is None

    def test_unresolvable_params_never_coalesce(self):
        # Malformed params never reach a key: they are rejected at
        # parse time, before any dispatch.
        with pytest.raises(ProtocolError) as excinfo:
            self._compile_req(scale="abc")
        assert excinfo.value.code is ErrorCode.INVALID_REQUEST


def start_server(socket_path, cache_dir, *flags, workers=2):
    """Start ``repro-streampim serve`` on a unix socket.

    Returns the server process once it answers a ping; ``flags`` are
    extra ``serve`` options.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_STREAMPIM_CACHE_DIR"] = str(cache_dir)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            str(workers),
            "--cache-dir",
            str(cache_dir),
            *flags,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.time() + 30.0
    while True:
        try:
            with ServeClient(socket_path=socket_path, timeout_s=2.0) as c:
                if c.ping().ok:
                    return proc
        except Exception:
            if proc.poll() is not None:
                raise RuntimeError("server died during startup")
            if time.time() > deadline:
                proc.kill()
                raise RuntimeError("server did not come up in 30s")
            time.sleep(0.1)


@pytest.fixture(scope="class")
def live_server(tmp_path_factory):
    """One real service (2 workers) on a unix socket for the class."""
    root = tmp_path_factory.mktemp("serve")
    socket_path = str(root / "serve.sock")
    proc = start_server(socket_path, root / "cache")
    yield socket_path, proc
    if proc.poll() is None:
        proc.terminate()
        proc.wait(timeout=15)


class TestEndToEnd:
    def test_run_over_socket_is_bit_identical(self, live_server):
        socket_path, _ = live_server
        with ServeClient(socket_path=socket_path, timeout_s=60.0) as client:
            response = client.call(
                "run",
                {"workload": "atax", "platform": "StPIM", "scale": 0.01},
            )
        assert response.ok
        stats = default_platforms()["StPIM"].run(
            find_workload("atax", scale=0.01)
        )
        assert response.result["time_ns"] == stats.time_ns

    def test_compile_over_socket_warm_hit(self, live_server):
        socket_path, _ = live_server
        params = {"workload": "bicg", "scale": 0.01, "seed": 7}
        with ServeClient(socket_path=socket_path, timeout_s=120.0) as client:
            cold = client.call("compile", params)
            warm = client.call("compile", params)
        assert cold.ok and warm.ok
        assert warm.result["cache_hit"] is True
        assert warm.result["trace_sha256"] == cold.result["trace_sha256"]

    def test_typed_error_crosses_the_wire(self, live_server):
        socket_path, _ = live_server
        with ServeClient(socket_path=socket_path, timeout_s=30.0) as client:
            response = client.call("run", {"workload": "nope"})
        assert not response.ok
        assert response.error.code is ErrorCode.UNKNOWN_WORKLOAD
        assert not response.error.retryable

    def test_debug_methods_rejected_without_chaos(self, live_server):
        socket_path, _ = live_server
        with ServeClient(socket_path=socket_path, timeout_s=30.0) as client:
            response = client.call("x-crash", {})
        assert response.error.code is ErrorCode.UNKNOWN_METHOD

    def test_one_shot_cli_clients_do_not_collide(self, live_server):
        # Regression: the server's exactly-once ledger spans
        # connections, so auto-generated request ids must be unique
        # across *processes* — two fresh CLI invocations used to both
        # count "c1" and the second was rejected as a duplicate.
        socket_path, _ = live_server
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "client",
                    "run",
                    "--socket",
                    socket_path,
                    "--workload",
                    "atax",
                    "--scale",
                    "0.01",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stats_and_clean_drain(self, live_server):
        socket_path, proc = live_server
        with ServeClient(socket_path=socket_path, timeout_s=30.0) as client:
            stats = client.stats()
            assert stats.ok
            assert stats.result["pool"]["size"] == 2
            assert stats.result["core"]["dead_letters"] == 0
            # Every worker-method request from the earlier tests got
            # exactly one answer.
            assert stats.result["core"]["responded"] >= 4
            assert stats.result["latency_ms"]["p99"] is not None
            assert client.drain().ok
        assert proc.wait(timeout=30) == 0


# ----------------------------------------------------------------------
# Review regressions: route-table integrity, tick resilience, torn pipes
# ----------------------------------------------------------------------
class FakeWriter:
    """Collects written lines like a StreamWriter (no socket)."""

    def __init__(self):
        self.chunks = []

    def write(self, data):
        self.chunks.append(data)

    def messages(self):
        return [
            json.loads(line)
            for chunk in self.chunks
            for line in chunk.splitlines()
        ]


def make_server(tmp_path):
    from repro.serve.server import ServeConfig, SimulationServer

    return SimulationServer(
        ServeConfig(socket_path=str(tmp_path / "s.sock"), workers=1)
    )


class TestRouteTable:
    def test_duplicate_id_cannot_steal_pending_route(self, tmp_path):
        # Regression: a duplicate of a still-pending id used to
        # overwrite the original's route and then pop it when the
        # duplicate's rejection was delivered, silently dropping the
        # original client's response (any connection could suppress
        # another's pending response by sending its id).
        server = make_server(tmp_path)
        victim, attacker = FakeWriter(), FakeWriter()
        line = encode_message(
            {
                "id": "r1",
                "method": "run",
                "params": {"workload": "atax", "scale": 0.01},
            }
        )
        server._handle_line(line, victim)  # queued: no workers running
        assert server._routes["r1"] is victim
        server._handle_line(line, attacker)
        (rejection,) = attacker.messages()
        assert rejection["error"]["code"] == "INVALID_REQUEST"
        # The original's route and pending state are untouched.
        assert server._routes["r1"] is victim
        assert victim.messages() == []
        assert server.core.unresolved_count == 1

    def test_pending_response_still_delivered_after_duplicate(
        self, tmp_path
    ):
        server = make_server(tmp_path)
        victim, attacker = FakeWriter(), FakeWriter()
        line = encode_message(
            {
                "id": "r1",
                "method": "run",
                "params": {"workload": "atax", "scale": 0.01},
            }
        )
        server._handle_line(line, victim)
        server._handle_line(line, attacker)
        # The worker resolves the original: it must reach the victim.
        server.core.register_worker("w1", time.time())
        server._apply(
            server.core.worker_result(
                "w1", "r1", {"ok": True, "result": {"x": 1}}, time.time()
            )
        )
        (resp,) = victim.messages()
        assert resp["ok"] and resp["result"] == {"x": 1}
        assert "r1" not in server._routes


class TestTickLoopResilience:
    def test_tick_survives_poll_exceptions(self, tmp_path):
        # Regression: an unexpected exception from pool.poll() killed
        # the tick task silently, wedging the whole service.
        server = make_server(tmp_path)

        def boom(now):
            raise RuntimeError("unpicklable pipe junk")

        server.pool.poll = boom

        async def run():
            task = asyncio.get_running_loop().create_task(
                server._tick_loop()
            )
            await asyncio.sleep(0.1)
            alive = not task.done()
            server._stopped.set()
            await task
            return alive

        assert asyncio.run(run())
        assert server.registry.counter("serve.tick.errors").value >= 2


class _ThreadedServer:
    """An in-process SimulationServer on its own thread and event loop.

    One worker and a 1 s tick: with a single worker, nothing but its
    own pipe (and the core's timers) can wake the loop before the tick,
    so anything answered well inside a second was delivered on an
    event, not by the periodic tick.
    """

    TICK_S = 1.0

    def __init__(self, root, **core):
        from repro.serve.core import CoreConfig
        from repro.serve.server import ServeConfig

        self.socket_path = str(root / "s.sock")
        self.config = ServeConfig(
            socket_path=self.socket_path,
            workers=1,
            tick_interval_s=self.TICK_S,
            cache_dir=str(root / "cache"),
            core=CoreConfig(**core),
        )
        self.server = None
        self.error = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),), daemon=True
        )

    async def _main(self):
        from repro.serve.server import SimulationServer

        try:
            self.server = SimulationServer(self.config)
            await self.server.start()
        except BaseException as exc:  # surfaced by __enter__
            self.error = exc
            raise
        finally:
            self._started.set()
        await self.server.serve_forever()

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(30.0) and self.error is None
        # Boot the worker (spawn + imports) outside any timing.
        warm = self.call("run", {"workload": "atax", "scale": 0.01})
        assert warm.ok, warm.error
        return self

    def __exit__(self, *exc_info):
        with ServeClient(socket_path=self.socket_path, timeout_s=30.0) as c:
            c.drain()
        self._thread.join(30.0)
        assert not self._thread.is_alive()

    def call(self, method, params, timeout_s=60.0):
        with ServeClient(
            socket_path=self.socket_path, timeout_s=timeout_s
        ) as client:
            return client.call(method, params)

    def timed_calls(self, method, params, count=5):
        """Seconds taken by ``count`` sequential calls, all of which
        succeed.  Were every answer held until the next tick, each call
        would wait for a tick of its own: about (count - 1) ticks."""
        start = time.monotonic()
        for _ in range(count):
            response = self.call(method, params)
            assert response.ok, response.error
        return time.monotonic() - start


class TestEventDrivenDelivery:
    """Results and linger expiries are handled on their own events; the
    tick interval is only the liveness ceiling."""

    RUN = {"workload": "atax", "platform": "StPIM", "scale": 0.01}

    def test_result_needs_no_tick(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("evt")
        with _ThreadedServer(root) as served:
            assert served.timed_calls("run", self.RUN) < served.TICK_S

    def test_lone_partial_group_dispatches_at_linger_expiry(
        self, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("evt")
        with _ThreadedServer(
            root, max_batch=2, batch_linger_s=0.05
        ) as served:
            # Each call is a partial group of one: it waits out the
            # 50 ms linger and no longer.
            assert served.timed_calls("run", self.RUN) < served.TICK_S
            assert served.server.core.batch_dispatches == 0

    def test_replacement_worker_is_watched(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("evt")
        with _ThreadedServer(
            root, enable_debug_methods=True, max_redeliveries=0
        ) as served:
            before = set(served.server.pool.workers)
            start = time.monotonic()
            crash = served.call("x-crash", {})
            # The dead pipe's EOF wakes the loop, not the tick.
            assert time.monotonic() - start < served.TICK_S
            assert crash.error.code is ErrorCode.DEAD_LETTER
            # Boot the replacement, then time its results.
            assert served.call("x-sleep", {"ms": 1.0}).ok
            after = set(served.server.pool.workers)
            assert after and not after & before
            assert served.timed_calls("x-sleep", {"ms": 1.0}) < (
                served.TICK_S
            )
            assert served.timed_calls("run", self.RUN) < served.TICK_S


class TestWorkerPoolTornPipe:
    def test_undecodable_pipe_data_is_a_crash(self):
        # Regression: only EOFError/OSError were treated as a broken
        # pipe; a worker SIGKILLed mid-send leaves a torn pickle that
        # recv() raises UnpicklingError on, which leaked out of poll().
        class TornConn:
            def poll(self, timeout):
                return True

            def recv(self):
                raise pickle.UnpicklingError("torn frame")

            def close(self):
                pass

        class FakeProc:
            pid = 4242

            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass

            def kill(self):
                pass

        pool = WorkerPool(size=1)
        handle = WorkerHandle(
            worker_id="w1",
            process=FakeProc(),
            conn=TornConn(),
            spawned_at=0.0,
            last_heartbeat=0.0,
            generation=1,
        )
        handle.start_done.set()
        handle.running = True
        pool.workers["w1"] = handle
        try:
            events = pool.poll(1.0)
            exits = [e for e in events if e[0] == "exit"]
            assert exits == [("exit", "w1", "crash")]
            # A replacement was spawned to restore the roster.
            assert [e[0] for e in events if e[0] == "ready"] == ["ready"]
            assert pool.restarts == 1
        finally:
            pool.shutdown()
