"""The ``serve`` workload: an open loop against ``repro-streampim serve``.

A server with two workers listens on a private unix socket.  One client
process with two connections sends a seeded request mix at one fixed
rate, in pairs due together so that same-key run requests batch, and
times each request from when it was due, so a stall in the
generator or the server charges its wait to every request behind it.
The load runs as consecutive passes of the same mix; as for the items
of a batch workload, latencies are taken from the fastest pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    Outcomes,
    SetupProbes,
    kill_tree,
    ref_kernel_ms,
    schedule,
    tail,
    tree_peak_rss_mb,
)
from tracing import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
CONNECTIONS = 2
#: Offered load, near half the measured two-worker capacity (README.md).
RATE_PER_S = 70.0
#: Requests due at the same instant; a run pair shares its key.
BURST = 2
#: Largest batch, and how long a partial one waits for its peer.
MAX_BATCH = 2
BATCH_LINGER_MS = 5.0
#: Length of one pass of the open loop.
PASS_SECONDS = 4.0
RUN_KERNELS = ("atax", "bicg", "gesu", "mvt")
RUN_PLATFORMS = ("StPIM", "StPIM-e")
RUN_SCALE = 0.1
COMPILE_SCALE = 0.01
#: Compile seed whose traces set-up warms into the server's cache.
WARM_SEED = 7
DEADLINE_MS = 30000.0

Entry = Tuple[str, Dict[str, object]]


def plan(rng: random.Random, count: int, used: set) -> List[Entry]:
    """One pass of the seeded request mix, in blocks of five pairs.

    The two requests of a pair are due together.  Four pairs each repeat
    one run key, so that the server batches them; the four keys alternate
    between two halves of the eight run keys from block to block.  The
    fifth pair is one compile of a key warmed in set-up and one compile
    with a fresh seed, which writes the cache.  The seed only orders the
    pairs of each block and picks the fresh seeds, so every pass of every
    run does the same work.
    """
    keys = [(w, p) for w in RUN_KERNELS for p in RUN_PLATFORMS]
    half = len(keys) // 2
    entries: List[Entry] = []
    block = 0
    while len(entries) < count:
        kernel = RUN_KERNELS[block % len(RUN_KERNELS)]
        fresh = WARM_SEED
        while fresh == WARM_SEED or fresh in used:
            fresh = rng.randrange(1, 2**31)
        used.add(fresh)
        start = (block % 2) * half
        pairs: List[List[Entry]] = [
            [("run", {"workload": w, "platform": p, "scale": RUN_SCALE})] * BURST
            for w, p in keys[start : start + half]
        ]
        pairs.append(
            [
                ("compile", {"workload": kernel, "scale": COMPILE_SCALE, "seed": WARM_SEED}),
                ("compile", {"workload": kernel, "scale": COMPILE_SCALE, "seed": fresh}),
            ]
        )
        rng.shuffle(pairs)
        for pair in pairs:
            entries.extend(pair)
        block += 1
    return entries[:count]


def pool_warm(stats: Dict[str, object]) -> bool:
    """True once every worker process has started and imported."""
    workers = stats.get("pool", {}).get("workers", {})
    return bool(workers) and all(
        w.get("alive") and not w.get("starting") for w in workers.values()
    )


class Server:
    """A ``repro-streampim serve`` process on a private unix socket."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        # Relative to the checkout: unix socket paths are capped at 108 bytes.
        self.socket_path = str(root / "serve.sock")
        self._log = open(root / "server.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", self.socket_path,
                "--workers", str(WORKERS),
                "--max-batch", str(MAX_BATCH),
                "--batch-linger-ms", str(BATCH_LINGER_MS),
                "--queue-limit", "512",
                # Admission runs on every request; the bucket sits above
                # the offered load, so it refuses none.
                "--tenant-rate", str(2 * RATE_PER_S),
                "--tenant-burst", "100",
                "--drain-timeout", "30",
                "--cache-dir", str(root / "cache"),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def call(self, method: str, params=None, timeout_s: float = 60.0):
        from repro.serve.client import ServeClient

        with ServeClient(socket_path=self.socket_path, timeout_s=timeout_s) as client:
            return client.call(method, params)

    def stats(self) -> Dict[str, object]:
        response = self.call("stats")
        if not response.ok:
            raise RuntimeError(f"stats failed: {response.error}")
        return response.result

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        from repro.serve.client import ServeClientError

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited during start-up (code {self.process.returncode})"
                )
            if os.path.exists(self.socket_path):
                try:
                    if pool_warm(self.stats()):
                        return
                except ServeClientError:
                    pass
            time.sleep(0.02)
        raise RuntimeError(f"server not ready within {timeout_s:.0f} s")

    def stop(self) -> int:
        """Drain, wait for the exit and return its code (-9: killed)."""
        from repro.serve.client import ServeClientError

        if self.process.poll() is None:
            try:
                self.call("drain", timeout_s=10.0)
            except ServeClientError:
                pass
            try:
                self.process.wait(timeout=40.0)
            except subprocess.TimeoutExpired:
                kill_tree(self.process.pid)
                self.process.wait()
        self._log.close()
        return self.process.returncode


def open_loop(socket_path: str, entries: List[Entry], run_id: str):
    """Send ``entries`` at :data:`RATE_PER_S` over two connections.

    Returns the timed requests and the decoded replies (None: missing).
    """
    from repro.serve.protocol import Request as WireRequest
    from repro.serve.protocol import encode_message

    payloads = [
        encode_message(
            WireRequest(
                id=f"{run_id}-{i}", method=method, params=params, deadline_ms=DEADLINE_MS
            ).to_dict()
        )
        for i, (method, params) in enumerate(entries)
    ]
    replies: List[Optional[dict]] = [None] * len(entries)
    conns = []
    for _ in range(CONNECTIONS):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(socket_path)
        conns.append(conn)
    requests = schedule(time.perf_counter() + 0.05, RATE_PER_S, len(entries), BURST)
    lock = threading.Lock()
    left = [len(entries)]
    done = threading.Event()

    def read(conn: socket.socket) -> None:
        buffer = b""
        while True:
            try:
                chunk = conn.recv(65536)
            except OSError:
                return
            if not chunk:
                return
            now = time.perf_counter()
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                reply = json.loads(line)
                try:
                    index = int(str(reply.get("id")).rpartition("-")[2])
                except ValueError:
                    continue
                with lock:
                    if not 0 <= index < len(replies) or replies[index] is not None:
                        continue
                    replies[index] = reply
                    requests[index].arrived = now
                    left[0] -= 1
                    if left[0] == 0:
                        done.set()

    readers = [threading.Thread(target=read, args=(conn,), daemon=True) for conn in conns]
    for reader in readers:
        reader.start()
    try:
        for request, payload in zip(requests, payloads):
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conns[request.index % CONNECTIONS].sendall(payload)
            request.sent = time.perf_counter()
        done.wait(timeout=DEADLINE_MS / 1000.0 + 10.0)
    finally:
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        for reader in readers:
            reader.join(timeout=5.0)
    return requests, replies


class ReplyChecker:
    """Expected replies, from the same requests run in this process."""

    def __init__(self) -> None:
        from repro.baselines import default_platforms

        self.platforms = default_platforms()
        self.runs: Dict[tuple, tuple] = {}
        self.traces: Dict[tuple, str] = {}

    def expected(self, method: str, params: Dict[str, object]) -> tuple:
        from repro.core.compile import compile_workload
        from repro.workloads import find_workload

        if method == "run":
            key = (params["workload"], params["platform"])
            if key not in self.runs:
                spec = find_workload(key[0], scale=RUN_SCALE)
                stats = self.platforms[key[1]].run(spec)
                self.runs[key] = (stats.time_ns, stats.energy.total_pj)
            return self.runs[key]
        key = (params["workload"], params["seed"])
        if key not in self.traces:
            spec = find_workload(key[0], scale=COMPILE_SCALE)
            compiled = compile_workload(spec, seed=key[1], use_cache=False)
            self.traces[key] = hashlib.sha256(compiled.trace.to_bytes()).hexdigest()
        return (self.traces[key], key[1] == WARM_SEED)

    def check(self, entries, requests, replies, outcomes: Outcomes) -> None:
        for request, (method, params), reply in zip(requests, entries, replies):
            label = f"request {request.index} ({method} {params['workload']})"
            if reply is None:
                outcomes.record(False, f"{label}: no reply")
            elif not reply.get("ok"):
                outcomes.record(False, f"{label}: {reply.get('error')}")
            else:
                result = reply["result"]
                got = (
                    (result["time_ns"], result["energy_pj"])
                    if method == "run"
                    else (result["trace_sha256"], result["cache_hit"])
                )
                request.ok = outcomes.check(label, got, self.expected(method, params))


def batch_mean(before: Dict[str, object], after: Dict[str, object]) -> float:
    """Requests per worker dispatch between two ``stats`` snapshots."""

    def counters(stats):
        core = stats["core"]
        return core["responded"], core["batch"]["batched_requests"], core["batch"]["dispatches"]

    served, batched, batches = (a - b for a, b in zip(counters(after), counters(before)))
    dispatches = served - batched + batches
    return served / dispatches if dispatches else 0.0


def rejected(stats: Dict[str, object]) -> float:
    return float(sum(stats["core"]["admission"]["rejected"].values()))


def in_process_ms(entries: List[Entry], cache_dir: Path) -> float:
    """Median time of ``entries`` run in this process, on a cache warmed
    like the server's: the execution share of a served request."""
    from repro.serve.supervisor import execute_request

    options = {"cache_dir": str(cache_dir)}
    for kernel in RUN_KERNELS:
        execute_request(
            "compile", {"workload": kernel, "scale": COMPILE_SCALE, "seed": WARM_SEED}, None, options
        )
    for method, params in entries:  # the first calls import the run path
        if method == "run":
            execute_request(method, dict(params), None, options)
    times = []
    for method, params in entries:
        start = time.perf_counter()
        execute_request(method, dict(params), None, options)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


class ServeWorkload:
    name = "serve"

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.server = Server(scratch / "server")
        self.server.wait_ready()
        self._warm()
        self.before = self.server.stats()

    def _warm(self) -> None:
        """Compile the keys later requests hit and run every run key, from
        two clients at once so that both workers import the run path."""
        entries = [
            ("compile", {"workload": k, "scale": COMPILE_SCALE, "seed": WARM_SEED})
            for k in RUN_KERNELS
        ] + [
            ("run", {"workload": w, "platform": p, "scale": RUN_SCALE})
            for w in RUN_KERNELS
            for p in RUN_PLATFORMS
        ]
        failures: List[str] = []

        def drive() -> None:
            try:
                for method, params in entries:
                    if not self.server.call(method, params).ok:
                        failures.append(f"{method} {params}")
            except Exception as exc:  # reported below, in the main thread
                failures.append(repr(exc))

        threads = [threading.Thread(target=drive) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise RuntimeError(f"warm-up failed: {failures[:3]}")

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()

    def measure(self, seconds: float, traced: bool, probes: SetupProbes) -> dict:
        rng = random.Random(self.seed)
        used: set = set()
        count = int(RATE_PER_S * PASS_SECONDS)
        passes = []
        ref_ms = []
        for index in range(max(1, round(seconds / PASS_SECONDS))):
            probes.between_passes()
            entries = plan(rng, count, used)
            requests, replies = open_loop(self.server.socket_path, entries, f"p{index}")
            passes.append((entries, requests, replies))
            ref_ms.append(ref_kernel_ms())
        after = self.server.stats()
        peak_rss_mb = tree_peak_rss_mb(self.server.process.pid)
        exit_code = self.server.stop()

        outcomes = Outcomes()
        checker = ReplyChecker()
        for entries, requests, replies in passes:
            checker.check(entries, requests, replies, outcomes)
        outcomes.record(exit_code == 0, f"server exit code {exit_code} after drain")

        medians, tails = [], []
        for _, requests, _ in passes:
            latencies = [min(r.latency_ms, DEADLINE_MS) for r in requests]
            medians.append(statistics.median(latencies))
            tails.append(tail(latencies))
        fastest_tail = min(tails, key=lambda t: t.value)
        everything = [r for _, requests, _ in passes for r in requests]
        done = [r for r in everything if r.ok]
        window = sum(
            max((r.arrived for r in requests if r.ok), default=requests[0].due)
            - requests[0].due
            for _, requests, _ in passes
        )
        server_ms = after["latency_ms"]["p50"]
        rtt_ms = (
            statistics.median((r.arrived - r.sent) * 1000.0 for r in done) if done else 0.0
        )
        layers = {
            "serve.client_rtt_ms": rtt_ms,
            "serve.server_latency_ms": server_ms,
            "serve.transport_ms": rtt_ms - server_ms,
            "serve.batch_mean": batch_mean(self.before, after),
            "serve.rejected": rejected(after) - rejected(self.before),
            "serve.generator_late_ms": max(
                r.late_ms for r in everything if r.sent is not None
            ),
            "host.ref_kernel_ms": statistics.median(ref_ms),
        }
        if traced:
            exec_ms = in_process_ms(passes[0][0][:20], self.scratch / "local-cache")
            layers["serve.exec_ms"] = exec_ms
            layers["serve.queue_ipc_ms"] = server_ms - exec_ms
            self._write_spans(passes)
        return {
            "end_to_end": {
                "latency_ms": min(medians),
                "latency_tail_ms": fastest_tail.value,
                "work_per_s": len(done) / window if window > 0 else 0.0,
                "peak_rss_mb": peak_rss_mb,
            },
            "per_layer": layers,
            "outcomes": outcomes,
            "parts": {
                "pass_p50_ms": medians,
                "pass_tail_ms": [t.value for t in tails],
                "completed": len(done),
                "window_s": window,
                "peak_rss_mb": peak_rss_mb,
            },
            "notes": [
                f"{len(passes)} passes of {count} requests at {RATE_PER_S:g}/s over "
                f"{CONNECTIONS} connections to {WORKERS} workers; latency from due "
                f"time, fastest pass (pass p50s: "
                + ", ".join(f"{m:.2f}" for m in medians)
                + " ms)",
                f"latency_tail_ms is p{fastest_tail.percentile:.1f} of "
                f"{fastest_tail.samples} requests ({fastest_tail.beyond} beyond)",
            ],
        }

    def _write_spans(self, passes) -> None:
        """Client-side request spans, built from the load's timestamps."""
        tracer = Tracer()
        for index, (_, requests, _) in enumerate(passes):
            for request in requests:
                if request.sent is None or request.arrived is None:
                    continue
                tracer.spans.append(
                    Span(
                        len(tracer.spans),
                        "serve.request",
                        int(request.sent * 1e9),
                        int(request.arrived * 1e9),
                        None,
                        f"p{index}-{request.index}",
                    )
                )
        tracer.write(ROOT / ".perfbench" / "spans" / f"serve-seed{self.seed}.json")
