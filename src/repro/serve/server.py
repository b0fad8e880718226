"""The asyncio shell around the service core and the worker pool.

One event loop owns everything: socket accept/readers, the tick loop
that drains worker-pool events and advances the core's clock, and the
drain sequence.  The tick loop is event-driven: it runs when a worker
pipe turns readable, when the core's next linger expiry or retry
backoff (:meth:`~repro.serve.core.ServiceCore.next_wake`) is due, and
at least every ``tick_interval_s`` for heartbeats, liveness and
deadlines.  All decisions live in
:class:`~repro.serve.core.ServiceCore`; this module only moves bytes
and executes the actions the core returns, so the failure semantics
exercised by the property tests are exactly what runs in production.

Lifecycle: ``SIGTERM``/``SIGINT`` (or the ``drain`` control method)
stop the listener, let accepted work finish within
``drain_timeout_s``, answer anything still unresolved with a typed
``DRAINING`` error, shut the pool down, and exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.serve.core import (
    CoreConfig,
    Dispatch,
    KillWorker,
    Respond,
    ServiceCore,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    Request,
    Response,
    ServeError,
    decode_line,
    encode_message,
    group_key,
    parse_request,
)
from repro.serve.supervisor import WorkerOptions, WorkerPool

logger = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class ServeConfig:
    """Everything the ``repro-streampim serve`` command can tune."""

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    #: Bind an additional stdlib HTTP/REST frontend
    #: (:mod:`repro.serve.http`) when not None; 0 picks a free port.
    http_port: Optional[int] = None
    http_host: str = "127.0.0.1"
    workers: int = 2
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Longest the event loop sleeps without a worker-pipe or timer
    #: event: bounds heartbeat/liveness checks and deadline expiry.
    tick_interval_s: float = 0.02
    drain_timeout_s: float = 10.0
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 5.0
    cache_dir: Optional[str] = None
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.socket_path is None and self.host is None:
            raise ValueError(
                "serve needs a unix socket path or a host/port"
            )


class SimulationServer:
    """Long-lived simulation service over a unix socket / localhost TCP."""

    def __init__(
        self,
        config: ServeConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else MetricsRegistry()
        self.core = ServiceCore(config.core, registry=self.registry)
        self.pool = WorkerPool(
            size=config.workers,
            options=WorkerOptions(
                heartbeat_interval_s=config.heartbeat_interval_s,
                cache_dir=config.cache_dir,
                enable_debug_methods=config.core.enable_debug_methods,
            ),
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            context=config.mp_context,
        )
        self.started_at = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._stopped = asyncio.Event()
        # Set by worker pipe readiness, a submit that needs an earlier
        # wake-up, and drain; the tick loop runs once per wake.
        self._wake = asyncio.Event()
        self._wake_at = float("inf")  # when the tick loop next runs
        self._quiescent = asyncio.Event()  # drained: nothing pending
        self._watched: Dict[str, int] = {}  # worker id -> pipe fd
        # Request id -> response sink: a StreamWriter (line protocol)
        # or a plain callable taking the Response (HTTP adapter).
        self._routes: Dict[str, object] = {}
        self._writers: set = set()
        self._http = None  # HttpFrontend when http_port is configured

    # ------------------------------------------------------------------
    @property
    def endpoint(self) -> str:
        if self.config.socket_path is not None:
            return f"unix:{self.config.socket_path}"
        return f"tcp:{self.config.host}:{self.bound_port}"

    @property
    def bound_port(self) -> int:
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_endpoint(self) -> Optional[str]:
        if self._http is None:
            return None
        return f"http://{self.config.http_host}:{self._http.bound_port}"

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn workers, bind the socket, start ticking."""
        now = time.time()
        self.started_at = now
        for worker_id in self.pool.start(now):
            self._apply(self.core.register_worker(worker_id, now))
        if self.config.socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.socket_path,
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
        if self.config.http_port is not None:
            from repro.serve.http import HttpFrontend

            self._http = HttpFrontend(self)
            await self._http.start(
                self.config.http_host, self.config.http_port
            )
        self._tick_task = asyncio.get_running_loop().create_task(
            self._tick_loop()
        )

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, self.request_drain)

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain()
            )

    async def serve_forever(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    async def _tick_loop(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            while not self._stopped.is_set():
                # Clear before polling: readiness that arrives while
                # the tick runs wakes the next wait at once.
                self._wake.clear()
                wake = None
                try:
                    self._tick_once(time.time())
                    wake = self.core.next_wake(time.time())
                except Exception:
                    # The tick is the service's heartbeat: if it dies
                    # the server accepts connections but never
                    # dispatches or expires anything.  Log and keep
                    # ticking — the pool treats any worker whose pipe
                    # misbehaves as crashed, so a single bad event
                    # cannot wedge the loop.
                    self.registry.counter("serve.tick.errors").inc()
                    logger.exception("serve tick failed; continuing")
                if self.core.draining and self.core.is_quiescent():
                    self._quiescent.set()
                # Sleep until a worker pipe turns readable, a submit or
                # drain asks for a tick, the core's next linger expiry
                # or backoff, or at most one tick interval.
                now = time.time()
                self._wake_at = now + self.config.tick_interval_s
                if wake is not None:
                    self._wake_at = min(self._wake_at, wake)
                timer = loop.call_later(
                    max(0.0, self._wake_at - now), self._wake.set
                )
                try:
                    await self._wake.wait()
                finally:
                    timer.cancel()
        finally:
            for fd in self._watched.values():
                loop.remove_reader(fd)
            self._watched.clear()

    def _tick_once(self, now: float) -> None:
        try:
            events = self.pool.poll(now)
        finally:
            self._watch_workers()
        for event in events:
            kind = event[0]
            if kind == "ready":
                self._apply(self.core.register_worker(event[1], now))
            elif kind == "exit":
                self.registry.counter("serve.worker.restarts").inc()
                self._apply(
                    self.core.worker_exit(event[1], now, reason=event[2])
                )
            elif kind == "result":
                self._apply(
                    self.core.worker_result(
                        event[1], event[2], event[3], now
                    )
                )
        self._apply(self.core.tick(now))

    def _watch_workers(self) -> None:
        """Wake the tick loop when any live worker's pipe is readable.

        Re-synced after every poll: replaced workers stop being watched
        (the pool closes their pipes on its next poll) and their
        replacements are watched from spawn, so the first result of a
        new worker needs no tick either.
        """
        loop = asyncio.get_running_loop()
        live = {
            worker_id: handle.conn.fileno()
            for worker_id, handle in self.pool.workers.items()
        }
        for worker_id, fd in list(self._watched.items()):
            if live.get(worker_id) != fd:
                loop.remove_reader(fd)
                del self._watched[worker_id]
        for worker_id, fd in live.items():
            if worker_id not in self._watched:
                loop.add_reader(fd, self._wake.set)
                self._watched[worker_id] = fd

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionResetError,
                ):
                    break
                except asyncio.CancelledError:
                    # Loop teardown after drain: end the handler
                    # normally so asyncio's connection callback does
                    # not log the cancellation as an error.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._handle_line(line, writer)
                with contextlib.suppress(ConnectionResetError):
                    await writer.drain()
        finally:
            self._writers.discard(writer)
            dead = [
                rid for rid, w in self._routes.items() if w is writer
            ]
            for rid in dead:
                # The client vanished: the core still resolves the
                # request (exactly-once internally); the response is
                # simply undeliverable.
                self._routes[rid] = None  # type: ignore[assignment]
            with contextlib.suppress(Exception):
                writer.close()

    def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        now = time.time()
        try:
            obj = decode_line(line)
            request = parse_request(obj)
        except ProtocolError as exc:
            request_id = ""
            if isinstance(line, bytes):
                try:
                    raw = decode_line(line[:MAX_LINE_BYTES])
                    if isinstance(raw.get("id"), str):
                        request_id = raw["id"]
                except ProtocolError:
                    pass
            self._write(
                writer,
                Response.failure(
                    request_id, ServeError(exc.code, str(exc))
                ),
            )
            return
        if request.method == "ping":
            self._write(
                writer,
                Response.success(
                    request.id,
                    {
                        "pong": True,
                        "draining": self.core.draining,
                        "uptime_s": round(now - self.started_at, 3),
                    },
                ),
            )
            return
        if request.method == "stats":
            self._write(
                writer, Response.success(request.id, self.stats(now))
            )
            return
        if request.method == "drain":
            self.request_drain()
            self._write(
                writer, Response.success(request.id, {"draining": True})
            )
            return
        self.submit_request(request, writer, now)

    def submit_request(
        self, request: Request, sink: object, now: float
    ) -> None:
        """Route + submit one parsed worker-method request.

        ``request`` comes from :func:`~repro.serve.protocol.parse_request`;
        its typed spec is the same-key grouping key
        (:func:`~repro.serve.protocol.group_key`), so identical compiles
        share one result and identical runs share one dispatch.

        ``sink`` receives the eventual response: a StreamWriter for the
        line protocol, or any callable taking a
        :class:`~repro.serve.protocol.Response` (the HTTP adapter
        passes a future-resolving closure).  Shared by both frontends
        so they get identical duplicate-id and exactly-once semantics.
        """
        if request.id in self._routes:
            # A response for this id is still owed to some client
            # (possibly on another connection).  Registering this
            # sink would overwrite the original's route and let the
            # duplicate's rejection pop it, silently dropping the
            # original response — so answer the duplicate directly
            # without touching the routing table.
            self.registry.counter("serve.requests.duplicate_id").inc()
            self._deliver(
                sink,
                Response.failure(
                    request.id,
                    ServeError(
                        ErrorCode.INVALID_REQUEST,
                        f"duplicate request id {request.id!r} "
                        "(a response for it is still pending)",
                    ),
                ),
            )
            return
        self._routes[request.id] = sink
        self._apply(
            self.core.submit(request, now, group_key=group_key(request.spec))
        )
        wake = self.core.next_wake(now)
        if wake is not None and wake < self._wake_at:
            # A new partial group's linger ends before the tick loop's
            # planned wake-up: wake it now so it plans again.
            self._wake.set()

    # ------------------------------------------------------------------
    def _apply(self, actions: List[object]) -> None:
        for action in actions:
            if isinstance(action, Respond):
                sink = self._routes.pop(action.response.id, None)
                if sink is not None:
                    self._deliver(sink, action.response)
            elif isinstance(action, Dispatch):
                if not self.pool.dispatch(action.worker_id, action.message):
                    # The worker died between poll and dispatch; the
                    # exit event will requeue via the normal path on
                    # the next poll, because the core still holds the
                    # request as in-flight on that worker.
                    self.registry.counter(
                        "serve.dispatch.to_dead_worker"
                    ).inc()
            elif isinstance(action, KillWorker):
                self.registry.counter("serve.worker.kills").inc()
                self.pool.kill(action.worker_id)

    def _deliver(self, sink: object, response: Response) -> None:
        """Hand ``response`` to a route sink of either frontend."""
        if callable(sink) and not hasattr(sink, "write"):
            try:
                sink(response)
            except Exception:  # pragma: no cover - defensive
                self.registry.counter("serve.sink.errors").inc()
        else:
            self._write(sink, response)

    def _write(
        self, writer: Optional[asyncio.StreamWriter], response: Response
    ) -> None:
        if writer is None:
            return
        try:
            writer.write(encode_message(response.to_dict()))
        except (ConnectionResetError, RuntimeError):
            pass

    # ------------------------------------------------------------------
    def stats(self, now: float) -> Dict[str, object]:
        latency = self.registry.histogram("serve.latency_ms")
        snapshot = {
            "core": self.core.snapshot(now),
            "pool": self.pool.snapshot(now),
            "latency_ms": {
                "count": latency.count,
                "p50": latency.percentile(50.0),
                "p99": latency.percentile(99.0),
                "max": latency.max,
            },
            "metrics": self.registry.snapshot(),
            "uptime_s": round(now - self.started_at, 3),
        }
        return snapshot

    # ------------------------------------------------------------------
    async def _drain(self) -> None:
        now = time.time()
        self.core.begin_drain(now)
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        if self._http is not None:
            # Stop accepting HTTP connections; requests already routed
            # keep their sinks and are answered by the drain sweep.
            await self._http.stop_listening()
        # Draining makes lingering groups ready: tick now, and finish
        # on the tick that resolves the last pending request.
        deadline = now + self.config.drain_timeout_s
        self._wake.set()
        if self.core.is_quiescent():
            self._quiescent.set()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._quiescent.wait(), max(0.0, deadline - time.time())
            )
        self._apply(self.core.abort_remaining(time.time()))
        for writer in list(self._writers):
            with contextlib.suppress(ConnectionResetError):
                await writer.drain()
        self._stopped.set()
        if self._tick_task is not None:
            self._tick_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._tick_task
        self.pool.shutdown()
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()


async def _amain(config: ServeConfig, ready_line: bool = True) -> int:
    server = SimulationServer(config)
    await server.start()
    server.install_signal_handlers()
    if ready_line:
        http = server.http_endpoint
        print(
            f"repro-streampim serve: listening on {server.endpoint}"
            + (f" and {http}" if http else "")
            + f" ({config.workers} workers)",
            flush=True,
        )
    await server.serve_forever()
    if ready_line:
        print("repro-streampim serve: drained, bye", flush=True)
    return 0


def run_server(config: ServeConfig) -> int:
    """Blocking entry point used by the CLI."""
    return asyncio.run(_amain(config))
