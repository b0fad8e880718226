"""Supervised multiprocess worker pool and the worker-side executor.

The pool owns real OS processes; the :class:`~repro.serve.core.ServiceCore`
only ever sees their lifecycle as events.  Supervision contract:

* every worker sends **heartbeats** on its pipe; a worker whose
  heartbeat goes stale is presumed wedged, killed, and replaced;
* a worker that **dies** (crash, kill, OOM) is detected via
  ``Process.is_alive``/pipe EOF, reported as an ``exit`` event (the
  core re-queues its in-flight request), and immediately **respawned**;
* workers are interchangeable — no request state lives in them beyond
  the single message they are currently executing.

Worker-side execution is *cooperatively cancellable*: every request
carries an absolute ``deadline_ts``, and the executor checks it at
phase boundaries (before lookup, after task build, after compile, and
inside sleep loops), returning a typed ``DEADLINE_EXCEEDED`` instead of
burning time past the deadline.  Failures map to the typed
:class:`~repro.serve.protocol.ErrorCode` set: verifier findings and
:class:`~repro.sim.errors.SimulationFault` are deterministic
(non-retryable), cache I/O errors are transient (server-retryable).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.serve.protocol import ErrorCode, ProtocolError, work_spec
from repro.workloads.request import (
    CompileSpec,
    RunSpec,
    UnknownWorkloadError,
    compile_spec,
    resolve,
    run_spec,
)

#: Environment override for the multiprocessing start method
#: ("spawn" is the safe default alongside an asyncio loop).
MP_CONTEXT_ENV = "REPRO_SERVE_MP_CONTEXT"


@dataclass(frozen=True)
class WorkerOptions:
    """Per-worker execution settings (picklable; crosses the spawn)."""

    heartbeat_interval_s: float = 0.2
    cache_dir: Optional[str] = None
    enable_debug_methods: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "cache_dir": self.cache_dir,
            "enable_debug_methods": self.enable_debug_methods,
        }


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _DeadlineExpired(Exception):
    """Raised at a cooperative cancellation point past the deadline."""


def _check_deadline(deadline_ts: Optional[float]) -> None:
    if deadline_ts is not None and time.time() >= deadline_ts:
        raise _DeadlineExpired()


def _do_run(spec: RunSpec, deadline_ts: Optional[float]):
    """Analytic platform run (:func:`~repro.workloads.request.run_spec`)."""
    workload = resolve(spec)
    _check_deadline(deadline_ts)
    result = run_spec(spec, workload)
    _check_deadline(deadline_ts)
    return result


def _do_compile(
    spec: CompileSpec,
    deadline_ts: Optional[float],
    options: Dict[str, object],
):
    """Cached trace compilation with crash-safe in-flight tracking."""
    from repro.isa.trace_cache import InflightTracker

    workload = resolve(spec)
    _check_deadline(deadline_ts)
    cache_dir = options.get("cache_dir")
    compiled = compile_spec(
        spec,
        workload,
        cache_dir=cache_dir,
        inflight=None if spec.no_cache else InflightTracker(cache_dir),
    )
    _check_deadline(deadline_ts)
    return {
        "workload": workload.name,
        "scale": spec.scale,
        "seed": spec.seed,
        "pim_vpcs": int(compiled.trace.stats.pim_vpcs),
        "move_vpcs": int(compiled.trace.stats.move_vpcs),
        "commands": len(compiled.trace),
        "cache_key": compiled.cache_key,
        "cache_hit": compiled.cache_hit,
        "trace_sha256": hashlib.sha256(compiled.trace.to_bytes()).hexdigest(),
    }


def _do_debug(
    method: str,
    params: Dict[str, object],
    deadline_ts: Optional[float],
):
    """Chaos-bench helpers: crash, slow request, injected fault."""
    from repro.sim.errors import SimulationFault

    if method == "x-crash":
        # A real crash, not an exception: the supervisor must detect
        # the death and the core must redeliver the in-flight work.
        os._exit(17)
    if method == "x-sleep":
        duration = float(params.get("ms", 100.0)) / 1000.0
        end = time.time() + duration
        while time.time() < end:
            _check_deadline(deadline_ts)
            time.sleep(min(0.025, max(0.0, end - time.time())))
        return {"slept_ms": duration * 1000.0}
    raise SimulationFault("injected chaos fault", index=0)


def _deadline_envelope() -> Dict[str, object]:
    return {
        "ok": False,
        "code": ErrorCode.DEADLINE_EXCEEDED.value,
        "message": "deadline passed; execution cancelled cooperatively",
    }


def execute_batch(
    items: Iterable[object], options: Dict[str, object]
) -> Iterator[Tuple[object, Dict[str, object]]]:
    """Execute one dispatch's items in order, yielding ``(id, envelope)``.

    A dispatch is one group's members (a lone request is a list of
    one).  ``run`` is deterministic, so a ``run`` whose spec equals
    an earlier item's *successful* run is not executed again: it is
    answered with that envelope, unless its own deadline has passed
    (``DEADLINE_EXCEEDED``).  A failed run is never reused; the next
    member with its spec executes on its own.
    """
    runs: Dict[RunSpec, Dict[str, object]] = {}
    for item in items:
        if not isinstance(item, dict):
            continue
        method = str(item.get("method", ""))
        params = item.get("params") or {}
        deadline_ts = item.get("deadline_ts")
        spec = None
        if method == "run":
            try:
                spec = work_spec(method, params)
            except ProtocolError:
                pass  # execute_request answers INVALID_REQUEST
        payload = runs.get(spec) if spec is not None else None
        if payload is None:
            payload = execute_request(method, params, deadline_ts, options)
            if spec is not None and payload.get("ok"):
                runs[spec] = payload
        elif deadline_ts is not None and time.time() >= deadline_ts:
            payload = _deadline_envelope()
        yield item.get("id"), payload


def execute_request(
    method: str,
    params: Dict[str, object],
    deadline_ts: Optional[float],
    options: Dict[str, object],
) -> Dict[str, object]:
    """Execute one request; always returns a ``{"ok": ...}`` envelope.

    Every failure is mapped to a typed code here, in the worker, so the
    core never has to guess what an exception string meant.  ``run`` and
    ``compile`` params go through :func:`~repro.serve.protocol.work_spec`,
    the same validator the server applies at parse time.
    """
    from repro.sim.errors import SimulationFault
    from repro.verify.trace_verifier import TraceVerificationError

    try:
        _check_deadline(deadline_ts)
        if method == "run":
            result = _do_run(work_spec(method, params), deadline_ts)
        elif method == "compile":
            result = _do_compile(
                work_spec(method, params), deadline_ts, options
            )
        elif method in ("x-crash", "x-sleep", "x-fault"):
            if not options.get("enable_debug_methods"):
                return {
                    "ok": False,
                    "code": ErrorCode.UNKNOWN_METHOD.value,
                    "message": f"debug method {method!r} is disabled",
                }
            result = _do_debug(method, params, deadline_ts)
        else:
            return {
                "ok": False,
                "code": ErrorCode.UNKNOWN_METHOD.value,
                "message": f"unknown method {method!r}",
            }
        return {"ok": True, "result": result}
    except ProtocolError as exc:
        return {"ok": False, "code": exc.code.value, "message": str(exc)}
    except _DeadlineExpired:
        return _deadline_envelope()
    except UnknownWorkloadError as exc:
        return {
            "ok": False,
            "code": ErrorCode.UNKNOWN_WORKLOAD.value,
            "message": str(exc),
        }
    except TraceVerificationError as exc:
        return {
            "ok": False,
            "code": ErrorCode.VERIFY_FAILED.value,
            "message": "deep dataflow verification failed",
            "detail": {
                "findings": [
                    f"{d.rule_id}: {d.message}"
                    for d in exc.report.diagnostics[:8]
                ]
            },
        }
    except SimulationFault as exc:
        return {
            "ok": False,
            "code": ErrorCode.SIMULATION_FAULT.value,
            "message": str(exc),
        }
    except OSError as exc:
        # Transient cache / filesystem trouble: the server retries
        # this with backoff before a client ever sees it.
        return {
            "ok": False,
            "code": ErrorCode.CACHE_IO.value,
            "message": f"cache I/O failed: {exc}",
        }
    except Exception as exc:  # pragma: no cover - defensive catch-all
        return {
            "ok": False,
            "code": ErrorCode.INTERNAL.value,
            "message": f"{type(exc).__name__}: {exc}",
            "detail": {
                "traceback": traceback.format_exc(limit=4),
            },
        }


def _worker_main(
    worker_id: str, conn, options: Dict[str, object]
) -> None:  # pragma: no cover - runs in a child process
    """Worker loop: recv request, execute, send result, heartbeat."""
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(message: Dict[str, object]) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                os._exit(1)

    def heartbeat() -> None:
        interval = float(options.get("heartbeat_interval_s", 0.2))
        while not stop.wait(interval):
            send({"type": "hb", "worker": worker_id})

    threading.Thread(target=heartbeat, daemon=True).start()
    send({"type": "hb", "worker": worker_id})
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(message, dict):
            continue
        if message.get("type") == "stop":
            break
        if message.get("type") != "batch":
            continue
        # Every dispatch is a list of items (a lone request is a list
        # of one): execute them on the warm process and demultiplex one
        # result message per item, so every client still receives its
        # own typed envelope.  Results stream out as they finish — an
        # early item's client is answered before the last item starts.
        for request_id, payload in execute_batch(
            message.get("items") or [], options
        ):
            send({"type": "result", "id": request_id, "payload": payload})
    stop.set()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """One supervised worker process.

    ``process.start()`` runs on a short-lived thread (a spawn-context
    start is a fork+exec plus a module re-import in the child — easily
    100ms+, far too long to block the asyncio tick loop).  Until
    ``start_done`` is set the handle is exempt from liveness and
    heartbeat checks; dispatched messages simply buffer in the pipe.
    """

    worker_id: str
    process: multiprocessing.process.BaseProcess
    conn: object
    spawned_at: float
    last_heartbeat: float
    generation: int
    start_done: threading.Event = field(default_factory=threading.Event)
    start_error: Optional[BaseException] = None
    #: Set by poll() on the first look after start completes (resets
    #: the heartbeat clock so startup time is not counted as silence).
    running: bool = False
    #: A kill arrived while start() was still in flight; poll() and
    #: the graveyard re-issue it once the process exists.
    kill_requested: bool = False


#: Pool events: ("ready", worker_id) / ("exit", worker_id, reason) /
#: ("result", worker_id, request_id, payload).
PoolEvent = Tuple


@dataclass
class WorkerPool:
    """Spawns, monitors, kills and replaces worker processes.

    Consumers call :meth:`poll` when a worker pipe is readable and at
    least periodically (liveness and heartbeats); it drains worker
    pipes and turns process lifecycle into events for the service core.
    The pool always restores itself to ``size`` live workers.
    """

    size: int = 2
    options: WorkerOptions = field(default_factory=WorkerOptions)
    heartbeat_timeout_s: float = 5.0
    context: Optional[str] = None

    workers: Dict[str, WorkerHandle] = field(default_factory=dict)
    restarts: int = 0
    _spawned: int = 0
    _ctx: object = None
    #: Replaced workers awaiting a non-blocking reap (join(0) per poll).
    _graveyard: List[WorkerHandle] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"pool size must be >= 1, got {self.size}")
        method = self.context or os.environ.get(MP_CONTEXT_ENV) or "spawn"
        self._ctx = multiprocessing.get_context(method)

    # ------------------------------------------------------------------
    def start(self, now: float) -> List[str]:
        """Spawn the initial roster; returns the worker ids."""
        ids = []
        for _ in range(self.size):
            ids.append(self._spawn(now).worker_id)
        return ids

    def _spawn(self, now: float) -> WorkerHandle:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, child_conn, self.options.to_dict()),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        handle = WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            spawned_at=now,
            last_heartbeat=now,
            generation=self._spawned,
        )

        def _start() -> None:
            # The child's copy of the pipe end must stay open in this
            # process until start() has duplicated it.
            try:
                process.start()
            except BaseException as exc:
                handle.start_error = exc
            finally:
                try:
                    child_conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.start_done.set()

        threading.Thread(
            target=_start, daemon=True, name=f"spawn-{worker_id}"
        ).start()
        self.workers[worker_id] = handle
        return handle

    # ------------------------------------------------------------------
    def dispatch(self, worker_id: str, message: Dict[str, object]) -> bool:
        """Send one request message; False if the worker is unreachable."""
        handle = self.workers.get(worker_id)
        if handle is None:
            return False
        try:
            handle.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def kill(self, worker_id: str) -> None:
        """Forcibly terminate a worker (poll() reports the exit)."""
        handle = self.workers.get(worker_id)
        if handle is None:
            return
        handle.kill_requested = True
        if not handle.start_done.is_set():
            return  # re-issued by poll()/reap once start() returns
        try:
            handle.process.kill()
        except (OSError, AttributeError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    def poll(self, now: float) -> List[PoolEvent]:
        """Drain pipes and process-lifecycle changes into events."""
        events: List[PoolEvent] = []
        self._reap_graveyard()
        for worker_id, handle in list(self.workers.items()):
            if not handle.start_done.is_set():
                # Still forking on the spawn thread: no pid to check,
                # no heartbeat expected yet.
                continue
            if handle.start_error is not None:
                events.extend(self._replace(worker_id, now, "spawn"))
                continue
            if not handle.running:
                handle.running = True
                handle.last_heartbeat = now
            if handle.kill_requested:
                # A kill raced the spawn thread; land it now that the
                # process exists (is_alive below reports the exit).
                try:
                    handle.process.kill()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
            broken = False
            try:
                while handle.conn.poll(0):
                    message = handle.conn.recv()
                    if not isinstance(message, dict):
                        continue
                    handle.last_heartbeat = now
                    if message.get("type") == "result":
                        events.append(
                            (
                                "result",
                                worker_id,
                                str(message.get("id")),
                                message.get("payload") or {},
                            )
                        )
            except (EOFError, OSError):
                broken = True
            except Exception:
                # A worker SIGKILLed mid-send leaves a torn pickle on
                # the pipe (UnpicklingError and friends from recv()):
                # the channel is unusable, treat it as a crash.
                broken = True
            if broken or not handle.process.is_alive():
                events.extend(self._replace(worker_id, now, "crash"))
                continue
            if now - handle.last_heartbeat > self.heartbeat_timeout_s:
                # Wedged: alive but silent.  Kill and replace; the
                # graveyard reaps the corpse on later polls.
                self.kill(worker_id)
                events.extend(self._replace(worker_id, now, "heartbeat"))
        return events

    def _replace(
        self, worker_id: str, now: float, reason: str
    ) -> List[PoolEvent]:
        handle = self.workers.pop(worker_id, None)
        if handle is None:
            return []
        # The pipe closes on the next poll, not now: a caller watching
        # worker pipes for readiness (the asyncio server) first stops
        # watching this one, so its descriptor number cannot be reused
        # by a new pipe while it is still registered.
        self._graveyard.append(handle)
        self.restarts += 1
        replacement = self._spawn(now)
        return [
            ("exit", worker_id, reason),
            ("ready", replacement.worker_id),
        ]

    def _reap_graveyard(self) -> None:
        """join(0) replaced workers; never blocks the event loop."""
        survivors: List[WorkerHandle] = []
        for handle in self._graveyard:
            try:
                handle.conn.close()  # idempotent
            except OSError:  # pragma: no cover
                pass
            if not handle.start_done.is_set():
                survivors.append(handle)  # cannot join mid-start
                continue
            if handle.start_error is not None:
                continue  # never became a process; nothing to reap
            handle.process.join(timeout=0)
            if handle.process.is_alive():
                if handle.kill_requested:
                    try:
                        handle.process.kill()
                    except (OSError, AttributeError):  # pragma: no cover
                        pass
                survivors.append(handle)
        self._graveyard = survivors

    # ------------------------------------------------------------------
    def shutdown(self, timeout_s: float = 2.0) -> None:
        """Stop every worker: polite message, then the hammer."""
        for handle in self.workers.values():
            try:
                handle.conn.send({"type": "stop"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.time() + timeout_s
        for handle in self.workers.values():
            handle.start_done.wait(
                timeout=max(0.0, deadline - time.time())
            )
            if handle.start_done.is_set() and handle.start_error is None:
                handle.process.join(
                    timeout=max(0.0, deadline - time.time())
                )
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.workers.clear()
        for handle in self._graveyard:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            if handle.start_done.is_set() and handle.start_error is None:
                if handle.process.is_alive():
                    handle.process.kill()
                handle.process.join(timeout=1.0)
        self._graveyard.clear()

    def snapshot(self, now: float) -> Dict[str, object]:
        return {
            "size": self.size,
            "restarts": self.restarts,
            "workers": {
                worker_id: {
                    "pid": (
                        handle.process.pid
                        if handle.start_done.is_set()
                        else None
                    ),
                    "alive": (
                        handle.start_done.is_set()
                        and handle.start_error is None
                        and handle.process.is_alive()
                    ),
                    "starting": not handle.start_done.is_set(),
                    "heartbeat_age_s": round(
                        max(0.0, now - handle.last_heartbeat), 3
                    ),
                }
                for worker_id, handle in sorted(self.workers.items())
            },
        }
