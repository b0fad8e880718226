"""The service core: a pure state machine over requests and workers.

Everything that makes the service *robust* lives here — admission,
deadlines, bounded retry with backoff, crash redelivery with a
dead-letter bound, same-key grouping, circuit breaking, drain — as a
single deterministic state machine with **no I/O, no clock, no
randomness**.  The asyncio server (:mod:`repro.serve.server`)
translates real events (socket lines, worker pipe messages, process
exits, timer ticks) into calls on this class and executes the returned
:class:`Action` list; a stateful property test drives the same calls
with a virtual clock and a fake pool and asserts the invariants below
over arbitrary interleavings.

Invariants the core maintains (and tests assert):

* every submitted request is answered **exactly once** — with a result
  or a typed :class:`~repro.serve.protocol.ErrorCode` — no matter how
  worker deaths, deadline expiries, retries and drain interleave; the
  supporting id ledger is LRU-bounded (``responded_ledger_limit``), so
  client retries must use fresh ids;
* a request past its deadline is never dispatched, and an in-flight
  request past ``deadline + hang_grace`` gets its worker killed and a
  ``DEADLINE_EXCEEDED`` answer;
* a crashed worker's requests are redelivered at most
  ``max_redeliveries`` times each, then answered with ``DEAD_LETTER``;
  one unexpected death counts one breaker failure per workload class
  it held;
* requests submitted with equal ``group_key`` join one **group**, and a
  group is one entry of the fair queue and one worker dispatch.  The
  method's :data:`~repro.serve.protocol.GROUP_POLICY` decides what the
  group shares: a ``shared`` group (``compile``) runs only its oldest
  member and answers everyone with that result, its other members
  never appear in a dispatch, keep their own deadlines, and the oldest
  is promoted if the runner fails terminally; a ``per-item`` group
  (``run``) carries up to ``max_batch`` members, each with its own
  deadline, attempt budget and response (the worker executes their
  common spec once), and may not dispatch while partial until
  ``batch_linger_s`` after its first member arrived, the wake-up
  :meth:`ServiceCore.next_wake` reports;
* queued groups are served **deficit-round-robin across tenants**
  (:mod:`repro.serve.scheduling`), and every dispatched member is
  charged to its own tenant: while N tenants are backlogged each
  receives ~1/N of the dispatches, so one tenant's burst adds no
  queueing delay to another tenant's admitted requests.
"""

from __future__ import annotations

import heapq
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.serve.admission import AdmissionController
from repro.serve.scheduling import DeficitRoundRobin
from repro.serve.protocol import (
    DEBUG_METHODS,
    GROUP_POLICY,
    SHARED,
    WORKER_METHODS,
    ErrorCode,
    Request,
    Response,
    ServeError,
)
from repro.serve.retry import BreakerBoard, RetryPolicy


@dataclass(frozen=True)
class CoreConfig:
    """Tuning knobs of the service core (all durations in seconds)."""

    #: Accepted-but-unstarted bound; 0 disables queuing entirely
    #: (every request must find an idle worker immediately).
    queue_limit: int = 64
    tenant_rate: float = 50.0
    tenant_burst: float = 100.0
    #: Most requests one ``per-item`` group (one worker dispatch) may
    #: carry (1 disables batching).  Only requests sharing a
    #: ``group_key`` are grouped; each keeps its own deadline, attempts
    #: and response envelope, and the worker runs their spec once.
    max_batch: int = 1
    #: How long a partial ``per-item`` group waits for more members
    #: after its first one arrived (0 = never hold work back).
    batch_linger_s: float = 0.0
    #: Deficit granted per tenant per round of the fair scheduler.
    drr_quantum: float = 1.0
    default_deadline_s: float = 30.0
    max_deadline_s: float = 300.0
    #: Extra time an in-flight request may run past its deadline before
    #: the worker is presumed hung and killed (cooperative cancellation
    #: should have returned ``DEADLINE_EXCEEDED`` long before this).
    hang_grace_s: float = 2.0
    #: Crash redeliveries per request before it dead-letters.
    max_redeliveries: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    #: Most recent request ids remembered by the exactly-once ledger
    #: (LRU on response order).  Reusing an id while it is remembered
    #: is rejected with ``INVALID_REQUEST``; clients must retry with
    #: fresh ids.  Bounded so a long-lived service does not grow a
    #: per-request memory footprint forever.
    responded_ledger_limit: int = 8192
    #: Most recent dead-letter records kept for ``stats`` (the total
    #: count is tracked separately and never resets).
    dead_letter_limit: int = 256
    #: Honour chaos/debug methods (``x-crash``/``x-sleep``/``x-fault``).
    enable_debug_methods: bool = False

    def __post_init__(self) -> None:
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.batch_linger_s < 0:
            raise ValueError(
                f"batch_linger_s must be >= 0, got {self.batch_linger_s}"
            )
        if self.drr_quantum <= 0:
            raise ValueError(
                f"drr_quantum must be positive, got {self.drr_quantum}"
            )
        if self.tenant_rate <= 0 or self.tenant_burst <= 0:
            raise ValueError(
                "tenant_rate and tenant_burst must be positive, got "
                f"{self.tenant_rate}/{self.tenant_burst}"
            )
        if not 0 < self.default_deadline_s <= self.max_deadline_s:
            raise ValueError(
                "need 0 < default_deadline_s <= max_deadline_s, got "
                f"{self.default_deadline_s}/{self.max_deadline_s}"
            )
        if self.hang_grace_s < 0:
            raise ValueError(
                f"hang_grace_s must be >= 0, got {self.hang_grace_s}"
            )
        if self.max_redeliveries < 0:
            raise ValueError(
                f"max_redeliveries must be >= 0, got "
                f"{self.max_redeliveries}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError(
                f"breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive, got "
                f"{self.breaker_cooldown_s}"
            )
        if self.responded_ledger_limit < 1:
            raise ValueError(
                f"responded_ledger_limit must be >= 1, got "
                f"{self.responded_ledger_limit}"
            )
        if self.dead_letter_limit < 1:
            raise ValueError(
                f"dead_letter_limit must be >= 1, got "
                f"{self.dead_letter_limit}"
            )


# ----------------------------------------------------------------------
# Actions the surrounding I/O layer executes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Respond:
    """Deliver ``response`` to the client that sent ``request``."""

    response: Response
    tenant: str = "default"


@dataclass(frozen=True)
class Dispatch:
    """Send ``message`` to worker ``worker_id``."""

    worker_id: str
    message: Dict[str, object]


@dataclass(frozen=True)
class KillWorker:
    """Forcibly terminate a worker (hang / overdue in-flight work)."""

    worker_id: str
    reason: str


Action = object


@dataclass
class _Pending:
    """Book-keeping for one accepted, not-yet-answered request."""

    request: Request
    submitted_at: float
    deadline: float
    key: Optional[Hashable] = None  # same-key grouping key
    group: Optional["_Group"] = None  # while its group waits or is shared
    attempts: int = 0  # dispatches performed
    redeliveries: int = 0  # crash-caused re-queues
    not_before: float = 0.0  # backoff gate


@dataclass
class _Group:
    """Same-key requests behind one fair-queue entry and one dispatch.

    ``members`` are request ids in arrival order; a shared group's
    runner is its first member.  A per-item group dissolves when it
    dispatches; a shared group lives until it has no members left.
    """

    gid: str
    key: Optional[Hashable]
    shared: bool
    members: List[str]


class ServiceCore:
    """Deterministic request/worker state machine (see module doc)."""

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or CoreConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.admission = AdmissionController(
            queue_limit=self.config.queue_limit,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.retry = self.config.retry
        self.draining = False

        self._pending: Dict[str, _Pending] = {}
        # Deficit-round-robin fair queue across tenants; its items are
        # group ids.
        self._queue = DeficitRoundRobin(quantum=self.config.drr_quantum)
        # Groups not yet dispatched (lingering, or in ``_queue``), in
        # arrival order, and the groups new same-key requests join.
        self._waiting: Dict[str, _Group] = {}
        self._open: Dict[Hashable, _Group] = {}
        self._group_seq = 0
        self._delayed: List[Tuple[float, int, str]] = []  # heap
        self._delayed_seq = 0
        # Worker -> the (possibly batched) request ids it is executing.
        self._inflight: Dict[str, List[str]] = {}
        self._idle: "OrderedDict[str, None]" = OrderedDict()
        self._doomed: set = set()  # killed workers whose exit is pending
        # Exactly-once ledger: request id -> outcome, LRU-bounded at
        # ``responded_ledger_limit`` so a long-lived service does not
        # remember every id forever (clients must retry with fresh
        # ids; see docs/serving.md).  Ids of *pending* requests are
        # never in here, so eviction cannot cause a double response.
        self._responded: "OrderedDict[str, str]" = OrderedDict()
        self.responded_total = 0
        self.dead_letters = deque(maxlen=self.config.dead_letter_limit)
        self.dead_letter_total = 0
        #: Multi-request dispatches performed / requests they carried.
        self.batch_dispatches = 0
        self.batched_requests = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Accepted-but-unstarted requests (queued + in backoff).

        A shared group counts once: only its runner will execute.
        """
        queued = sum(
            1 if group.shared else len(group.members)
            for group in self._waiting.values()
        )
        return queued + len(self._delayed)

    @property
    def inflight_count(self) -> int:
        return sum(len(held) for held in self._inflight.values())

    @property
    def unresolved_count(self) -> int:
        return len(self._pending)

    def is_quiescent(self) -> bool:
        """No accepted work left anywhere (drain can complete)."""
        return not self._pending

    def outcome(self, request_id: str) -> Optional[str]:
        """How ``request_id`` was answered ("ok" or an error code).

        None for never-seen ids and for ids evicted from the bounded
        ledger (older than the last ``responded_ledger_limit``
        responses).
        """
        return self._responded.get(request_id)

    def _record_outcome(self, request_id: str, outcome: str) -> None:
        self._responded[request_id] = outcome
        self.responded_total += 1
        while len(self._responded) > self.config.responded_ledger_limit:
            self._responded.popitem(last=False)

    def snapshot(self, now: float) -> Dict[str, object]:
        """Operational state for the ``stats`` control method."""
        return {
            "queue_depth": self.queue_depth,
            "inflight": self.inflight_count,
            "idle_workers": len(self._idle),
            "draining": self.draining,
            "responded": self.responded_total,
            "responded_ledger": len(self._responded),
            "dead_letters": self.dead_letter_total,
            "admission": self.admission.snapshot(now),
            "breakers": self.breakers.snapshot(now),
            "scheduler": self._scheduler_snapshot(),
            "batch": {
                "max_batch": self.config.max_batch,
                "linger_s": self.config.batch_linger_s,
                "dispatches": self.batch_dispatches,
                "batched_requests": self.batched_requests,
            },
        }

    def _scheduler_snapshot(self) -> Dict[str, object]:
        """The fair queue's entries (groups) and the requests behind them.

        ``depth``/``tenants`` count queue entries; ``requests`` and
        ``tenant_requests`` count their members, each under its own
        tenant (the tenant its dispatch is charged to).
        """
        snapshot = self._queue.snapshot()
        tenants = Counter(
            self._pending[request_id].request.tenant
            for gid in self._queue.items()
            for request_id in self._waiting[gid].members
        )
        snapshot["requests"] = sum(tenants.values())
        snapshot["tenant_requests"] = dict(sorted(tenants.items()))
        return snapshot

    # ------------------------------------------------------------------
    # Worker roster
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, now: float) -> List[Action]:
        """A (re)spawned worker is ready for dispatch."""
        self._doomed.discard(worker_id)
        self._idle[worker_id] = None
        return self._dispatch_ready(now)

    def worker_exit(
        self, worker_id: str, now: float, reason: str = "crash"
    ) -> List[Action]:
        """A worker died (crash, hang kill, or deliberate kill).

        Every in-flight request it held (one, or a whole batch) is
        re-queued with backoff, up to ``max_redeliveries`` each, after
        which it is answered with ``DEAD_LETTER`` and recorded in
        :attr:`dead_letters`.
        """
        actions: List[Action] = []
        self._idle.pop(worker_id, None)
        was_doomed = worker_id in self._doomed
        self._doomed.discard(worker_id)
        held = [
            rid
            for rid in self._inflight.pop(worker_id, [])
            if rid in self._pending
        ]
        if not held:
            return actions
        if not was_doomed:
            # Unexpected death while holding work: breaker food — one
            # failure per workload class lost, not per batched request
            # (a single death must not trip a breaker N times over).
            for workload_class in dict.fromkeys(
                self._pending[rid].request.workload_class for rid in held
            ):
                self.breakers.breaker(workload_class).record_failure(now)
        for request_id in held:
            pending = self._pending[request_id]
            self.registry.counter("serve.worker.lost_inflight").inc()
            pending.redeliveries += 1
            if pending.redeliveries > self.config.max_redeliveries:
                record = {
                    "request_id": request_id,
                    "method": pending.request.method,
                    "workload_class": pending.request.workload_class,
                    "redeliveries": pending.redeliveries - 1,
                    "last_worker": worker_id,
                    "reason": reason,
                }
                self.dead_letters.append(record)
                self.dead_letter_total += 1
                self.registry.counter("serve.dead_letters").inc()
                actions.extend(
                    self._respond_error(
                        request_id,
                        ErrorCode.DEAD_LETTER,
                        f"request redelivered "
                        f"{pending.redeliveries - 1} time(s) after worker "
                        f"{reason}; giving up",
                        now,
                        detail=record,
                    )
                )
                continue
            self.registry.counter("serve.redeliveries").inc()
            self._schedule_retry(pending, now)
        return actions

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        now: float,
        group_key: Optional[Hashable] = None,
    ) -> List[Action]:
        """Accept, group, or fast-reject one request.

        Requests with equal ``group_key`` share one dispatch, as the
        method's :data:`~repro.serve.protocol.GROUP_POLICY` says (the
        server passes the request's
        :func:`~repro.serve.protocol.group_key`).  Equal keys
        must mean equal work, method included, as equal specs do.
        ``None`` always dispatches alone.
        """
        self.registry.counter("serve.requests.submitted").inc()
        if request.id in self._pending or request.id in self._responded:
            # A duplicate id would break response correlation; reject
            # the duplicate without touching the original.
            return [
                Respond(
                    Response.failure(
                        request.id,
                        ServeError(
                            ErrorCode.INVALID_REQUEST,
                            f"duplicate request id {request.id!r}",
                        ),
                    ),
                    tenant=request.tenant,
                )
            ]
        if self.draining:
            return self._reject(
                request, ErrorCode.DRAINING, "service is draining", now
            )
        allowed = WORKER_METHODS | (
            DEBUG_METHODS if self.config.enable_debug_methods else frozenset()
        )
        if request.method not in allowed:
            return self._reject(
                request,
                ErrorCode.UNKNOWN_METHOD,
                f"unknown method {request.method!r}",
                now,
            )
        breaker = self.breakers.breaker(request.workload_class)
        if not breaker.allow(now):
            self.registry.counter("serve.breaker.rejected").inc()
            return self._reject(
                request,
                ErrorCode.CIRCUIT_OPEN,
                f"circuit open for {request.workload_class!r}",
                now,
            )
        code = self.admission.admit(
            request.tenant,
            self.queue_depth,
            now,
            idle_workers=len(self._idle),
        )
        if code is not None:
            self.registry.counter("serve.admission.rejected").inc()
            self.registry.counter(
                f"serve.admission.rejected.{code.value.lower()}"
            ).inc()
            return self._reject(
                request, code, f"admission rejected: {code.value}", now
            )

        deadline_s = (
            min(request.deadline_ms / 1000.0, self.config.max_deadline_s)
            if request.deadline_ms is not None
            else self.config.default_deadline_s
        )
        pending = _Pending(
            request=request,
            submitted_at=now,
            deadline=now + deadline_s,
            key=group_key,
        )
        self._pending[request.id] = pending
        if self._enqueue(pending) and pending.group.shared:
            self.registry.counter("serve.coalesced").inc()
            return []
        self._gauges()
        return self._dispatch_ready(now)

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    def worker_result(
        self,
        worker_id: str,
        request_id: str,
        payload: Dict[str, object],
        now: float,
    ) -> List[Action]:
        """A worker finished a request (successfully or not).

        ``payload`` is the worker's ``{"ok": bool, ...}`` envelope.
        Results for already-answered requests (deadline fired first,
        worker was being killed) are dropped — exactly-once wins.
        """
        actions: List[Action] = []
        held = self._inflight.get(worker_id)
        if held is not None and request_id in held:
            held.remove(request_id)
            if not held:
                # Last item of the (possibly batched) dispatch done.
                del self._inflight[worker_id]
                if worker_id not in self._doomed:
                    self._idle[worker_id] = None
        pending = self._pending.get(request_id)
        if pending is None:
            self.registry.counter("serve.responses.stale_dropped").inc()
            actions.extend(self._dispatch_ready(now))
            return actions
        breaker = self.breakers.breaker(pending.request.workload_class)
        if payload.get("ok"):
            # Any completed round-trip proves the worker healthy, so
            # the breaker heals even on typed failures below.
            breaker.record_success(now)
            result = payload.get("result")
            actions.extend(
                self._respond_success(
                    request_id,
                    result if isinstance(result, dict) else {},
                    now,
                )
            )
        else:
            breaker.record_success(now)
            try:
                code = ErrorCode(payload.get("code"))
            except ValueError:
                code = ErrorCode.INTERNAL
            message = str(payload.get("message", code.value))
            if (
                self.retry.is_retryable(code)
                and pending.attempts < self.retry.max_attempts
            ):
                self.registry.counter("serve.retries").inc()
                self._schedule_retry(pending, now)
            else:
                actions.extend(
                    self._respond_error(request_id, code, message, now)
                )
        actions.extend(self._dispatch_ready(now))
        return actions

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def tick(self, now: float) -> List[Action]:
        """Advance time: expire deadlines, release backoffs, dispatch."""
        actions: List[Action] = []
        # Backoffs that have matured re-enter the fair queue.
        while self._delayed and self._delayed[0][0] <= now:
            _, _, request_id = heapq.heappop(self._delayed)
            pending = self._pending.get(request_id)
            if pending is not None:
                self._enqueue(pending)
        # Queued/followed requests past their deadline fail fast.
        for request_id in [
            rid
            for rid, p in self._pending.items()
            if p.deadline <= now and rid not in self._responded
        ]:
            pending = self._pending.get(request_id)
            if pending is None:
                continue
            holder = self._worker_of(request_id)
            if holder is None:
                self.registry.counter("serve.deadline.expired_queued").inc()
                actions.extend(
                    self._respond_error(
                        request_id,
                        ErrorCode.DEADLINE_EXCEEDED,
                        "deadline expired before execution finished",
                        now,
                    )
                )
            elif pending.deadline + self.config.hang_grace_s <= now:
                # In-flight and overdue past the grace window: the
                # worker missed cooperative cancellation — presume it
                # hung, kill it, answer the client now.  Batch-mates
                # that are not overdue stay attributed to the doomed
                # worker and are redelivered when its exit lands.
                held = self._inflight.get(holder)
                if held is not None and request_id in held:
                    held.remove(request_id)
                    if not held:
                        del self._inflight[holder]
                if holder not in self._doomed:
                    self.registry.counter("serve.worker.hang_kills").inc()
                    self.breakers.breaker(
                        pending.request.workload_class
                    ).record_failure(now)
                    self._idle.pop(holder, None)
                    self._doomed.add(holder)
                    actions.append(
                        KillWorker(holder, reason="deadline+grace exceeded")
                    )
                actions.extend(
                    self._respond_error(
                        request_id,
                        ErrorCode.DEADLINE_EXCEEDED,
                        "deadline and hang grace expired in flight; "
                        "worker killed",
                        now,
                    )
                )
        actions.extend(self._dispatch_ready(now))
        return actions

    def next_wake(self, now: float) -> Optional[float]:
        """The earliest time a :meth:`tick` could dispatch work it holds.

        That is the first linger expiry of a partial per-item group or
        the first matured backoff, whichever comes first; None when
        neither is pending.  Full, shared and keyless groups, and every
        group of a draining core, are ready now and set no wake-up;
        they wait only for a worker, whose result or exit is an event
        of its own.  Deadlines and hang kills are left to the server's
        periodic tick.
        """
        wakes = [self._delayed[0][0]] if self._delayed else []
        for group in self._waiting.values():
            until = self._linger_until(group)
            if until is not None and until > now:
                wakes.append(until)
        return min(wakes, default=None)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self, now: float) -> None:
        """Refuse new requests; accepted work keeps running."""
        self.draining = True
        self.registry.counter("serve.drain.begun").inc()

    def abort_remaining(self, now: float) -> List[Action]:
        """Drain deadline passed: answer everything still unresolved."""
        actions: List[Action] = []
        for worker_id in list(self._inflight):
            if worker_id not in self._doomed:
                self._doomed.add(worker_id)
                actions.append(
                    KillWorker(worker_id, reason="drain deadline")
                )
            del self._inflight[worker_id]
        for request_id in list(self._pending):
            actions.extend(
                self._respond_error(
                    request_id,
                    ErrorCode.DRAINING,
                    "service shut down before the request finished",
                    now,
                )
            )
        self._queue.clear()
        self._waiting.clear()
        self._open.clear()
        self._delayed.clear()
        self._gauges()
        return actions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _worker_of(self, request_id: str) -> Optional[str]:
        for worker_id, held in self._inflight.items():
            if request_id in held:
                return worker_id
        return None

    def _reject(
        self, request: Request, code: ErrorCode, message: str, now: float
    ) -> List[Action]:
        """Immediate typed rejection of a never-accepted request."""
        self._record_outcome(request.id, code.value)
        self.registry.counter(
            f"serve.responses.error.{code.value.lower()}"
        ).inc()
        return [
            Respond(
                Response.failure(request.id, ServeError(code, message)),
                tenant=request.tenant,
            )
        ]

    def _schedule_retry(self, pending: _Pending, now: float) -> None:
        delay = self.retry.delay(
            max(1, pending.attempts), key=pending.request.id
        )
        pending.not_before = now + delay
        self._delayed_seq += 1
        heapq.heappush(
            self._delayed,
            (pending.not_before, self._delayed_seq, pending.request.id),
        )
        self._gauges()

    def _enqueue(self, pending: _Pending) -> bool:
        """Queue ``pending`` for dispatch; True if it joined a group.

        A request joins the open group of its key, or opens a new one.
        A shared group's runner back from backoff re-queues its group.
        """
        request_id = pending.request.id
        group = pending.group
        if group is None:
            group = self._open.get(pending.key)
            if group is not None:
                group.members.append(request_id)
                pending.group = group
                if not group.shared and (
                    len(group.members) >= self.config.max_batch
                ):
                    del self._open[group.key]
                return True
            self._group_seq += 1
            group = pending.group = _Group(
                gid=f"g{self._group_seq}",
                key=pending.key,
                shared=GROUP_POLICY.get(pending.request.method) == SHARED,
                members=[request_id],
            )
            if group.key is not None and (
                group.shared or self.config.max_batch > 1
            ):
                self._open[group.key] = group
        self._waiting[group.gid] = group
        return False

    def _linger_until(self, group: _Group) -> Optional[float]:
        """When a partial per-item ``group`` may stop waiting for peers.

        ``batch_linger_s`` after its first member arrived; None for a
        group that is ready without waiting (shared, keyless, full, or
        the core is draining).
        """
        if (
            group.shared
            or group.key is None
            or self.draining
            or len(group.members) >= self.config.max_batch
        ):
            return None
        first = self._pending[group.members[0]]
        return first.submitted_at + self.config.batch_linger_s

    def _ready(self, group: _Group, now: float) -> bool:
        """May ``group`` enter the fair queue?"""
        until = self._linger_until(group)
        return until is None or now >= until

    def _dispatch_ready(self, now: float) -> List[Action]:
        """Pair idle workers with dispatchable queued groups.

        Groups are served deficit-round-robin across tenants.  A per-item
        group dispatches every member still within its deadline and
        dissolves; a shared group dispatches only its runner.  The pop
        charges one member to the entry's tenant; every other member is
        charged to its own, so grouping cannot distort fairness.
        """
        actions: List[Action] = []
        while self._idle:
            for group in self._waiting.values():
                if group.gid not in self._queue and self._ready(group, now):
                    first = self._pending[group.members[0]]
                    self._queue.push(first.request.tenant, group.gid)
            popped = self._queue.pop()
            if popped is None:
                break
            tenant, gid = popped
            group = self._waiting.pop(gid)
            if group.shared:
                batch = group.members[:1]
            else:
                # Dissolve: members that retry regroup on their own.
                if self._open.get(group.key) is group:
                    del self._open[group.key]
                for request_id in group.members:
                    self._pending[request_id].group = None
                batch = list(group.members)
            live: List[str] = []
            for request_id in batch:
                if self._pending[request_id].deadline > now:
                    live.append(request_id)
                    continue
                self.registry.counter("serve.deadline.expired_queued").inc()
                actions.extend(
                    self._respond_error(
                        request_id,
                        ErrorCode.DEADLINE_EXCEEDED,
                        "deadline expired while queued",
                        now,
                    )
                )
            if not live:
                continue
            tenants = [self._pending[rid].request.tenant for rid in live]
            if tenant in tenants:
                tenants.remove(tenant)
            for other in tenants:
                self._queue.charge(other)
            worker_id, _ = self._idle.popitem(last=False)
            self._inflight[worker_id] = live
            items: List[Dict[str, object]] = []
            for request_id in live:
                pending = self._pending[request_id]
                pending.attempts += 1
                items.append(
                    {
                        "id": request_id,
                        "method": pending.request.method,
                        "params": dict(pending.request.params),
                        "tenant": pending.request.tenant,
                        "deadline_ts": pending.deadline,
                        "attempt": pending.attempts,
                    }
                )
            if len(live) > 1:
                self.batch_dispatches += 1
                self.batched_requests += len(live)
                self.registry.counter("serve.batch.dispatches").inc()
            actions.append(
                Dispatch(worker_id, {"type": "batch", "items": items})
            )
        self._gauges()
        return actions

    def _finish(self, request_id: str) -> Optional[_Pending]:
        """Drop all tracking state of a resolved request."""
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return None
        group = pending.group
        if group is not None:
            group.members.remove(request_id)
            if not group.members:
                self._waiting.pop(group.gid, None)
                self._queue.remove(group.gid)
                if self._open.get(group.key) is group:
                    del self._open[group.key]
        return pending

    def _observe_latency(self, pending: _Pending, now: float, ok: bool) -> None:
        self.registry.histogram("serve.latency_ms").observe(
            max(0.0, (now - pending.submitted_at) * 1000.0)
        )
        self.registry.counter(
            "serve.responses.ok" if ok else "serve.responses.error"
        ).inc()

    def _respond_success(
        self, request_id: str, result: Dict[str, object], now: float
    ) -> List[Action]:
        pending = self._finish(request_id)
        if pending is None:
            self.registry.counter("serve.responses.duplicate_suppressed").inc()
            return []
        group = pending.group
        # A shared group's members get the runner's result verbatim
        # (plus a marker); a per-item member's result arrives in its
        # own worker message, even when the worker ran the spec once.
        answered = [(pending, result)]
        if group is not None and group.shared:
            shared = dict(result, coalesced=True)
            answered += [
                (self._finish(member_id), shared)
                for member_id in list(group.members)
            ]
        actions: List[Action] = []
        for member, body in answered:
            self._record_outcome(member.request.id, "ok")
            self._observe_latency(member, now, ok=True)
            actions.append(
                Respond(
                    Response.success(member.request.id, body),
                    tenant=member.request.tenant,
                )
            )
        return actions

    def _respond_error(
        self,
        request_id: str,
        code: ErrorCode,
        message: str,
        now: float,
        detail: Optional[Dict[str, object]] = None,
    ) -> List[Action]:
        group = getattr(self._pending.get(request_id), "group", None)
        runner = (
            group is not None
            and group.shared
            and group.members[0] == request_id
        )
        pending = self._finish(request_id)
        if pending is None:
            self.registry.counter("serve.responses.duplicate_suppressed").inc()
            return []
        self._record_outcome(request_id, code.value)
        self._observe_latency(pending, now, ok=False)
        self.registry.counter(
            f"serve.responses.error.{code.value.lower()}"
        ).inc()
        if runner and group.members and group.gid not in self._waiting:
            # The runner failed terminally: promote the oldest member to
            # runner rather than failing it by proxy (it keeps its own
            # deadline and a fresh attempt budget).
            self._waiting[group.gid] = group
            self.registry.counter("serve.coalesce.promotions").inc()
        self._gauges()
        return [
            Respond(
                Response.failure(
                    request_id,
                    ServeError(
                        code,
                        message,
                        attempts=max(1, pending.attempts),
                        redeliveries=pending.redeliveries,
                        detail=detail or {},
                    ),
                ),
                tenant=pending.request.tenant,
            )
        ]

    def _gauges(self) -> None:
        self.registry.gauge("serve.queue.depth").set(self.queue_depth)
        self.registry.gauge("serve.inflight").set(self.inflight_count)
        self.registry.gauge("serve.workers.idle").set(len(self._idle))
