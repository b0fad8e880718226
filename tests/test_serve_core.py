"""ServiceCore state-machine tests: deterministic paths + one stateful
property test.

The core is pure (no I/O, no clock, no randomness — every method takes
``now``), so these tests drive it with a virtual clock.  The stateful
machine is the serving layer's contract: *any* interleaving of run
batching, compile coalescing, worker crashes and hangs, deadline
expiry, retries, breakers, admission rejection and drain yields exactly
one response per submitted request with a valid typed code, dispatches
that respect the grouping rules, and one breaker failure per workload
class per worker death.
"""

import copy
from collections import Counter
from dataclasses import dataclass

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.serve.core import (
    CoreConfig,
    Dispatch,
    KillWorker,
    Respond,
    ServiceCore,
)
from repro.serve.protocol import ErrorCode, Request
from repro.serve.retry import BreakerBoard, CircuitBreaker, RetryPolicy


def make_core(**overrides):
    defaults = dict(
        queue_limit=8,
        tenant_rate=1000.0,
        tenant_burst=1000.0,
        default_deadline_s=30.0,
        hang_grace_s=2.0,
        max_redeliveries=2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.05, jitter=0.0),
        breaker_failure_threshold=3,
        breaker_cooldown_s=5.0,
    )
    defaults.update(overrides)
    return ServiceCore(CoreConfig(**defaults))


def req(rid, method="run", params=None, tenant="t", deadline_ms=None):
    return Request(
        id=rid,
        method=method,
        params=params or {"workload": "atax"},
        tenant=tenant,
        deadline_ms=deadline_ms,
    )


def responses(actions):
    return [a.response for a in actions if isinstance(a, Respond)]


def dispatches(actions):
    return [a for a in actions if isinstance(a, Dispatch)]


def item(dispatch):
    """The one request of a single-item dispatch."""
    (only,) = dispatch.message["items"]
    return only


def kills(actions):
    return [a for a in actions if isinstance(a, KillWorker)]


class TestHappyPath:
    def test_submit_dispatch_respond(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        actions = core.submit(req("r1"), 0.0)
        (d,) = dispatches(actions)
        assert d.worker_id == "w0"
        assert item(d)["id"] == "r1"
        assert item(d)["attempt"] == 1
        actions = core.worker_result(
            "w0", "r1", {"ok": True, "result": {"time_ns": 5.0}}, 0.1
        )
        (r,) = responses(actions)
        assert r.ok and r.result == {"time_ns": 5.0}
        assert core.outcome("r1") == "ok"
        assert core.is_quiescent()

    def test_queue_waits_for_idle_worker(self):
        core = make_core()
        assert dispatches(core.submit(req("r1"), 0.0)) == []
        assert core.queue_depth == 1
        (d,) = dispatches(core.register_worker("w0", 0.1))
        assert item(d)["id"] == "r1"

    def test_typed_worker_failure_passes_through(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        actions = core.worker_result(
            "w0",
            "r1",
            {"ok": False, "code": "SIMULATION_FAULT", "message": "boom"},
            0.1,
        )
        (r,) = responses(actions)
        assert not r.ok
        assert r.error.code is ErrorCode.SIMULATION_FAULT
        assert core.outcome("r1") == "SIMULATION_FAULT"


class TestRejections:
    def test_duplicate_id_rejected_without_touching_original(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        (r,) = responses(core.submit(req("r1"), 0.1))
        assert r.error.code is ErrorCode.INVALID_REQUEST
        # The original still completes normally.
        (r,) = responses(
            core.worker_result("w0", "r1", {"ok": True, "result": {}}, 0.2)
        )
        assert r.ok

    def test_unknown_method_rejected(self):
        core = make_core()
        (r,) = responses(core.submit(req("r1", method="frobnicate"), 0.0))
        assert r.error.code is ErrorCode.UNKNOWN_METHOD

    def test_debug_methods_gated(self):
        closed = make_core()
        (r,) = responses(closed.submit(req("r1", method="x-crash"), 0.0))
        assert r.error.code is ErrorCode.UNKNOWN_METHOD
        chaos = make_core(enable_debug_methods=True)
        assert responses(chaos.submit(req("r1", method="x-crash"), 0.0)) == []

    def test_queue_full_shed(self):
        core = make_core(queue_limit=1)
        core.submit(req("r1"), 0.0)  # queued (no workers)
        (r,) = responses(core.submit(req("r2"), 0.0))
        assert r.error.code is ErrorCode.QUEUE_FULL

    def test_rate_limited_per_tenant(self):
        core = make_core(tenant_rate=1.0, tenant_burst=1.0)
        core.submit(req("r1", tenant="a"), 0.0)
        (r,) = responses(core.submit(req("r2", tenant="a"), 0.0))
        assert r.error.code is ErrorCode.RATE_LIMITED
        assert responses(core.submit(req("r3", tenant="b"), 0.0)) == []

    def test_draining_rejects_new_work(self):
        core = make_core()
        core.begin_drain(0.0)
        (r,) = responses(core.submit(req("r1"), 0.1))
        assert r.error.code is ErrorCode.DRAINING

    def test_circuit_open_rejects_class(self):
        core = make_core(breaker_failure_threshold=1, max_redeliveries=5)
        core.register_worker("w0", 0.0)
        core.submit(req("r1", params={"workload": "gemm"}), 0.0)
        core.worker_exit("w0", 0.1)  # unexpected death trips the breaker
        (r,) = responses(
            core.submit(req("r2", params={"workload": "gemm"}), 0.2)
        )
        assert r.error.code is ErrorCode.CIRCUIT_OPEN
        # Other workload classes are unaffected.
        assert responses(
            core.submit(req("r3", params={"workload": "atax"}), 0.2)
        ) == []


class TestCrashRedelivery:
    def test_crash_requeues_with_backoff(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        assert core.worker_exit("w0", 0.1) == []  # requeued, not answered
        assert core.unresolved_count == 1
        # Backoff gate: a fresh worker gets nothing until the delay
        # (base 0.05s, jitter 0) matures.
        core.register_worker("w1", 0.11)
        assert dispatches(core.tick(0.12)) == []
        (d,) = dispatches(core.tick(0.2))
        assert item(d)["id"] == "r1"
        assert item(d)["attempt"] == 2

    def test_dead_letter_after_max_redeliveries(self):
        core = make_core(max_redeliveries=1)
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        core.worker_exit("w0", 0.1, reason="crash")  # redelivery 1
        core.register_worker("w1", 0.2)
        assert dispatches(core.tick(0.3))
        actions = core.worker_exit("w1", 0.4, reason="crash")
        (r,) = responses(actions)
        assert r.error.code is ErrorCode.DEAD_LETTER
        assert r.error.detail["redeliveries"] == 1
        assert core.outcome("r1") == "DEAD_LETTER"
        (record,) = core.dead_letters
        assert record["request_id"] == "r1"
        assert record["workload_class"] == "run:atax"
        assert record["reason"] == "crash"

    def test_retryable_typed_failure_retries_then_surfaces(self):
        core = make_core(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, jitter=0.0)
        )
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        fail = {"ok": False, "code": "CACHE_IO", "message": "disk"}
        assert responses(core.worker_result("w0", "r1", fail, 0.1)) == []
        (d,) = dispatches(core.tick(0.2))
        assert item(d)["attempt"] == 2
        (r,) = responses(core.worker_result("w0", "r1", fail, 0.3))
        assert r.error.code is ErrorCode.CACHE_IO
        assert r.error.attempts == 2

    def test_non_retryable_failure_is_immediate(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        (r,) = responses(
            core.worker_result(
                "w0", "r1", {"ok": False, "code": "VERIFY_FAILED"}, 0.1
            )
        )
        assert r.error.code is ErrorCode.VERIFY_FAILED


class TestDeadlines:
    def test_queued_request_expires(self):
        core = make_core()  # no workers
        core.submit(req("r1", deadline_ms=500), 0.0)
        assert responses(core.tick(0.4)) == []
        (r,) = responses(core.tick(0.6))
        assert r.error.code is ErrorCode.DEADLINE_EXCEEDED

    def test_never_dispatches_expired_request(self):
        core = make_core()
        core.submit(req("r1", deadline_ms=100), 0.0)
        actions = core.register_worker("w0", 0.5)
        assert dispatches(actions) == []
        (r,) = responses(actions)
        assert r.error.code is ErrorCode.DEADLINE_EXCEEDED

    def test_inflight_hang_kill_after_grace(self):
        core = make_core(hang_grace_s=2.0)
        core.register_worker("w0", 0.0)
        core.submit(req("r1", deadline_ms=1000), 0.0)
        # Past deadline but inside grace: cooperative window.
        assert core.tick(1.5) == []
        actions = core.tick(3.1)
        (k,) = kills(actions)
        assert k.worker_id == "w0"
        (r,) = responses(actions)
        assert r.error.code is ErrorCode.DEADLINE_EXCEEDED
        # The doomed worker's late result and exit change nothing.
        assert responses(core.worker_result("w0", "r1", {"ok": True}, 3.2)) == []
        assert responses(core.worker_exit("w0", 3.3, reason="killed")) == []
        assert core.outcome("r1") == "DEADLINE_EXCEEDED"
        assert core.is_quiescent()


class TestCoalescing:
    def test_followers_share_leader_result(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1", method="compile"), 0.0, group_key="k")
        follower = req("r2", method="compile")
        assert core.submit(follower, 0.1, group_key="k") == []
        assert core.inflight_count == 1  # the follower never runs
        actions = core.worker_result(
            "w0", "r1", {"ok": True, "result": {"sha": "abc"}}, 0.2
        )
        got = {r.id: r.result for r in responses(actions)}
        assert got["r1"] == {"sha": "abc"}
        assert got["r2"] == {"sha": "abc", "coalesced": True}
        assert core.is_quiescent()

    def test_distinct_keys_do_not_coalesce(self):
        core = make_core()
        core.submit(req("r1", method="compile"), 0.0, group_key="k1")
        core.submit(req("r2", method="compile"), 0.0, group_key="k2")
        assert core.queue_depth == 2

    def test_follower_promoted_on_leader_terminal_failure(self):
        core = make_core(max_redeliveries=0)
        core.register_worker("w0", 0.0)
        core.submit(req("r1", method="compile"), 0.0, group_key="k")
        core.submit(req("r2", method="compile"), 0.1, group_key="k")
        actions = core.worker_exit("w0", 0.2)  # leader dead-letters
        (r,) = responses(actions)
        assert r.id == "r1" and r.error.code is ErrorCode.DEAD_LETTER
        # The follower is not failed by proxy: it was re-queued and
        # runs on its own as soon as a worker appears.
        (d,) = dispatches(core.register_worker("w1", 0.3))
        assert item(d)["id"] == "r2"
        (r,) = responses(
            core.worker_result("w1", "r2", {"ok": True, "result": {}}, 0.5)
        )
        assert r.ok and r.id == "r2"


class TestDrain:
    def test_accepted_work_finishes_during_drain(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        core.begin_drain(0.1)
        (r,) = responses(
            core.worker_result("w0", "r1", {"ok": True, "result": {}}, 0.2)
        )
        assert r.ok
        assert core.is_quiescent()

    def test_abort_remaining_answers_everything(self):
        core = make_core()
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)  # in flight
        core.submit(req("r2"), 0.0)  # queued
        core.begin_drain(0.1)
        actions = core.abort_remaining(0.2)
        assert {k.worker_id for k in kills(actions)} == {"w0"}
        got = {r.id: r.error.code for r in responses(actions)}
        assert got == {
            "r1": ErrorCode.DRAINING,
            "r2": ErrorCode.DRAINING,
        }
        assert core.is_quiescent()


class TestNextWake:
    """``next_wake`` names the one timer the server must wake for: a
    partial per-item group's linger expiry or a retry's backoff."""

    def test_nothing_pending(self):
        core = make_core(max_batch=2, batch_linger_s=0.05)
        assert core.next_wake(0.0) is None
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)  # keyless: dispatched at once
        assert core.next_wake(0.0) is None

    def test_partial_group_wakes_at_linger_expiry(self):
        core = make_core(max_batch=2, batch_linger_s=0.05)
        core.register_worker("w0", 1.0)
        assert dispatches(core.submit(req("r1"), 1.0, group_key="k")) == []
        core.submit(
            req("r2", params={"workload": "gemm"}), 1.02, group_key="g"
        )
        # The first member's arrival plus the linger, earliest group first.
        assert core.next_wake(1.02) == 1.0 + 0.05
        (d,) = dispatches(core.tick(core.next_wake(1.02)))
        assert item(d)["id"] == "r1"
        assert core.next_wake(1.05) == 1.02 + 0.05

    def test_backoff_wakes_at_not_before(self):
        core = make_core(max_batch=2, batch_linger_s=0.05)
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        fail = {"ok": False, "code": "CACHE_IO", "message": "disk"}
        assert responses(core.worker_result("w0", "r1", fail, 0.1)) == []
        not_before = 0.1 + core.retry.delay(1, key="r1")
        assert core.next_wake(0.1) == not_before
        (d,) = dispatches(core.tick(not_before))
        assert item(d)["id"] == "r1" and item(d)["attempt"] == 2
        assert core.next_wake(not_before) is None

    def test_ready_groups_set_no_wake(self):
        core = make_core(max_batch=2, batch_linger_s=0.05)  # no workers
        core.submit(req("r1"), 0.0, group_key="full")
        core.submit(req("r2"), 0.0, group_key="full")
        core.submit(req("c1", method="compile"), 0.0, group_key="shared")
        core.submit(req("r3"), 0.0)  # keyless
        assert core.unresolved_count == 4
        assert core.next_wake(0.0) is None

    def test_draining_core_sets_no_linger_wake(self):
        core = make_core(max_batch=2, batch_linger_s=0.05)
        core.submit(req("r1"), 0.0, group_key="k")
        assert core.next_wake(0.0) == 0.05
        core.begin_drain(0.01)
        assert core.next_wake(0.01) is None
        (d,) = dispatches(core.register_worker("w0", 0.01))
        assert item(d)["id"] == "r1"


# ----------------------------------------------------------------------
# One stateful machine over the core and a fake pool
# ----------------------------------------------------------------------
_VALID_CODES = {"ok"} | {code.value for code in ErrorCode}
_PAYLOADS = {
    "ok": {"ok": True, "result": {"x": 1.5}},
    "fault": {"ok": False, "code": "SIMULATION_FAULT", "message": "fault"},
    "cache_io": {"ok": False, "code": "CACHE_IO", "message": "disk"},
}


@dataclass
class _CountingBreaker(CircuitBreaker):
    recorded: int = 0

    def record_failure(self, now):
        self.recorded += 1
        super().record_failure(now)


class _CountingBoard(BreakerBoard):
    """Counts every breaker failure, whatever state the breaker is in."""

    def breaker(self, workload_class):
        if workload_class not in self.breakers:
            self.breakers[workload_class] = _CountingBreaker(
                failure_threshold=self.failure_threshold,
                cooldown_s=self.cooldown_s,
            )
        return self.breakers[workload_class]

    def recorded(self):
        return Counter(
            {name: b.recorded for name, b in self.breakers.items()}
        )


class ServiceCoreMachine(RuleBasedStateMachine):
    """Drives a ServiceCore with a virtual clock and a fake worker pool.

    The machine is the model of the I/O layer: it executes Dispatch,
    KillWorker and Respond actions, runs each dispatched item in order
    on its fake worker, and respawns dead workers.  Run and compile
    requests with a few keys mix same-key grouping (batching and
    coalescing) with crashes, hangs, deadlines, breakers and drain.
    """

    GRACE = 0.5

    @initialize(max_batch=st.sampled_from([1, 2, 4]))
    def start(self, max_batch):
        self.core = make_core(
            queue_limit=6,
            max_batch=max_batch,
            batch_linger_s=0.05,
            max_redeliveries=1,
            hang_grace_s=self.GRACE,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.05, jitter=0.0),
            breaker_failure_threshold=3,
            breaker_cooldown_s=2.0,
        )
        self.core.breakers = _CountingBoard(
            failure_threshold=3, cooldown_s=2.0
        )
        self.max_batch = max_batch
        self.now = 0.0
        self.spawned = 0
        self.live = set()
        self.held = {}  # worker id -> dispatched items not yet finished
        self.submitted = {}  # request id -> (method, group key)
        self.delivered = Counter()
        for _ in range(2):
            self.run(self._spawn())

    # -- the fake I/O layer ---------------------------------------------
    def _spawn(self):
        wid = f"w{self.spawned}"
        self.spawned += 1
        self.live.add(wid)
        return self.core.register_worker(wid, self.now)

    def _unresolved(self, rid):
        return self.core.outcome(rid) is None

    def run(self, actions):
        queue = list(actions)
        while queue:
            action = queue.pop(0)
            if isinstance(action, Respond):
                rid = action.response.id
                assert rid in self.submitted
                assert self.delivered[rid] == 0, f"{rid} answered twice"
                self.delivered[rid] += 1
                response = action.response
                code = "ok" if response.ok else response.error.code.value
                assert code in _VALID_CODES
            elif isinstance(action, Dispatch):
                self._check_dispatch(action)
                self.held[action.worker_id] = list(action.message["items"])
            elif isinstance(action, KillWorker):
                self.live.discard(action.worker_id)
                self.held.pop(action.worker_id, None)
                queue.extend(
                    self.core.worker_exit(
                        action.worker_id, self.now, reason="killed"
                    )
                )
                queue.extend(self._spawn())

    def _check_dispatch(self, action):
        assert action.worker_id in self.live
        assert not self.held.get(action.worker_id)
        assert action.message["type"] == "batch"
        ids = [item["id"] for item in action.message["items"]]
        assert 1 <= len(ids) <= self.max_batch
        (method, key), = {self.submitted[rid] for rid in ids}
        if key is None or method == "compile":
            assert len(ids) == 1
        if method == "compile" and key is not None:
            # Shared-result followers never run: no other member of
            # the group is in flight.
            assert not any(
                self.submitted[item["id"]] == (method, key)
                for item in self._inflight()
            )

    def _busy(self):
        return sorted(wid for wid, items in self.held.items() if items)

    def _inflight(self):
        """Dispatched items not yet answered, across all workers."""
        return [
            item
            for items in self.held.values()
            for item in items
            if self._unresolved(item["id"])
        ]

    # -- rules ------------------------------------------------------------
    @rule(
        method=st.sampled_from(["run", "compile"]),
        key=st.sampled_from([None, "atax", "gemm"]),
        tenants=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3),
        deadline_s=st.sampled_from([0.2, 1.0, 5.0]),
    )
    def submit(self, method, key, tenants, deadline_s):
        """A burst of same-work requests, one per listed tenant."""
        # A real key (a RunSpec or CompileSpec) names the method too.
        group_key = (method, key) if key is not None else None
        for tenant in tenants:
            rid = f"r{len(self.submitted)}"
            self.submitted[rid] = (method, group_key)
            request = req(
                rid,
                method=method,
                params={"workload": key or "atax"},
                tenant=tenant,
                deadline_ms=deadline_s * 1000.0,
            )
            self.run(self.core.submit(request, self.now, group_key=group_key))

    @precondition(lambda self: self._busy())
    @rule(outcome=st.sampled_from(sorted(_PAYLOADS)))
    def complete(self, outcome):
        wid = self._busy()[0]
        item = self.held[wid].pop(0)
        self.run(
            self.core.worker_result(
                wid, item["id"], _PAYLOADS[outcome], self.now
            )
        )

    @rule(busy=st.booleans())
    def crash(self, busy):
        wid = ((busy and self._busy()) or sorted(self.live))[0]
        classes = {
            req(item["id"], item["method"], item["params"]).workload_class
            for item in self.held.get(wid, [])
            if self._unresolved(item["id"])
        }
        before = self.core.breakers.recorded()
        self.live.discard(wid)
        self.held.pop(wid, None)
        self.run(self.core.worker_exit(wid, self.now, reason="crash"))
        # One breaker failure per workload class the dead worker held.
        after = self.core.breakers.recorded()
        assert after - before == Counter(dict.fromkeys(classes, 1))
        self.run(self._spawn())

    @precondition(lambda self: self._inflight())
    @rule()
    def hang(self):
        # The worker ignores cooperative cancellation: time runs past
        # the earliest in-flight deadline plus the hang grace.
        overdue = min(item["deadline_ts"] for item in self._inflight())
        self.now = max(self.now, overdue + self.GRACE + 0.01)
        before = sum(self.core.breakers.recorded().values())
        actions = self.core.tick(self.now)
        hang_kills = sum(isinstance(a, KillWorker) for a in actions)
        assert hang_kills >= 1
        self.run(actions)
        # A hang kill is one failure; the doomed worker's exit is none.
        after = sum(self.core.breakers.recorded().values())
        assert after - before == hang_kills

    @rule(dt=st.sampled_from([0.02, 0.1, 0.5, 3.0]))
    def advance(self, dt):
        nothing_running = not self._inflight()
        self.now += dt
        self.run(self.core.tick(self.now))
        if dt >= 0.5 and nothing_running:
            # Every backoff and linger has matured, and no hang kill
            # can have started a new backoff.
            self._check_work_conserving()

    def _check_work_conserving(self):
        # With a worker idle, every unresolved request runs or follows
        # a running compile of its group: nothing is stranded.
        if all(self.held.get(wid) for wid in self.live):
            return
        inflight = self._inflight()
        running = {item["id"] for item in inflight}
        groups = {self.submitted[item["id"]] for item in inflight}
        for rid, (method, key) in self.submitted.items():
            if self._unresolved(rid) and rid not in running:
                assert method == "compile" and (method, key) in groups, rid

    @rule()
    def drain(self):
        self.core.begin_drain(self.now)

    # -- invariants -------------------------------------------------------
    @invariant()
    def responded_ledger_matches_deliveries(self):
        # No pending id is in the responded ledger, and every answered
        # id is: the ledger and the deliveries agree request by request.
        for rid in self.submitted:
            assert (self.delivered[rid] == 1) == (
                self.core.outcome(rid) is not None
            )
        assert self.core.unresolved_count == sum(
            1 for rid in self.submitted if self.delivered[rid] == 0
        )

    @invariant()
    def next_wake_releases_what_waits_on_it(self):
        # Ticking at next_wake() frees everything waiting on that timer:
        # a lingering group dispatches unless no worker is idle, and a
        # backoff re-enters the queue.  Checked on a copy, so the run
        # itself is not perturbed.
        wake = self.core.next_wake(self.now)
        if wake is None:
            return
        assert wake > self.now
        core = copy.deepcopy(self.core)
        lingering = [
            gid
            for gid, group in core._waiting.items()
            if core._linger_until(group) == wake
        ]
        backoffs = [entry for entry in core._delayed if entry[0] == wake]
        assert lingering or backoffs
        core.tick(wake)
        if core._idle:
            assert not set(lingering) & set(core._waiting)
        assert not set(backoffs) & set(core._delayed)

    def teardown(self):
        # Drain: finish what the workers hold, let time pass, then
        # abort the rest; nothing may be lost.
        self.core.begin_drain(self.now)
        for _ in range(100):
            if self.core.is_quiescent():
                break
            if self._busy():
                self.complete("ok")
            else:
                self.advance(0.5)
        self.now += 0.1
        self.run(self.core.abort_remaining(self.now))
        assert self.core.is_quiescent()
        assert all(self.delivered[rid] == 1 for rid in self.submitted)


TestServiceCoreMachine = ServiceCoreMachine.TestCase
TestServiceCoreMachine.settings = settings(
    max_examples=300, stateful_step_count=40, deadline=None
)


class TestLedgerBounds:
    """The exactly-once ledger and dead letters are bounded (a
    long-lived service must not grow per-request state forever)."""

    def _resolve(self, core, rid, now):
        core.submit(req(rid), now)
        core.worker_result("w0", rid, {"ok": True, "result": {}}, now)

    def test_responded_ledger_evicts_lru(self):
        core = make_core(responded_ledger_limit=2)
        core.register_worker("w0", 0.0)
        for i, rid in enumerate(["r1", "r2", "r3", "r4"]):
            self._resolve(core, rid, float(i))
        assert core.outcome("r1") is None  # evicted
        assert core.outcome("r2") is None
        assert core.outcome("r3") == "ok"
        assert core.outcome("r4") == "ok"
        # The snapshot's "responded" is the monotonic total, not the
        # (bounded) ledger size.
        snapshot = core.snapshot(4.0)
        assert snapshot["responded"] == 4
        assert snapshot["responded_ledger"] == 2

    def test_evicted_id_may_be_reused(self):
        # Documented semantics: the duplicate-id rejection only spans
        # the remembered window; clients must use fresh ids anyway.
        core = make_core(responded_ledger_limit=1)
        core.register_worker("w0", 0.0)
        self._resolve(core, "r1", 0.0)
        self._resolve(core, "r2", 1.0)  # evicts r1
        actions = core.submit(req("r1"), 2.0)
        assert dispatches(actions)  # accepted again, not INVALID_REQUEST

    def test_pending_ids_never_evicted_from_duplicate_guard(self):
        # Eviction only touches *responded* ids; a still-pending id is
        # guarded by the pending map, so exactly-once survives any
        # ledger size.
        core = make_core(responded_ledger_limit=1)
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0)
        self._resolve(core, "r2", 0.5)  # churns the tiny ledger
        (r,) = responses(core.submit(req("r1"), 1.0))
        assert r.error.code is ErrorCode.INVALID_REQUEST

    def test_dead_letters_ring_buffer_keeps_total(self):
        core = make_core(
            max_redeliveries=0,
            dead_letter_limit=2,
            breaker_failure_threshold=100,  # keep the breaker out of it
        )
        for i in range(4):
            rid = f"r{i}"
            wid = f"w{i}"
            core.register_worker(wid, float(i))
            core.submit(req(rid), float(i))
            actions = core.worker_exit(wid, float(i) + 0.1, reason="crash")
            (r,) = responses(actions)
            assert r.error.code is ErrorCode.DEAD_LETTER
        assert core.dead_letter_total == 4
        assert [rec["request_id"] for rec in core.dead_letters] == [
            "r2",
            "r3",
        ]
        assert core.snapshot(5.0)["dead_letters"] == 4
