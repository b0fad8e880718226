"""Batch planner tests: grouping, linger, demux, crash semantics, and
the batched-vs-unbatched equivalence property.

The planner lives in the pure ``ServiceCore``, so the closing
hypothesis test drives a batched core (``max_batch=4``) and an
unbatched one (``max_batch=1``) through *identical* operation
sequences with a virtual clock and asserts the per-request response
envelopes are bit-identical (same JSON bytes) — batching is a pure
throughput optimisation, invisible in results.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.core import (
    CoreConfig,
    Dispatch,
    KillWorker,
    Respond,
    ServiceCore,
)
from repro.serve.protocol import ErrorCode, Request
from repro.serve.retry import RetryPolicy


def make_core(**overrides):
    defaults = dict(
        queue_limit=64,
        tenant_rate=10000.0,
        tenant_burst=10000.0,
        max_batch=3,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.05, jitter=0.0),
    )
    defaults.update(overrides)
    return ServiceCore(CoreConfig(**defaults))


def req(rid, workload="atax", tenant="t", deadline_ms=None):
    return Request(
        id=rid,
        method="run",
        params={"workload": workload},
        tenant=tenant,
        deadline_ms=deadline_ms,
    )


def responses(actions):
    return [a.response for a in actions if isinstance(a, Respond)]


def dispatches(actions):
    return [a for a in actions if isinstance(a, Dispatch)]


def batch_ids(dispatch):
    assert dispatch.message["type"] == "batch"
    return [item["id"] for item in dispatch.message["items"]]


class TestBatchAssembly:
    def test_queued_peers_share_one_dispatch(self):
        core = make_core()
        core.submit(req("r1"), 0.0, group_key="k")
        core.submit(req("r2"), 0.0, group_key="k")
        core.submit(req("r3"), 0.0, group_key="k")
        (d,) = dispatches(core.register_worker("w0", 0.1))
        assert d.message["type"] == "batch"
        assert batch_ids(d) == ["r1", "r2", "r3"]
        # Each item carries its own envelope fields.
        for item in d.message["items"]:
            assert item["attempt"] == 1
            assert item["method"] == "run"
        assert core.inflight_count == 3
        assert core.batch_dispatches == 1
        assert core.batched_requests == 3

    def test_max_batch_caps_the_group(self):
        core = make_core(max_batch=2)
        for i in range(5):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        (d,) = dispatches(core.register_worker("w0", 0.1))
        assert batch_ids(d) == ["r0", "r1"]
        assert dispatches(
            core.worker_result("w0", "r0", {"ok": True, "result": {}}, 0.2)
        ) == []
        (d2,) = dispatches(
            core.worker_result("w0", "r1", {"ok": True, "result": {}}, 0.2)
        )
        assert batch_ids(d2) == ["r2", "r3"]

    def test_distinct_keys_never_mix(self):
        core = make_core()
        core.submit(req("r1"), 0.0, group_key="k1")
        core.submit(req("r2"), 0.0, group_key="k2")
        (d,) = dispatches(core.register_worker("w0", 0.1))
        assert batch_ids(d) == ["r1"]

    def test_none_key_always_dispatches_alone(self):
        core = make_core()
        core.submit(req("r1"), 0.0, group_key=None)
        core.submit(req("r2"), 0.0, group_key=None)
        (d,) = dispatches(core.register_worker("w0", 0.1))
        assert batch_ids(d) == ["r1"]

    def test_single_request_keeps_legacy_message_shape(self):
        # There is one worker message shape now: a lone request is a
        # one-item batch, and it does not count as a batch dispatch.
        core = make_core()
        core.register_worker("w0", 0.0)
        (d,) = dispatches(core.submit(req("r1"), 0.0, group_key="k"))
        assert d.message["type"] == "batch"
        (item,) = d.message["items"]
        assert item["id"] == "r1" and item["attempt"] == 1
        assert core.batch_dispatches == 0
        assert core.batched_requests == 0

    def test_batch_results_demux_per_request(self):
        core = make_core()
        for i in range(3):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        for i in range(3):
            actions = core.worker_result(
                "w0", f"r{i}", {"ok": True, "result": {"i": i}}, 0.2
            )
            (r,) = responses(actions)
            assert r.id == f"r{i}" and r.result == {"i": i}
        # Worker is idle again only after the whole batch resolved.
        assert core.is_quiescent()
        assert "w0" in core._idle

    def test_worker_busy_until_batch_fully_resolved(self):
        core = make_core()
        for i in range(2):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        core.worker_result("w0", "r0", {"ok": True, "result": {}}, 0.2)
        # One batch-mate still runs: new work must not be dispatched
        # to w0.
        assert dispatches(core.submit(req("r9"), 0.3)) == []


class TestBatchLinger:
    def test_partial_batch_waits_then_flushes(self):
        core = make_core(max_batch=4, batch_linger_s=0.1)
        core.register_worker("w0", 0.0)
        # One batchable request with an idle worker: held for peers.
        assert dispatches(core.submit(req("r1"), 0.0, group_key="k")) == []
        assert dispatches(core.tick(0.05)) == []
        # A peer arrives inside the window: still partial, still young.
        assert dispatches(core.submit(req("r2"), 0.06, group_key="k")) == []
        # The oldest member ages past the linger: flush as-is.
        (d,) = dispatches(core.tick(0.11))
        assert d.message["type"] == "batch"
        assert batch_ids(d) == ["r1", "r2"]

    def test_full_batch_skips_the_linger(self):
        core = make_core(max_batch=2, batch_linger_s=5.0)
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0, group_key="k")
        (d,) = dispatches(core.submit(req("r2"), 0.01, group_key="k"))
        assert batch_ids(d) == ["r1", "r2"]

    def test_unbatchable_requests_never_linger(self):
        core = make_core(max_batch=4, batch_linger_s=5.0)
        core.register_worker("w0", 0.0)
        (d,) = dispatches(core.submit(req("r1"), 0.0, group_key=None))
        assert batch_ids(d) == ["r1"]

    def test_drain_flushes_lingering_work(self):
        core = make_core(max_batch=4, batch_linger_s=60.0)
        core.register_worker("w0", 0.0)
        core.submit(req("r1"), 0.0, group_key="k")
        core.begin_drain(0.1)
        (d,) = dispatches(core.tick(0.2))
        assert batch_ids(d) == ["r1"]


class TestBatchFailureSemantics:
    def test_crash_redelivers_every_batched_request(self):
        core = make_core(breaker_failure_threshold=100)
        for i in range(3):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        assert core.worker_exit("w0", 0.2, reason="crash") == []
        assert core.unresolved_count == 3
        # All three mature from backoff and re-dispatch as one batch.
        core.register_worker("w1", 0.3)
        (d,) = dispatches(core.tick(0.5))
        assert sorted(batch_ids(d)) == ["r0", "r1", "r2"]
        assert all(
            item["attempt"] == 2 for item in d.message["items"]
        )

    def test_batch_crash_counts_one_breaker_failure_per_class(self):
        # A single worker death must not trip a class breaker N times
        # because N requests of that class shared the dispatch.
        core = make_core(breaker_failure_threshold=2)
        for i in range(3):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        core.worker_exit("w0", 0.2, reason="crash")
        # One failure recorded (threshold 2): class still admits.
        assert responses(core.submit(req("r9"), 0.3)) == []
        assert (
            core.breakers.breaker("run:atax").consecutive_failures == 1
        )

    def test_dead_letters_are_per_request(self):
        core = make_core(max_redeliveries=0, breaker_failure_threshold=100)
        for i in range(2):
            core.submit(req(f"r{i}"), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        actions = core.worker_exit("w0", 0.2, reason="crash")
        got = {r.id: r.error.code for r in responses(actions)}
        assert got == {
            "r0": ErrorCode.DEAD_LETTER,
            "r1": ErrorCode.DEAD_LETTER,
        }

    def test_hang_kill_answers_overdue_keeps_batchmates(self):
        core = make_core(hang_grace_s=1.0)
        core.submit(req("r0", deadline_ms=1000), 0.0, group_key="k")
        core.submit(req("r1", deadline_ms=60000), 0.0, group_key="k")
        core.register_worker("w0", 0.1)
        actions = core.tick(2.5)  # r0 past deadline+grace
        kills = [a for a in actions if isinstance(a, KillWorker)]
        assert [k.worker_id for k in kills] == ["w0"]
        (r,) = responses(actions)
        assert r.id == "r0"
        assert r.error.code is ErrorCode.DEADLINE_EXCEEDED
        # r1 is still attributed to the doomed worker; its exit
        # redelivers r1 rather than losing it.
        assert core.worker_exit("w0", 2.6, reason="killed") == []
        assert core.unresolved_count == 1
        core.register_worker("w1", 2.7)
        (d,) = dispatches(core.tick(3.5))
        assert batch_ids(d) == ["r1"]


# ----------------------------------------------------------------------
# Tentpole acceptance: batched == unbatched, bit for bit
# ----------------------------------------------------------------------
class _Replay:
    """Drive one core through ops with deterministic fake workers.

    Workers compute ``result = f(request id)`` — a pure function — so
    two cores given the same submissions must emit byte-identical
    response envelopes regardless of how requests were grouped into
    dispatches.
    """

    def __init__(self, max_batch, linger, workers=2):
        self.core = make_core(
            max_batch=max_batch,
            batch_linger_s=linger,
            queue_limit=4096,
        )
        self.now = 0.0
        self.held = {}  # worker id -> list of request ids
        self.envelopes = {}  # request id -> encoded response line
        for i in range(workers):
            self.run(self.core.register_worker(f"w{i}", self.now))

    def run(self, actions):
        for action in actions:
            if isinstance(action, Respond):
                rid = action.response.id
                assert rid not in self.envelopes, "duplicate response"
                self.envelopes[rid] = json.dumps(
                    action.response.to_dict(), sort_keys=True
                )
            elif isinstance(action, Dispatch):
                self.held.setdefault(action.worker_id, []).extend(
                    batch_ids(action)
                )

    def submit(self, rid, key, tenant):
        self.run(
            self.core.submit(
                req(rid, tenant=tenant, deadline_ms=300000.0),
                self.now,
                group_key=key,
            )
        )

    def complete_one(self):
        """Finish the lowest outstanding request id (deterministic)."""
        candidates = [
            (rid, wid)
            for wid, rids in self.held.items()
            for rid in rids
        ]
        if not candidates:
            return
        rid, wid = min(candidates)
        self.held[wid].remove(rid)
        payload = {"ok": True, "result": {"rid": rid, "value": hash_of(rid)}}
        self.run(self.core.worker_result(wid, rid, payload, self.now))

    def advance(self, dt):
        self.now += dt
        self.run(self.core.tick(self.now))

    def finish(self):
        for _ in range(10000):
            if not any(self.held.values()):
                # Flush lingering/backoff work into dispatches.
                self.advance(1.0)
            if self.core.is_quiescent():
                return
            self.complete_one()
        raise AssertionError("replay did not converge")


def hash_of(rid):
    # Deterministic stand-in for real simulation output.
    return sum(ord(c) * 31 ** i for i, c in enumerate(rid)) % 997


_BATCH_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from([None, "ka", "kb"]),  # batch key
            st.sampled_from(["t1", "t2"]),  # tenant
        ),
        st.tuples(st.just("complete")),
        st.tuples(st.just("advance"), st.sampled_from([0.01, 0.2])),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(ops=_BATCH_OPS, max_batch=st.sampled_from([2, 4]))
def test_batched_execution_is_bit_identical_to_unbatched(ops, max_batch):
    batched = _Replay(max_batch=max_batch, linger=0.05)
    plain = _Replay(max_batch=1, linger=0.0)
    seq = 0
    for op in ops:
        if op[0] == "submit":
            seq += 1
            rid = f"r{seq:03d}"
            batched.submit(rid, op[1], op[2])
            plain.submit(rid, op[1], op[2])
        elif op[0] == "complete":
            batched.complete_one()
            plain.complete_one()
        else:
            batched.advance(op[1])
            plain.advance(op[1])
    batched.finish()
    plain.finish()
    # Every request got exactly one envelope in both worlds, and the
    # encoded bytes match request by request: batching is invisible in
    # results.
    assert set(batched.envelopes) == set(plain.envelopes)
    assert batched.envelopes == plain.envelopes
    for rid, line in batched.envelopes.items():
        decoded = json.loads(line)
        assert decoded["ok"] and decoded["result"]["value"] == hash_of(rid)
