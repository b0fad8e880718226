"""Wire protocol, retry/backoff, breaker and admission unit tests.

These are the pure building blocks of the serving layer
(``docs/serving.md``): typed error codes with a retryability contract,
deterministic backoff, the per-class circuit breaker state machine,
and token-bucket admission over a bounded queue.
"""

import json

import pytest

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.protocol import (
    CLIENT_RETRYABLE,
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    Request,
    Response,
    ServeError,
    decode_line,
    encode_message,
    parse_request,
    parse_response,
)
from repro.serve.retry import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)


class TestProtocolRoundTrip:
    def test_request_round_trip(self):
        request = Request(
            id="r1",
            method="run",
            params={"workload": "atax", "scale": 0.01},
            tenant="team-a",
            deadline_ms=1500.0,
        )
        parsed = parse_request(decode_line(encode_message(request.to_dict())))
        assert parsed == request

    def test_success_response_round_trip(self):
        response = Response.success("r1", {"time_ns": 12.5})
        parsed = parse_response(decode_line(encode_message(response.to_dict())))
        assert parsed.ok
        assert parsed.result == {"time_ns": 12.5}

    def test_failure_response_round_trip(self):
        response = Response.failure(
            "r2",
            ServeError(
                ErrorCode.DEAD_LETTER,
                "gave up",
                attempts=3,
                redeliveries=2,
                detail={"last_worker": "w4"},
            ),
        )
        parsed = parse_response(decode_line(encode_message(response.to_dict())))
        assert not parsed.ok
        assert parsed.error.code is ErrorCode.DEAD_LETTER
        assert parsed.error.attempts == 3
        assert parsed.error.redeliveries == 2
        assert parsed.error.detail == {"last_worker": "w4"}

    def test_floats_survive_json_exactly(self):
        # The serving layer's bit-identity contract rests on JSON float
        # round-trip exactness (repr-based, IEEE-754 faithful).
        value = 2595.150222222222
        response = Response.success("r", {"time_ns": value})
        parsed = parse_response(decode_line(encode_message(response.to_dict())))
        assert parsed.result["time_ns"] == value


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"id": "", "method": "run"},
            {"id": 7, "method": "run"},
            {"id": "r", "method": ""},
            {"id": "r", "method": "run", "params": []},
            {"id": "r", "method": "run", "tenant": ""},
            {"id": "r", "method": "run", "deadline_ms": 0},
            {"id": "r", "method": "run", "deadline_ms": "soon"},
            {"id": "r", "method": "run", "v": 99},
            {"id": "r", "method": "run", "params": {"scale": "abc"}},
            {"id": "r", "method": "run", "params": {"scale": 0}},
            {"id": "r", "method": "run", "params": {"scale": -1.0}},
            {"id": "r", "method": "run", "params": {"scale": float("inf")}},
            {"id": "r", "method": "run", "params": {"scale": float("nan")}},
            {"id": "r", "method": "run", "params": {"scale": True}},
            {"id": "r", "method": "compile", "params": {"seed": "7"}},
            {"id": "r", "method": "compile", "params": {"seed": 7.5}},
            {"id": "r", "method": "compile", "params": {"seed": True}},
            {"id": "r", "method": "compile", "params": {"deep": "false"}},
            {"id": "r", "method": "compile", "params": {"no_cache": 1}},
            {"id": "r", "method": "run", "params": {"platform": 5}},
            {"id": "r", "method": "run", "params": {"workload": 3}},
            {"id": "r", "method": "compile", "params": {"workload": None}},
        ],
    )
    def test_malformed_requests_rejected(self, obj):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(obj)
        assert excinfo.value.code is ErrorCode.INVALID_REQUEST

    def test_non_object_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")

    def test_undecodable_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope\n")

    def test_oversized_line_rejected(self):
        with pytest.raises(ProtocolError):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))

    def test_retryability_is_on_the_wire(self):
        for code in ErrorCode:
            error = ServeError(code, "m")
            wire = error.to_dict()
            assert wire["retryable"] == (code in CLIENT_RETRYABLE)

    def test_workload_class_includes_workload(self):
        assert (
            Request(id="r", method="run", params={"workload": "gemm"})
        ).workload_class == "run:gemm"
        assert Request(id="r", method="run").workload_class == "run"

    def test_encode_is_one_json_line(self):
        blob = encode_message({"id": "x", "ok": True})
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1
        assert json.loads(blob)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay(1, key="r1") == policy.delay(1, key="r1")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert policy.delay(1, key="k") == pytest.approx(0.1)
        assert policy.delay(2, key="k") == pytest.approx(0.2)
        assert policy.delay(5, key="k") == pytest.approx(0.5)  # capped

    def test_jitter_stays_bounded(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=1.0, max_delay_s=1.0, jitter=0.5
        )
        for key in ("a", "b", "c", "d"):
            delay = policy.delay(1, key=key)
            # Half the raw delay is kept, half is hash-jittered.
            assert 0.05 <= delay <= 0.1

    def test_retryable_codes(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ErrorCode.WORKER_CRASH)
        assert policy.is_retryable(ErrorCode.CACHE_IO)
        assert not policy.is_retryable(ErrorCode.VERIFY_FAILED)
        assert not policy.is_retryable(ErrorCode.SIMULATION_FAULT)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for _ in range(2):
            breaker.record_failure(0.0)
            assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.current_state(0.0) is BreakerState.OPEN
        assert not breaker.allow(1.0)

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        assert breaker.current_state(0.0) is BreakerState.CLOSED

    def test_half_opens_after_cooldown_and_recloses(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(4.9)
        # Cooldown elapsed: one probe allowed.
        assert breaker.allow(5.1)
        assert breaker.current_state(5.1) is BreakerState.HALF_OPEN
        assert not breaker.allow(5.2)  # only one probe outstanding
        breaker.record_success(5.3)
        assert breaker.current_state(5.3) is BreakerState.CLOSED
        assert breaker.allow(5.4)

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(0.0)
        assert breaker.allow(5.1)  # probe
        breaker.record_failure(5.2)
        assert breaker.current_state(5.3) is BreakerState.OPEN
        assert not breaker.allow(5.3)
        # And it half-opens again a full cooldown later.
        assert breaker.allow(10.3)

    def test_board_isolates_classes(self):
        board = BreakerBoard(failure_threshold=1, cooldown_s=5.0)
        board.breaker("run:gemm").record_failure(0.0)
        assert not board.breaker("run:gemm").allow(0.1)
        assert board.breaker("run:atax").allow(0.1)
        snapshot = board.snapshot(0.1)
        assert snapshot["run:gemm"] == "open"


class TestAdmission:
    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(0.1)  # one token refilled

    def test_bucket_never_exceeds_burst(self):
        bucket = TokenBucket(rate=1000.0, burst=1.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_queue_full_rejected_before_tokens(self):
        admission = AdmissionController(
            queue_limit=2, tenant_rate=100.0, tenant_burst=100.0
        )
        assert admission.admit("t", queue_depth=0, now=0.0) is None
        assert (
            admission.admit("t", queue_depth=2, now=0.0)
            is ErrorCode.QUEUE_FULL
        )
        # The queue-full shed must not have consumed a token.
        assert admission.admit("t", queue_depth=1, now=0.0) is None

    def test_rate_limit_is_per_tenant(self):
        admission = AdmissionController(
            queue_limit=100, tenant_rate=1.0, tenant_burst=1.0
        )
        assert admission.admit("a", queue_depth=0, now=0.0) is None
        assert (
            admission.admit("a", queue_depth=0, now=0.0)
            is ErrorCode.RATE_LIMITED
        )
        assert admission.admit("b", queue_depth=0, now=0.0) is None

    def test_snapshot_counts_rejections(self):
        admission = AdmissionController(
            queue_limit=1, tenant_rate=1.0, tenant_burst=1.0
        )
        admission.admit("a", queue_depth=1, now=0.0)
        admission.admit("a", queue_depth=0, now=0.0)
        admission.admit("a", queue_depth=0, now=0.0)
        snapshot = admission.snapshot(0.0)
        assert snapshot["rejected"]["queue_full"] == 1
        assert snapshot["rejected"]["rate_limited"] == 1


class TestBreakerOpenStateRegressions:
    """Regression: ``record_success`` used to set CLOSED unconditionally,
    so a slow success from a request dispatched *before* the trip
    closed an OPEN breaker and bypassed the cooldown entirely."""

    def test_late_success_does_not_close_open_breaker(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(0.0)  # trips: OPEN at t=0
        assert breaker.current_state(0.1) is BreakerState.OPEN
        # A request dispatched before the trip completes healthily
        # while the breaker is OPEN and mid-cooldown.  It proves
        # nothing about recovery — the cooldown must stand.
        breaker.record_success(1.0)
        assert breaker.current_state(1.1) is BreakerState.OPEN
        assert not breaker.allow(1.1)
        # Recovery still follows the legal path: cooldown, probe,
        # probe success, CLOSED.
        assert breaker.allow(5.1)  # half-open probe
        breaker.record_success(5.2)
        assert breaker.current_state(5.3) is BreakerState.CLOSED

    def test_multi_probe_half_open_needs_every_probe(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, half_open_probes=2
        )
        breaker.record_failure(0.0)
        assert breaker.allow(5.1)  # probe 1
        assert breaker.allow(5.1)  # probe 2
        assert not breaker.allow(5.1)  # probe budget spent
        breaker.record_success(5.2)  # 1 of 2: not yet closed
        assert breaker.current_state(5.3) is BreakerState.HALF_OPEN
        breaker.record_success(5.4)  # 2 of 2: all probes healthy
        assert breaker.current_state(5.5) is BreakerState.CLOSED

    def test_multi_probe_failure_reopens_and_resets_successes(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=5.0, half_open_probes=2
        )
        breaker.record_failure(0.0)
        assert breaker.allow(5.1)
        assert breaker.allow(5.1)
        breaker.record_success(5.2)
        breaker.record_failure(5.3)  # second probe failed: re-OPEN
        assert breaker.current_state(5.4) is BreakerState.OPEN
        # The next half-open episode starts from zero successes.
        assert breaker.allow(10.4)
        assert breaker.allow(10.4)
        breaker.record_success(10.5)
        assert breaker.current_state(10.6) is BreakerState.HALF_OPEN
        breaker.record_success(10.7)
        assert breaker.current_state(10.8) is BreakerState.CLOSED


class TestAdmissionRegressions:
    """Regression: ``queue_limit=0`` used to reject *every* request
    with QUEUE_FULL, even with the whole pool idle — contradicting the
    documented "0 disables queuing" semantics."""

    def test_queue_limit_zero_admits_with_idle_worker(self):
        admission = AdmissionController(
            queue_limit=0, tenant_rate=100.0, tenant_burst=100.0
        )
        assert (
            admission.admit("t", queue_depth=0, now=0.0, idle_workers=1)
            is None
        )

    def test_queue_limit_zero_sheds_with_busy_pool(self):
        admission = AdmissionController(
            queue_limit=0, tenant_rate=100.0, tenant_burst=100.0
        )
        assert (
            admission.admit("t", queue_depth=0, now=0.0, idle_workers=0)
            is ErrorCode.QUEUE_FULL
        )

    def test_full_queue_still_admits_when_a_worker_is_free(self):
        # The queue bound caps *queued* work; a request that can start
        # immediately never joins the queue, so it is not shed.
        admission = AdmissionController(
            queue_limit=2, tenant_rate=100.0, tenant_burst=100.0
        )
        assert (
            admission.admit("t", queue_depth=2, now=0.0, idle_workers=1)
            is None
        )
        assert (
            admission.admit("t", queue_depth=2, now=0.0, idle_workers=0)
            is ErrorCode.QUEUE_FULL
        )

    def test_lazy_bucket_seeds_refill_clock_at_creation(self):
        # Regression: lazily created buckets started with
        # ``updated_at=0.0``, so their first ``_refill(now)`` computed
        # ``elapsed ~= now`` — harmless only because tokens cap at
        # burst, but any ``available()`` accounting taken before the
        # first ``try_take`` was computed from a fictitious epoch.
        admission = AdmissionController(
            queue_limit=4, tenant_rate=2.0, tenant_burst=10.0
        )
        bucket = admission._bucket("t", now=123.5)
        assert bucket.updated_at == 123.5
        assert bucket.available(123.5) == 10.0
        # Refill accounting is anchored at creation time: after one
        # take, half a second restores exactly rate * 0.5 tokens.
        assert bucket.try_take(123.5)
        assert bucket.available(124.0) == 10.0 - 1.0 + 1.0  # capped math
        admission2 = AdmissionController(
            queue_limit=4, tenant_rate=2.0, tenant_burst=10.0
        )
        bucket2 = admission2._bucket("t", now=50.0)
        for _ in range(10):
            assert bucket2.try_take(50.0)
        # Drained at t=50; at t=50.5 exactly one token has refilled.
        assert bucket2.available(50.5) == 1.0
        assert bucket2.try_take(50.5)
        assert not bucket2.try_take(50.5)
