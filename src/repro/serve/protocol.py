"""Wire protocol of the long-lived simulation service.

The service speaks newline-delimited JSON over a unix socket (or a
localhost TCP port): one request object per line in, one response
object per line out, correlated by a caller-chosen ``id``.  The
protocol is deliberately tiny — the contract that matters is the
*failure* half:

* every accepted request is answered **exactly once**, with either a
  result or a typed error;
* every error carries an :class:`ErrorCode` whose ``retryable`` flag
  tells the client whether resubmitting later can succeed (queue
  pressure, open breaker, crashed worker) or never will (verifier
  findings, simulation faults, malformed requests);
* rejections that protect the service (admission, breaker, drain) are
  *fast* — they are produced without dispatching any work, the
  ``503``-style shed path.

The failure-semantics table (code -> retryable? -> client guidance)
is documented in ``docs/serving.md``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from repro.workloads.request import CompileSpec, RunSpec, WorkSpec

#: Protocol revision; servers reject requests from newer majors.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded request/response line (guards the reader
#: against unbounded buffering from a misbehaving peer).
MAX_LINE_BYTES = 1 << 20


class ErrorCode(str, enum.Enum):
    """Typed failure classes a response can carry.

    Members are grouped by *who* decided to fail the request:

    * admission/shed (never dispatched): ``QUEUE_FULL``,
      ``RATE_LIMITED``, ``CIRCUIT_OPEN``, ``DRAINING``;
    * caller mistakes: ``INVALID_REQUEST``, ``UNKNOWN_METHOD``,
      ``UNKNOWN_WORKLOAD``;
    * execution outcomes: ``DEADLINE_EXCEEDED``, ``VERIFY_FAILED``,
      ``SIMULATION_FAULT``, ``CACHE_IO``, ``WORKER_CRASH``,
      ``DEAD_LETTER``, ``INTERNAL``.
    """

    # Admission / shed path (request was never dispatched).
    QUEUE_FULL = "QUEUE_FULL"
    RATE_LIMITED = "RATE_LIMITED"
    CIRCUIT_OPEN = "CIRCUIT_OPEN"
    DRAINING = "DRAINING"

    # Caller mistakes.
    INVALID_REQUEST = "INVALID_REQUEST"
    UNKNOWN_METHOD = "UNKNOWN_METHOD"
    UNKNOWN_WORKLOAD = "UNKNOWN_WORKLOAD"

    # Execution outcomes.
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    VERIFY_FAILED = "VERIFY_FAILED"
    SIMULATION_FAULT = "SIMULATION_FAULT"
    CACHE_IO = "CACHE_IO"
    WORKER_CRASH = "WORKER_CRASH"
    DEAD_LETTER = "DEAD_LETTER"
    INTERNAL = "INTERNAL"


#: Errors the *server* retries internally (bounded, with backoff)
#: before one of them ever reaches a client.
SERVER_RETRYABLE = frozenset({ErrorCode.WORKER_CRASH, ErrorCode.CACHE_IO})

#: Errors a *client* may meaningfully retry later: the condition is
#: transient (load, churn, transient I/O), not a property of the
#: request itself.
CLIENT_RETRYABLE = frozenset(
    {
        ErrorCode.QUEUE_FULL,
        ErrorCode.RATE_LIMITED,
        ErrorCode.CIRCUIT_OPEN,
        ErrorCode.DRAINING,
        ErrorCode.CACHE_IO,
        ErrorCode.WORKER_CRASH,
        ErrorCode.DEAD_LETTER,
    }
)

#: ErrorCode -> HTTP status, used by the REST adapter
#: (:mod:`repro.serve.http`).  Shed-path rejections map to the classic
#: load-shedding statuses so off-the-shelf HTTP clients can apply their
#: stock retry policies: 429 Too Many Requests, 503 Service
#: Unavailable, 504 Gateway Timeout.
HTTP_STATUS: Dict[ErrorCode, int] = {
    ErrorCode.QUEUE_FULL: 503,
    ErrorCode.RATE_LIMITED: 429,
    ErrorCode.CIRCUIT_OPEN: 503,
    ErrorCode.DRAINING: 503,
    ErrorCode.INVALID_REQUEST: 400,
    ErrorCode.UNKNOWN_METHOD: 404,
    ErrorCode.UNKNOWN_WORKLOAD: 404,
    ErrorCode.DEADLINE_EXCEEDED: 504,
    ErrorCode.VERIFY_FAILED: 422,
    ErrorCode.SIMULATION_FAULT: 422,
    ErrorCode.CACHE_IO: 502,
    ErrorCode.WORKER_CRASH: 502,
    ErrorCode.DEAD_LETTER: 502,
    ErrorCode.INTERNAL: 500,
}


def http_status(code: ErrorCode) -> int:
    """HTTP status for one typed failure code (500 for unmapped)."""
    return HTTP_STATUS.get(code, 500)


#: Methods executed on pool workers (everything else is answered by the
#: server process directly).
WORKER_METHODS = frozenset({"run", "compile"})

#: Server-answered control methods.
CONTROL_METHODS = frozenset({"ping", "stats", "drain"})

#: Debug/chaos methods, only honoured when the server was started with
#: debug methods enabled (``serve --chaos``); used by the chaos bench
#: to crash workers and inject slow requests through the normal queue.
DEBUG_METHODS = frozenset({"x-crash", "x-sleep", "x-fault"})


#: Same-key grouping policy per worker method (``docs/serving.md``).
#: Requests with equal :func:`group_key` share one dispatch; a
#: ``shared`` group dispatches only its oldest member and every member
#: receives that one result, a ``per-item`` group dispatches every
#: member, each with its own deadline, attempts and envelope, and the
#: worker runs the deterministic spec once for all of them.
SHARED = "shared"
PER_ITEM = "per-item"
GROUP_POLICY: Dict[str, str] = {"compile": SHARED, "run": PER_ITEM}

#: The typed spec each worker method's params are parsed into.
WORK_SPECS = {"run": RunSpec, "compile": CompileSpec}
_PARAM_TYPES = {"seed": int, "platform": str, "deep": bool, "no_cache": bool}


class ProtocolError(ValueError):
    """A request that cannot be accepted; carries its rejection code."""

    def __init__(self, code: ErrorCode, message: str) -> None:
        super().__init__(message)
        self.code = code


def _invalid(message: str) -> ProtocolError:
    return ProtocolError(ErrorCode.INVALID_REQUEST, message)


def work_spec(method: str, params: Dict[str, object]) -> WorkSpec:
    """Validate ``params`` of a worker method into its typed spec.

    Omitted params take the spec's field defaults, the CLI's defaults
    too; params a method does not read are ignored.

    Raises:
        ProtocolError: ``INVALID_REQUEST`` for a wrong-typed or
            out-of-range param.
    """
    kind = WORK_SPECS[method]
    values = {
        f.name: params.get(f.name, f.default)
        for f in fields(kind)
        if f.name != "workload"
    }
    workload = params.get("workload", "")
    if not isinstance(workload, str):
        raise _invalid(f"workload must be a string, got {workload!r}")
    scale = values["scale"]
    if type(scale) not in (int, float) or not (
        math.isfinite(scale) and scale > 0
    ):
        raise _invalid(f"scale must be a finite number > 0, got {scale!r}")
    values["scale"] = float(scale)
    # Exact types: JSON booleans are not ints, and "false" is not a
    # boolean.
    for name, value in values.items():
        expected = _PARAM_TYPES.get(name)
        if expected is not None and type(value) is not expected:
            raise _invalid(
                f"{name} must be {expected.__name__}, got {value!r}"
            )
    return kind(workload=workload, **values)


def group_key(spec: Optional[WorkSpec]) -> Optional[WorkSpec]:
    """Same-key grouping key: the frozen spec itself, since equal specs
    do the same work; None without a spec or for a fresh compile that
    must run."""
    if spec is None or getattr(spec, "no_cache", False):
        return None
    return spec


@dataclass(frozen=True)
class Request:
    """One parsed request line.

    ``spec`` holds the typed params of a worker method; it is set by
    :func:`parse_request` and derived from ``method``/``params``, so it
    takes no part in equality.
    """

    id: str
    method: str
    params: Dict[str, object] = field(default_factory=dict)
    tenant: str = "default"
    deadline_ms: Optional[float] = None
    spec: Optional[WorkSpec] = field(default=None, compare=False, repr=False)

    @property
    def workload_class(self) -> str:
        """Circuit-breaker class: method plus the workload it names."""
        workload = self.params.get("workload")
        if isinstance(workload, str) and workload:
            return f"{self.method}:{workload}"
        return self.method

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "v": PROTOCOL_VERSION,
            "id": self.id,
            "method": self.method,
            "params": dict(self.params),
            "tenant": self.tenant,
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out


@dataclass(frozen=True)
class ServeError:
    """The typed error half of a response."""

    code: ErrorCode
    message: str
    attempts: int = 1
    redeliveries: int = 0
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def retryable(self) -> bool:
        return self.code in CLIENT_RETRYABLE

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "code": self.code.value,
            "message": self.message,
            "retryable": self.retryable,
            "attempts": self.attempts,
            "redeliveries": self.redeliveries,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass(frozen=True)
class Response:
    """One response line: a result or a typed error, never both."""

    id: str
    ok: bool
    result: Optional[Dict[str, object]] = None
    error: Optional[ServeError] = None

    @staticmethod
    def success(request_id: str, result: Dict[str, object]) -> "Response":
        return Response(id=request_id, ok=True, result=result)

    @staticmethod
    def failure(request_id: str, error: ServeError) -> "Response":
        return Response(id=request_id, ok=False, error=error)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"v": PROTOCOL_VERSION, "id": self.id, "ok": self.ok}
        if self.ok:
            out["result"] = self.result if self.result is not None else {}
        else:
            if self.error is None:
                raise ValueError("failure response without an error")
            out["error"] = self.error.to_dict()
        return out


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
def encode_message(payload: Dict[str, object]) -> bytes:
    """One JSON object, newline-terminated (the only framing)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, object]:
    """Parse one received line into a dict.

    Raises:
        ProtocolError: on oversized, undecodable or non-object lines.
    """
    if len(line) > MAX_LINE_BYTES:
        raise _invalid(f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _invalid(f"undecodable request line: {exc}")
    if not isinstance(obj, dict):
        raise _invalid("request line is not a JSON object")
    return obj


def parse_request(obj: Dict[str, object]) -> Request:
    """Validate a decoded request object.

    The params of a ``run``/``compile`` request are parsed into its
    typed spec here (:func:`work_spec`), so malformed params are
    rejected before any dispatch.

    Raises:
        ProtocolError: with ``INVALID_REQUEST`` on malformed input (the
            request id, when present and a string, is preserved so the
            rejection can still be correlated).
    """
    version = obj.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or version > PROTOCOL_VERSION:
        raise _invalid(f"unsupported protocol version {version!r}")
    request_id = obj.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise _invalid("request needs a non-empty string id")
    method = obj.get("method")
    if not isinstance(method, str) or not method:
        raise _invalid("request needs a method")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise _invalid("params must be an object")
    tenant = obj.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _invalid("tenant must be a non-empty string")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise _invalid(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)
    return Request(
        id=request_id,
        method=method,
        params=params,
        tenant=tenant,
        deadline_ms=deadline_ms,
        spec=work_spec(method, params) if method in WORKER_METHODS else None,
    )


def parse_response(obj: Dict[str, object]) -> Response:
    """Client-side: validate a decoded response object."""
    request_id = obj.get("id")
    if not isinstance(request_id, str):
        raise _invalid("response is missing its id")
    if obj.get("ok"):
        result = obj.get("result")
        return Response.success(
            request_id, result if isinstance(result, dict) else {}
        )
    error = obj.get("error")
    if not isinstance(error, dict):
        raise _invalid("failed response is missing error")
    try:
        code = ErrorCode(error.get("code"))
    except ValueError:
        code = ErrorCode.INTERNAL
    detail = error.get("detail")
    return Response.failure(
        request_id,
        ServeError(
            code=code,
            message=str(error.get("message", "")),
            attempts=int(error.get("attempts", 1) or 1),
            redeliveries=int(error.get("redeliveries", 0) or 0),
            detail=detail if isinstance(detail, dict) else {},
        ),
    )
