"""Resilient long-lived simulation service (``repro-streampim serve``).

The serving layer on top of the one-shot toolkit: a persistent asyncio
server with a supervised multiprocess worker pool, whose *failure
behaviour* is the contract — per-request deadlines with cooperative
cancellation, bounded retry with backoff for transient failures,
crash redelivery with a dead-letter bound, per-tenant token-bucket
admission over a bounded queue, same-key grouping on the typed request
spec (identical compiles share one result, identical runs share one
warm-worker dispatch), deficit-round-robin fair scheduling across
tenants, per-workload-class circuit breaking, and graceful drain on
SIGTERM.  See ``docs/serving.md`` for the protocol and the failure
semantics table.

Layering::

    protocol   wire format, typed request spec, grouping policy,
               typed error codes, HTTP status mapping
    retry      backoff + circuit-breaker state machines (pure)
    admission  token buckets + bounded-queue gate (pure)
    scheduling deficit-round-robin fair queue across tenants (pure)
    core       THE state machine: deadlines/retries/redelivery/
               same-key grouping/drain; no I/O, no clock (pure)
    supervisor worker processes, heartbeats, kill/respawn
    server     asyncio shell executing the core's actions
    http       stdlib HTTP/REST adapter onto the same core
    client     blocking socket client
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.core import (
    CoreConfig,
    Dispatch,
    KillWorker,
    Respond,
    ServiceCore,
)
from repro.serve.http import HttpFrontend
from repro.serve.protocol import (
    CLIENT_RETRYABLE,
    HTTP_STATUS,
    ErrorCode,
    ProtocolError,
    Request,
    Response,
    ServeError,
    http_status,
    parse_request,
    parse_response,
    work_spec,
)
from repro.serve.scheduling import DeficitRoundRobin
from repro.serve.retry import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.server import (
    ServeConfig,
    SimulationServer,
    run_server,
)
from repro.serve.supervisor import WorkerOptions, WorkerPool, execute_request

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "ServeClient",
    "ServeClientError",
    "CoreConfig",
    "ServiceCore",
    "Respond",
    "Dispatch",
    "KillWorker",
    "ErrorCode",
    "CLIENT_RETRYABLE",
    "HTTP_STATUS",
    "http_status",
    "HttpFrontend",
    "DeficitRoundRobin",
    "ProtocolError",
    "Request",
    "Response",
    "ServeError",
    "parse_request",
    "parse_response",
    "work_spec",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerBoard",
    "BreakerState",
    "ServeConfig",
    "SimulationServer",
    "run_server",
    "WorkerPool",
    "WorkerOptions",
    "execute_request",
]
