"""Stdlib HTTP/REST frontend over the same service core.

A deliberately small asyncio HTTP/1.1 adapter — no ``aiohttp``, no
framework — that maps a REST surface onto the exact same
:class:`~repro.serve.core.ServiceCore` the line protocol uses:

======  =============  ==============================================
method  path           behaviour
======  =============  ==============================================
POST    ``/v1/run``    submit a ``run`` request; body = params JSON
POST    ``/v1/compile``  submit a ``compile`` request
GET     ``/v1/stats``  operational snapshot (queue, breakers, pool)
POST    ``/v1/drain``  begin graceful shutdown; returns 202
======  =============  ==============================================

Request bodies are JSON objects: ``params`` (object), plus optional
``id`` (string; generated when absent), ``tenant`` and ``deadline_ms``.
The route supplies the method and the body goes through the line
protocol's own :func:`~repro.serve.protocol.parse_request`, so both
frontends reject the same malformed input (``INVALID_REQUEST`` → 400,
wrong-typed ``run``/``compile`` params included).
Responses carry the same envelope the line protocol emits; failures
additionally map their :class:`~repro.serve.protocol.ErrorCode` to an
HTTP status via :data:`~repro.serve.protocol.HTTP_STATUS`
(``RATE_LIMITED`` → 429, ``QUEUE_FULL`` → 503, ``DEADLINE_EXCEEDED`` →
504, ...), so off-the-shelf clients can apply stock retry policies.

Because the adapter reuses :meth:`SimulationServer.submit_request`,
every robustness property of the core — admission, fair scheduling,
same-key grouping, exactly-once, drain — applies identically to HTTP
traffic; an HTTP ``run`` can share a dispatch with line-protocol peers.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import time
from typing import Dict, Optional, Tuple

from repro.serve.protocol import (
    MAX_LINE_BYTES,
    WORKER_METHODS,
    ErrorCode,
    ProtocolError,
    Response,
    ServeError,
    http_status,
    parse_request,
)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Longest accepted header block (request line + headers).
_MAX_HEADER_BYTES = 16 * 1024


class _BadRequest(Exception):
    """Malformed HTTP input; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpFrontend:
    """Binds a localhost HTTP listener onto one :class:`SimulationServer`."""

    def __init__(self, server) -> None:
        self.server = server
        self._listener: Optional[asyncio.AbstractServer] = None
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    async def start(self, host: str, port: int) -> None:
        self._listener = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )

    @property
    def bound_port(self) -> int:
        if self._listener is None or not self._listener.sockets:
            return 0
        return self._listener.sockets[0].getsockname()[1]

    async def stop_listening(self) -> None:
        if self._listener is not None:
            self._listener.close()
            with contextlib.suppress(Exception):
                await self._listener.wait_closed()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._send(
                        writer,
                        exc.status,
                        {"error": {"message": str(exc)}},
                        close=True,
                    )
                    break
                if parsed is None:
                    break  # clean EOF between requests
                method, path, headers, body = parsed
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, payload = await self._route(method, path, body)
                await self._send(
                    writer, status, payload, close=not keep_alive
                )
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF before any bytes."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _BadRequest(400, "truncated request head")
        except asyncio.LimitOverrunError:
            raise _BadRequest(413, "request head too large")
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, f"malformed request line {lines[0]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _BadRequest(400, f"bad Content-Length {length_text!r}")
        if length < 0 or length > MAX_LINE_BYTES:
            raise _BadRequest(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _BadRequest(400, "truncated request body")
        return method, path, headers, body

    # ------------------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        path = path.split("?", 1)[0]
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": {"message": "use GET"}}
            return 200, self.server.stats(time.time())
        if path == "/v1/drain":
            if method != "POST":
                return 405, {"error": {"message": "use POST"}}
            self.server.request_drain()
            return 202, {"draining": True}
        if path in ("/v1/run", "/v1/compile"):
            if method != "POST":
                return 405, {"error": {"message": "use POST"}}
            return await self._submit(path.rsplit("/", 1)[1], body)
        return 404, {"error": {"message": f"no route for {path}"}}

    async def _submit(
        self, serve_method: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Submit one run/compile through the shared parser and core path.

        The body becomes a request object (the route names the method,
        and an absent id is generated) validated by the same
        :func:`~repro.serve.protocol.parse_request` as the line protocol.
        """
        if serve_method not in WORKER_METHODS:
            raise ValueError(f"not a worker method: {serve_method!r}")
        try:
            obj = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": {"message": f"bad JSON body: {exc}"}}
        if not isinstance(obj, dict):
            return 400, {"error": {"message": "body must be an object"}}
        obj = dict(obj, method=serve_method)
        if obj.get("id") is None:
            obj["id"] = f"http-{next(self._ids)}-{id(self) & 0xFFFF:x}"
        try:
            request = parse_request(obj)
        except ProtocolError as exc:
            request_id = obj["id"] if isinstance(obj["id"], str) else ""
            response = Response.failure(
                request_id, ServeError(exc.code, str(exc))
            )
            return http_status(exc.code), response.to_dict()
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Response]" = loop.create_future()

        def sink(response: Response) -> None:
            if not future.done():
                future.set_result(response)

        self.server.submit_request(request, sink, time.time())
        response = await future
        payload = response.to_dict()
        if response.ok:
            return 200, payload
        code = response.error.code if response.error else ErrorCode.INTERNAL
        return http_status(code), payload

    # ------------------------------------------------------------------
    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        close: bool,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, RuntimeError):
            pass
