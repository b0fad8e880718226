"""Blocking client for the simulation service.

A thin, dependency-free socket client: connect to the server's unix
socket (or localhost TCP port), send newline-delimited JSON requests,
and read correlated responses.  Used by the ``repro-streampim client``
subcommand and by ``perfbench/serve_load.py`` for its control calls
(readiness and stats).  Connections are cheap and the protocol is
per-line, so no client-side multiplexing is needed: open one client
per thread.
"""

from __future__ import annotations

import itertools
import socket
import uuid
from typing import Dict, Optional

from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    decode_line,
    encode_message,
    parse_response,
)

_REQUEST_COUNTER = itertools.count(1)

# Auto-generated request ids must be unique across *processes*, not
# just within one: the server's exactly-once ledger spans connections,
# so two one-shot CLI invocations that both counted "c1" would have
# the second rejected as a duplicate.
_CLIENT_NONCE = uuid.uuid4().hex[:8]


class ServeClientError(ConnectionError):
    """Transport-level failure talking to the service."""


class ServeClient:
    """One connection to the service; safe for sequential use.

    Args:
        socket_path: unix socket path (preferred).
        host / port: TCP fallback, for platforms without unix sockets.
        timeout_s: socket timeout for connect and each response read.
        tenant: default tenant stamped on requests.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        timeout_s: float = 60.0,
        tenant: str = "default",
    ) -> None:
        if socket_path is None and host is None:
            raise ValueError("client needs a socket path or a host/port")
        self.tenant = tenant
        self.timeout_s = timeout_s
        try:
            if socket_path is not None:
                self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self._sock.settimeout(timeout_s)
                self._sock.connect(socket_path)
            else:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout_s
                )
        except OSError as exc:
            raise ServeClientError(
                f"cannot connect to the service: {exc}"
            ) from exc
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def call(
        self,
        method: str,
        params: Optional[Dict[str, object]] = None,
        deadline_ms: Optional[float] = None,
        tenant: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> Response:
        """Send one request and block for its response."""
        if request_id is None:
            request_id = f"c{_CLIENT_NONCE}-{next(_REQUEST_COUNTER)}"
        request = Request(
            id=request_id,
            method=method,
            params=params or {},
            tenant=tenant or self.tenant,
            deadline_ms=deadline_ms,
        )
        try:
            self._sock.sendall(encode_message(request.to_dict()))
        except OSError as exc:
            raise ServeClientError(f"send failed: {exc}") from exc
        while True:
            try:
                line = self._file.readline()
            except OSError as exc:
                raise ServeClientError(f"read failed: {exc}") from exc
            if not line:
                raise ServeClientError(
                    "connection closed before a response arrived"
                )
            try:
                response = parse_response(decode_line(line))
            except ProtocolError as exc:
                raise ServeClientError(f"bad response line: {exc}") from exc
            if response.id in ("", request_id):
                return response
            # A response for another id on this connection should be
            # impossible with sequential calls; skip defensively.

    # ------------------------------------------------------------------
    def ping(self) -> Response:
        return self.call("ping")

    def stats(self) -> Response:
        return self.call("stats")

    def drain(self) -> Response:
        return self.call("drain")

    def close(self) -> None:
        for closer in (self._file.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
