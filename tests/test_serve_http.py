"""HTTP/REST adapter tests.

Three layers, cheapest first: the ErrorCode→HTTP-status table, the
routing/parsing logic against a stub server (no sockets), and one live
end-to-end class that boots the real service with ``--http-port 0``
and speaks actual HTTP/1.1 at it with ``http.client``.
"""

import asyncio
import http.client
import json
import os
import re
import subprocess
import sys
import time

import pytest

from repro.serve.http import HttpFrontend, _BadRequest
from repro.serve.protocol import (
    HTTP_STATUS,
    ErrorCode,
    Response,
    ServeError,
    http_status,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestStatusMap:
    def test_issue_mandated_mappings(self):
        assert HTTP_STATUS[ErrorCode.RATE_LIMITED] == 429
        assert HTTP_STATUS[ErrorCode.QUEUE_FULL] == 503
        assert HTTP_STATUS[ErrorCode.DEADLINE_EXCEEDED] == 504

    def test_every_code_has_a_mapping(self):
        for code in ErrorCode:
            assert 400 <= HTTP_STATUS[code] <= 599, code

    def test_helper_defaults_to_500(self):
        assert http_status(ErrorCode.INTERNAL) == 500
        assert http_status("not-a-code") == 500

    def test_client_faults_are_4xx_server_faults_5xx(self):
        assert http_status(ErrorCode.INVALID_REQUEST) == 400
        assert http_status(ErrorCode.UNKNOWN_WORKLOAD) == 404
        assert http_status(ErrorCode.CIRCUIT_OPEN) == 503
        assert http_status(ErrorCode.WORKER_CRASH) == 502


class _FakeServer:
    """Stub of SimulationServer: scripted sink answers, call recording."""

    def __init__(self, answer=None):
        self.answer = answer or (
            lambda request: Response.success(request.id, {"echo": True})
        )
        self.submitted = []
        self.drained = False

    def stats(self, now):
        return {"server": {"fake": True}}

    def request_drain(self):
        self.drained = True

    def submit_request(self, request, sink, now):
        self.submitted.append(request)
        sink(self.answer(request))


def route(frontend, method, path, body=b""):
    return asyncio.run(frontend._route(method, path, body))


class TestRouting:
    def test_stats_get(self):
        status, payload = route(
            HttpFrontend(_FakeServer()), "GET", "/v1/stats"
        )
        assert status == 200
        assert payload == {"server": {"fake": True}}

    def test_stats_wrong_verb(self):
        status, _ = route(HttpFrontend(_FakeServer()), "POST", "/v1/stats")
        assert status == 405

    def test_drain_accepted(self):
        fake = _FakeServer()
        status, payload = route(HttpFrontend(fake), "POST", "/v1/drain")
        assert status == 202 and payload == {"draining": True}
        assert fake.drained

    def test_unknown_route_404(self):
        status, _ = route(HttpFrontend(_FakeServer()), "GET", "/v2/run")
        assert status == 404

    def test_query_string_is_ignored_for_routing(self):
        status, _ = route(
            HttpFrontend(_FakeServer()), "GET", "/v1/stats?pretty=1"
        )
        assert status == 200

    def test_run_success_is_200_with_envelope(self):
        fake = _FakeServer()
        status, payload = route(
            HttpFrontend(fake),
            "POST",
            "/v1/run",
            json.dumps(
                {"id": "r1", "params": {"workload": "atax"}, "tenant": "t9"}
            ).encode(),
        )
        assert status == 200
        assert payload["id"] == "r1" and payload["ok"]
        (request,) = fake.submitted
        assert request.method == "run"
        assert request.tenant == "t9"
        assert request.params == {"workload": "atax"}

    def test_compile_path_sets_method(self):
        fake = _FakeServer()
        route(HttpFrontend(fake), "POST", "/v1/compile", b"{}")
        assert fake.submitted[0].method == "compile"

    def test_generated_ids_are_unique(self):
        fake = _FakeServer()
        frontend = HttpFrontend(fake)
        route(frontend, "POST", "/v1/run", b"{}")
        route(frontend, "POST", "/v1/run", b"{}")
        ids = [r.id for r in fake.submitted]
        assert len(set(ids)) == 2 and all(ids)

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[1,2]",
            b'{"params": 7}',
            b'{"id": 9}',
            b'{"tenant": ""}',
            b'{"deadline_ms": -5}',
            b'{"params": {"scale": "abc"}}',
        ],
    )
    def test_malformed_bodies_are_400(self, body):
        status, payload = route(
            HttpFrontend(_FakeServer()), "POST", "/v1/run", body
        )
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize(
        ("code", "want"),
        [
            (ErrorCode.RATE_LIMITED, 429),
            (ErrorCode.QUEUE_FULL, 503),
            (ErrorCode.DEADLINE_EXCEEDED, 504),
            (ErrorCode.UNKNOWN_WORKLOAD, 404),
        ],
    )
    def test_core_rejections_map_to_http_status(self, code, want):
        fake = _FakeServer(
            answer=lambda request: Response.failure(
                request.id, ServeError(code=code, message="no")
            )
        )
        status, payload = route(
            HttpFrontend(fake), "POST", "/v1/run", b"{}"
        )
        assert status == want
        assert payload["error"]["code"] == code.value


class TestRequestParsing:
    def parse(self, raw):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await HttpFrontend(_FakeServer())._read_request(reader)

        return asyncio.run(go())

    def test_minimal_get(self):
        method, path, headers, body = self.parse(
            b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert (method, path, body) == ("GET", "/v1/stats", b"")
        assert headers["host"] == "x"

    def test_body_read_by_content_length(self):
        *_, body = self.parse(
            b"POST /v1/run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}{}"
        )
        assert body == b"{}{}"

    def test_clean_eof_is_none(self):
        assert self.parse(b"") is None

    @pytest.mark.parametrize(
        ("raw", "status"),
        [
            (b"GET /v1/stats\r\n\r\n", 400),  # no HTTP version
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n", 400),
            (b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
            (b"GET / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort", 400),
            (b"truncated head no terminator", 400),
        ],
    )
    def test_malformed_heads_raise_with_status(self, raw, status):
        with pytest.raises(_BadRequest) as err:
            self.parse(raw)
        assert err.value.status == status


@pytest.fixture(scope="class")
def live_http(tmp_path_factory):
    """Real service with both frontends; yields the bound HTTP port."""
    root = tmp_path_factory.mktemp("serve-http")
    socket_path = str(root / "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_STREAMPIM_CACHE_DIR"] = str(root / "cache")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--socket",
            socket_path,
            "--http-port",
            "0",
            "--workers",
            "2",
            "--cache-dir",
            str(root / "cache"),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            raise RuntimeError(f"no http endpoint in ready line: {line!r}")
        yield int(match.group(1)), proc
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=15)


def http_call(port, method, path, obj=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(obj).encode() if obj is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


class TestLiveHttp:
    def test_stats_round_trip(self, live_http):
        port, _ = live_http
        status, payload = http_call(port, "GET", "/v1/stats")
        assert status == 200
        assert len(payload["pool"]["workers"]) == 2

    def test_run_matches_in_process_execution(self, live_http):
        from repro.serve.supervisor import execute_request

        port, _ = live_http
        params = {"workload": "atax", "platform": "StPIM", "scale": 0.01}
        status, payload = http_call(
            port, "POST", "/v1/run", {"id": "h1", "params": params}
        )
        assert status == 200 and payload["ok"]
        local = execute_request("run", params, None, {})
        assert payload["result"] == local["result"]

    def test_unknown_workload_is_404_with_typed_error(self, live_http):
        port, _ = live_http
        status, payload = http_call(
            port, "POST", "/v1/run", {"params": {"workload": "nope"}}
        )
        assert status == 404
        assert payload["error"]["code"] == ErrorCode.UNKNOWN_WORKLOAD.value

    def test_unknown_route_is_404(self, live_http):
        port, _ = live_http
        status, _ = http_call(port, "GET", "/nope")
        assert status == 404

    def test_zz_drain_shuts_the_service_down(self, live_http):
        # Named zz: runs last in the class; the fixture's finally
        # tolerates the process already being gone.
        port, proc = live_http
        status, payload = http_call(port, "POST", "/v1/drain")
        assert status == 202 and payload == {"draining": True}
        assert proc.wait(timeout=30) == 0
