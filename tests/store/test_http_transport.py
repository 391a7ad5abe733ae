"""Transport regression tests: every response leaves in one send.

A handler that writes the header block and the body in two sends lets
Nagle's algorithm hold the body until the peer's delayed ACK, ~40 ms
on every request after the first on a keep-alive connection. These
tests wrap the accepted connection's send path and assert exactly one
send per response on each kind of response the service writes: a JSON
200, the ``/metrics`` text scrape, a ``429`` with ``Retry-After``, and
the ``400``/``413`` ``Content-Length`` paths that close the connection.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.obs import COLLECTOR
from repro.service import SERVICE_SCHEMA, make_server
from repro.service.admission import TenantConfig

TOKEN = "alpha-token"
AUTH = {"Authorization": f"Bearer {TOKEN}"}


class _CountingSocket(socket.socket):
    """A server-side connection that records every send call."""

    sends: list

    def send(self, data, *args):
        self.sends.append(len(data))
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends.append(len(data))
        return super().sendall(data, *args)


@pytest.fixture
def server(tmp_path):
    # A near-zero refill rate: the first two requests pass, the third
    # is rate-limited for the rest of the test.
    server = make_server(
        tmp_path / "store",
        tenants=[TenantConfig("alpha", TOKEN, rate=0.001, burst=2.0)],
    )
    server.connections = []
    accept = server.get_request

    def get_request():
        sock, address = accept()
        counting = _CountingSocket(
            sock.family, sock.type, sock.proto, fileno=sock.detach()
        )
        counting.sends = []
        server.connections.append(counting)
        return counting, address

    server.get_request = get_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _connection(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _sends(server) -> list[int]:
    (connection,) = server.connections
    return connection.sends


def _raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; read until the server closes."""
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestOneSendPerResponse:
    def test_keep_alive_responses_each_take_one_send(self, server):
        conn = _connection(server)
        kinds = []
        for path, headers in (
            ("/stats", AUTH),
            ("/metrics", {}),
            ("/stats", AUTH),
            ("/stats", AUTH),
        ):
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            body = response.read()
            kinds.append((response.status, response.getheader("Retry-After")))
            assert len(_sends(server)) == len(kinds), path
            # The one send carried the whole response, body included.
            assert _sends(server)[-1] > len(body) > 0
        conn.close()
        assert [status for status, _ in kinds] == [200, 200, 200, 429]
        assert int(kinds[-1][1]) >= 1

    def test_metrics_scrape_is_one_send(self, server):
        conn = _connection(server)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        text = response.read().decode()
        conn.close()
        assert response.status == 200
        assert "repro_http_requests_total" in text
        assert len(_sends(server)) == 1
        assert _sends(server)[0] > len(text)

    def test_large_json_response_is_one_send(self, server):
        # Far past any fixed write buffer: 300 spans of ~500 bytes.
        trace_id = "transport-large-response"
        spans = [
            {"name": f"span-{index}-" + "x" * 400, "trace_id": trace_id,
             "span_id": f"s{index}"}
            for index in range(300)
        ]
        conn = _connection(server)
        conn.request(
            "POST",
            "/trace",
            body=json.dumps({"spans": spans}),
            headers={**AUTH, "Content-Type": "application/json"},
        )
        conn.getresponse().read()
        conn.request("GET", f"/trace?trace_id={trace_id}", headers=AUTH)
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        COLLECTOR.clear()
        assert response.status == 200
        assert payload["count"] == 300
        assert len(_sends(server)) == 2
        assert _sends(server)[1] > 128 * 1024

    def test_post_json_200_is_one_send(self, server):
        conn = _connection(server)
        conn.request(
            "POST",
            "/trace",
            body=json.dumps({"spans": []}),
            headers={**AUTH, "Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        conn.close()
        assert response.status == 200
        assert payload["schema"] == SERVICE_SCHEMA
        assert len(_sends(server)) == 1

    @pytest.mark.parametrize(
        ("length", "status"), [("banana", 400), (str(10**18), 413)]
    )
    def test_content_length_errors_are_one_send(self, server, length, status):
        response = _raw_exchange(
            server,
            (
                "POST /runs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n"
            ).encode(),
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert int(head.split(b" ", 2)[1]) == status
        assert json.loads(body)["schema"] == SERVICE_SCHEMA
        # The server closed the connection after answering, so every
        # send it will ever make on it has happened.
        assert _sends(server) == [len(response)]

    def test_nagle_is_disabled_on_served_connections(self, server):
        conn = _connection(server)
        conn.request("GET", "/healthz")
        conn.getresponse().read()
        (served,) = server.connections
        assert served.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        conn.close()


def test_expect_100_continue_is_sent_before_the_body(server):
    # The interim response must leave before the final one: a client
    # that waits for it before sending the body would otherwise stall.
    host, port = server.server_address[:2]
    body = json.dumps({"spans": []}).encode()
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            (
                "POST /trace HTTP/1.1\r\nHost: x\r\n"
                f"Authorization: Bearer {TOKEN}\r\n"
                "Expect: 100-continue\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
        )
        interim = sock.recv(65536)
        assert interim.startswith(b"HTTP/1.1 100")
        sock.sendall(body)
        final = b""
        while not final.endswith(b"}\n"):
            chunk = sock.recv(65536)
            assert chunk
            final += chunk
    assert final.startswith(b"HTTP/1.1 200")
