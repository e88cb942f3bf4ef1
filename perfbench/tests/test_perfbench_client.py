"""The serve-mixed load generator: one thread, a closed loop of connections."""

import socketserver
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as R  # noqa: E402
import workloads as W  # noqa: E402


class StubHandler(socketserver.StreamRequestHandler):
    """Answers ``POST`` bodies ``ok:<n>`` with 200 and ``<n>``, ``bad`` with
    503, and ``drop`` by closing without an answer; counts queries in flight."""

    def handle(self):
        server = self.server
        with server.lock:
            server.inflight += 1
            server.peak = max(server.peak, server.inflight)
        try:
            length = 0
            while True:
                line = self.rfile.readline()
                if line in (b"\r\n", b""):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            body = self.rfile.read(length)
            time.sleep(0.005)
            if body == b"drop":
                return
            status, payload = (503, b"{}") if body == b"bad" else (200, body.split(b":")[1])
            self.wfile.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                             % (status, len(payload), payload))
        finally:
            with server.lock:
                server.inflight -= 1


def stub_server():
    server = socketserver.ThreadingTCPServer((R.HOST, 0), StubHandler)
    server.daemon_threads = True
    server.lock, server.inflight, server.peak = threading.Lock(), 0, 0
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def test_parse_response():
    assert R.parse_response(b"HTTP/1.1 200 OK\r\nA: b\r\n\r\n{\"x\": 1}") == (200, b'{"x": 1}')
    assert R.parse_response(b"HTTP/1.1 503 Busy\r\n\r\n") == (503, b"")
    assert R.parse_response(b"") == (0, b"")
    assert R.parse_response(b"HTTP/1.1 200 OK\r\n") == (0, b"")


def test_closed_loop_keeps_the_connection_count_and_reports_every_query():
    server = stub_server()
    try:
        port = server.server_address[1]
        bodies = [b"ok:%d" % i for i in range(5)] + [b"bad", b"drop"]
        requests = [R.request_bytes(port, "POST", "/q", body) for body in bodies]
        order = [0, 1, 2, 3, 4, 5, 6] * 4
        wall, samples = R.closed_loop(port, requests, order)
        assert R.request(port, "POST", "/q", b"ok:7") == (200, b"7")
    finally:
        server.shutdown()
        server.server_close()
    assert sorted(k for k, *_ in samples) == sorted(order)
    assert server.peak == W.SERVE_CONNECTIONS
    for k, status, seconds, body in samples:
        assert 0 < seconds <= wall
        if k < 5:
            assert (status, body) == (200, b"%d" % k)
        else:
            assert status == (503 if k == 5 else 0)
