"""Shared test set-up.

One hypothesis profile for every property test under ``tests/``. Examples
are derandomized, so each run draws the same cases. No deadline applies,
since per-example timings vary on small shared hosts, and no example
database is written.

The ``endpoint`` fixture is a chat-completions endpoint on a loopback socket
that answers by a script of faults and logs every request it reads.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from acrocode import expand

settings.register_profile("acrocode", deadline=None, derandomize=True, database=None)
settings.load_profile("acrocode")


class _Handler(BaseHTTPRequestHandler):
    """Answers each request with the fault its place in the script names."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        endpoint = self.server.endpoint
        with endpoint.lock:
            endpoint.requests.append((self.command, self.path, self.headers, body))
            fault = endpoint.script[min(len(endpoint.requests), len(endpoint.script)) - 1]
        try:
            prompt = json.loads(body)["messages"][1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = ""
        paragraph = prompt[len(expand.USER_PROMPT_PREFIX):]
        endpoint.stop.wait(endpoint.delay(paragraph))
        getattr(self, "fault_" + fault.replace("-", "_"))(paragraph)
        self.close_connection = True

    do_GET = do_POST  # a followed redirect would show up in the log

    def log_message(self, format, *args):
        pass

    def _send(self, status, body=b"", headers=()):
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _completion(self, content, finish_reason="stop"):
        choice = {"message": {"content": content}, "finish_reason": finish_reason}
        self._send(200, json.dumps({"choices": [choice]}).encode("utf-8"))

    def fault_ok(self, paragraph):
        expansion = paragraph.replace("sob", "shortness of breath")
        self._completion(expand.ASSISTANT_PREFIX + " " + expansion)
        with self.server.endpoint.lock:
            self.server.endpoint.answered.append(paragraph)

    def fault_429(self, paragraph):
        self._send(429, b"slow down")

    def fault_429_retry_after_0(self, paragraph):
        self._send(429, b"slow down", [("Retry-After", "0")])

    def fault_503(self, paragraph):
        self._send(503)

    def fault_400(self, paragraph):
        self._send(400, b'{"error": "bad request"}')

    def fault_302(self, paragraph):
        self._send(302, headers=[("Location", "/moved")])

    def fault_308(self, paragraph):
        self._send(308, headers=[("Location", "/moved")])

    def fault_not_json(self, paragraph):
        self._send(200, b"<html>busy</html>")

    def fault_no_choices(self, paragraph):
        self._send(200, b'{"choices": []}')

    def fault_length(self, paragraph):
        self._completion(expand.ASSISTANT_PREFIX + " pt has shortness of", "length")

    def fault_slow(self, paragraph):
        self.server.endpoint.stop.wait(30)  # no answer before any client timeout

    def fault_close(self, paragraph):
        pass  # the connection closes with no response

    def fault_mid_body(self, paragraph):
        self.send_response(200)
        self.send_header("Content-Length", "100")
        self.end_headers()
        self.wfile.write(b'{"choices": [')

    def fault_garbage(self, paragraph):
        self.wfile.write(b"garbage\r\n\r\n")


class Endpoint:
    """A loopback chat-completions endpoint, served from a daemon thread.

    Request ``i`` gets the fault ``script[i]`` names, the last entry
    repeating; ``delay(paragraph)`` gives the seconds to hold it first.
    ``requests`` logs ``(method, path, headers, body)`` in arrival order and
    ``answered`` the paragraph of each completion in the order it was sent.
    """

    def __init__(self):
        self.script = ["ok"]
        self.delay = lambda paragraph: 0.0
        self.requests = []
        self.answered = []
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.endpoint = self
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def close(self):
        self.stop.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture
def endpoint(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy set in the environment is not asked
    server = Endpoint()
    yield server
    server.close()
