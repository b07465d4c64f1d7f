import json
import re
import socket
import sqlite3
import threading
from contextlib import closing, suppress
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from wsi.corpus import Judgment, MonthKey, SurveyRecord

WIRE_STUB = Path(__file__).parent / "wire_stub.py"

# Property tests build small corpora per example; wall-clock deadlines only
# add flakiness on loaded machines.
settings.register_profile("default", deadline=None)
settings.load_profile("default")


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion, printed as it finishes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"\nACCEPTANCE {outcome}: {name}", flush=True)


def cache_rows(file):
    """A cache file's rows as ``{digest: stored value}``, read past ``ContentCache``."""
    with closing(sqlite3.connect(file)) as db:
        return dict(db.execute("SELECT digest, value FROM entries"))


def make_record(month=MonthKey(2020, 1), comment="wages were raised",
                region="Kanto", industry="retail",
                judgment=Judgment.UNCHANGED, translated=None):
    return SurveyRecord(month=month, region=region, industry=industry,
                        judgment=judgment, comment=comment,
                        comment_translated=translated)


class _WireHandler(BaseHTTPRequestHandler):
    """Serves both the classifier and translator wire protocols.

    Classification mimics the keyword stub: 'up' -> increase, 'down' ->
    decrease, 'flat' -> neutral, anything else unrelated. Comments
    containing 'poison' draw a 500 response (for failure-path tests), as
    does any comment list the server's ``fail_batch`` rule picks.
    """

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.requests.append(payload)
        if self.server.fail_all:
            self.send_error(500, "induced failure")
            return
        if "comments" in payload:
            rule = self.server.fail_batch
            if (any("poison" in c for c in payload["comments"])
                    or rule is not None and rule(payload["comments"])):
                self.send_error(500, "poisoned batch")
                return
            rows = []
            for comment in payload["comments"]:
                tokens = comment.lower().split()
                if "up" in tokens:
                    rows.append([1.0, 0.0, 0.0])
                elif "down" in tokens:
                    rows.append([0.0, 1.0, 0.0])
                elif "flat" in tokens:
                    rows.append([0.0, 0.0, 1.0])
                else:
                    rows.append([0.0, 0.0, 0.0])
            body = {"probabilities": rows}
        else:
            body = {"translations": [t.upper() for t in payload["texts"]]}
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class WireServer:
    def __init__(self):
        self.httpd = HTTPServer(("127.0.0.1", 0), _WireHandler)
        self.httpd.requests = []
        self.httpd.fail_all = False
        self.httpd.fail_batch = None
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/"

    @property
    def requests(self):
        return self.httpd.requests

    def set_fail_all(self, value):
        self.httpd.fail_all = value

    def set_fail_batch(self, rule):
        """``rule(comments) -> bool`` picks the comment lists to fail."""
        self.httpd.fail_batch = rule

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def wire_server():
    server = WireServer()
    yield server
    server.close()


class RawServer:
    """An HTTP endpoint that reads each request whole and answers it with
    the raw bytes in ``reply``, then closes the connection."""

    def __init__(self):
        self.reply = b""
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.listener.getsockname()
        return f"http://{host}:{port}/"

    def serve(self):
        while not self.stopped.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                data = b""
                with suppress(OSError):  # the client may hang up first
                    while not self.whole(data) and (chunk := conn.recv(1 << 16)):
                        data += chunk
                    conn.sendall(self.reply)

    @staticmethod
    def whole(request):
        head, blank, body = request.partition(b"\r\n\r\n")
        length = re.search(rb"content-length: *(\d+)", head, re.I)
        return bool(blank) and len(body) >= int(length.group(1) if length else 0)

    def close(self):
        self.stopped.set()
        self.thread.join(5.0)
        assert not self.thread.is_alive()
        self.listener.close()


@pytest.fixture
def raw_server():
    server = RawServer()
    yield server
    server.close()
