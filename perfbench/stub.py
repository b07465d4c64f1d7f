"""Wire stub that answers the benchmark's remote classifier and translator.

Two modes speak the wsi wire protocols:

* ``http``: a threaded HTTP server on 127.0.0.1. It prints its port as the
  first line of standard output, then serves
  ``POST /`` (a classification or translation request),
  ``POST /reset`` (forget the injected-failure state, zero the counters) and
  ``GET /stats`` (the counters as JSON).
* ``child``: one JSON request per standard-input line, one JSON reply per
  output line, as a ``cmd:`` backend. Its state lives in the process, so it
  resets every time the pipeline starts a new child. When the environment
  variable named by ``CHILD_LOG_ENV`` holds a path, the child appends its
  process id to that file as it starts.

Classification applies the stub's own copy of the default keyword rule
table and answers one-hot triples; translation returns the texts unchanged.
Every request waits ``DELAY_S`` first, so that waiting on the wire shows.

Failures are injected deterministically, and every comment still succeeds:
among distinct request bodies (the comments or texts, model excluded), in
order of arrival, every ``FLAKY_EVERY``-th fails its first attempt, so that
retries with backoff run; the first and then every ``DOOMED_EVERY``-th
classification body fail every attempt with a model other than
``FALLBACK_MODEL``, so that the fallback model answers. Bodies are remembered by digest. Choosing by arrival
order rather than by digest value keeps the number of injected failures,
and with it the time spent in backoff, the same for every workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PRIMARY_MODEL = "stub-primary"
FALLBACK_MODEL = "stub-fallback"
DELAY_S = 0.003
FLAKY_EVERY = 50
DOOMED_EVERY = 200
CHILD_LOG_ENV = "PERFBENCH_CHILD_LOG"

# The stub's own copy of wsi.classify.DEFAULT_KEYWORD_RULES: first rule wins.
RULES: tuple[tuple[tuple[str, ...], tuple[float, float, float]], ...] = (
    (("raise", "raised", "raises", "bonus", "bonuses", "increase", "increased"), (1.0, 0.0, 0.0)),
    (("cut", "cuts", "reduction", "reduced", "decrease", "decreased"), (0.0, 1.0, 0.0)),
    (("wage", "wages", "salary", "salaries", "pay"), (0.0, 0.0, 1.0)),
)
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_UNRELATED = [0.0, 0.0, 0.0]


def classify_text(text: str) -> list[float]:
    tokens = set(_TOKEN_RE.findall(text.lower()))
    for keywords, triple in RULES:
        if tokens.intersection(keywords):
            return list(triple)
    return _UNRELATED


class Responder:
    """Protocol logic and failure injection shared by both modes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._seen: dict[str, int] = {}  # body digest -> arrival ordinal
            self._flaky_pending: set[str] = set()
            self.requests = 0
            self.injected = 0

    def stats(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "injected": self.injected,
                    "distinct_bodies": len(self._seen)}

    def _should_fail(self, digest: str, model: str | None) -> bool:
        with self._lock:
            self.requests += 1
            ordinal = self._seen.get(digest)
            if ordinal is None:
                ordinal = len(self._seen) + 1
                self._seen[digest] = ordinal
                if ordinal % FLAKY_EVERY == 0:
                    self._flaky_pending.add(digest)
            fail = (model is not None and model != FALLBACK_MODEL
                    and ordinal % DOOMED_EVERY == 1)
            if digest in self._flaky_pending:
                self._flaky_pending.discard(digest)
                fail = True
            self.injected += fail
            return fail

    def answer(self, request: dict) -> dict | None:
        """The reply to one request, or None for an injected failure."""
        time.sleep(DELAY_S)
        if "comments" in request:
            comments = request["comments"]
            digest = hashlib.sha256(json.dumps(comments).encode("utf-8")).hexdigest()
            if self._should_fail(digest, request.get("model")):
                return None
            return {"probabilities": [classify_text(c) for c in comments]}
        texts = request["texts"]
        digest = hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest()
        if self._should_fail(digest, None):
            return None
        return {"translations": list(texts)}


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # silence per-request logging
        pass

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        if self.path == "/stats":
            self._reply(200, self.server.responder.stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if self.path == "/reset":
            self.server.responder.reset()
            self._reply(200, {"reset": True})
            return
        response = self.server.responder.answer(json.loads(raw.decode("utf-8")))
        if response is None:
            self._reply(500, {"error": "injected failure"})
        else:
            self._reply(200, response)


def serve_http() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.responder = Responder()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


def serve_child() -> None:
    responder = Responder()
    log_path = os.environ.get(CHILD_LOG_ENV)
    if log_path:
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    for line in sys.stdin:
        if not line.strip():
            continue
        response = responder.answer(json.loads(line))
        if response is None:
            response = {"error": "injected failure"}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] == ["http"]:
        serve_http()
    elif sys.argv[1:] == ["child"]:
        serve_child()
    else:
        sys.exit("usage: stub.py http|child")
