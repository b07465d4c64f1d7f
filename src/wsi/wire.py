"""The one wire layer: transports, the retry loop and the content cache.

Every remote backend, classifier or translator, is reached through a
transport: a callable ``payload -> dict`` that raises ``TransportError``
on any failure, over HTTP or a line-JSON child process.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import selectors
import subprocess
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, TypeVar

log = logging.getLogger("wsi")

T = TypeVar("T")


class TransportError(RuntimeError):
    """A wire call failed (connection, timeout, or malformed response)."""


Transport = Callable[[dict], dict]


class HttpTransport:
    def __init__(self, url: str, timeout: float):
        self.url = url
        self.timeout = timeout

    def __call__(self, payload: dict) -> dict:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise TransportError(f"http call to {self.url} failed: {exc}") from exc

    def close(self) -> None:
        """Nothing to release; each call opens its own connection."""


class SubprocessTransport:
    """Line-JSON protocol against a long-lived child process.

    The request/response round trip is serialized; concurrent callers
    queue on one lock rather than interleaving lines on the pipe. The
    request must be taken and the reply line must arrive within
    ``timeout`` seconds; otherwise the child is killed and reaped, the call
    raises ``TransportError``, and the next call starts a new child.
    """

    def __init__(self, command: str, timeout: float):
        self.command = command
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def __call__(self, payload: dict) -> dict:
        request = (json.dumps(payload) + "\n").encode("utf-8")
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                if self._proc is not None:
                    self._stop(self._proc, 0)
                self._proc = subprocess.Popen(self.command, shell=True,
                                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            proc = self._proc
            try:
                try:
                    line = self._round_trip(proc, request)
                except (OSError, ValueError) as exc:
                    raise TransportError(f"child process call failed: {exc}") from exc
            except TransportError:
                self._proc = None
                self._stop(proc, 0)
                raise
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise TransportError(f"malformed child process line: {exc}") from exc

    def _round_trip(self, proc: subprocess.Popen, request: bytes) -> bytes:
        """Write the request and read one reply line under one deadline.

        Both go through the raw pipe fds, never the buffered file objects,
        whose buffers the selector does not see; a child that stops reading
        cannot block the write.
        """
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()  # type: ignore[union-attr]
        os.set_blocking(stdin, False)
        deadline = time.monotonic() + self.timeout
        reply = b""
        with selectors.DefaultSelector() as selector:
            selector.register(stdin, selectors.EVENT_WRITE)
            selector.register(stdout, selectors.EVENT_READ)
            while not reply.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                events = selector.select(remaining) if remaining > 0 else []
                if not events:
                    raise TransportError(f"child process {self.command!r} did not answer "
                                         f"within {self.timeout} s")
                for key, _ in events:
                    if key.fd == stdin:
                        request = request[os.write(stdin, request):]
                        if not request:
                            selector.unregister(stdin)
                        continue
                    chunk = os.read(stdout, 1 << 16)
                    if not chunk:
                        raise TransportError(f"child process {self.command!r} closed its output")
                    reply += chunk
        return reply

    @staticmethod
    def _stop(proc: subprocess.Popen, wait_s: float) -> None:
        """Close the child's input, wait up to ``wait_s`` seconds for it to
        exit, kill it if it is still running, and close its output."""
        try:
            proc.stdin.close()  # type: ignore[union-attr]
        except OSError:
            pass  # the child is gone already; wait() below reaps it
        try:
            proc.wait(timeout=wait_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()  # type: ignore[union-attr]

    def close(self) -> None:
        """Stop the child: close its input, wait up to ``timeout`` seconds
        for it to exit, kill it if it is still running, close its output."""
        with self._lock:
            proc, self._proc = self._proc, None
        if proc is not None:
            self._stop(proc, self.timeout)


def transport(endpoint: str, timeout: float) -> HttpTransport | SubprocessTransport:
    """The transport for an endpoint: an http(s) URL, or ``cmd:<command>``
    (a bare command line is taken as a command too)."""
    if endpoint.startswith(("http://", "https://")):
        return HttpTransport(endpoint, timeout)
    return SubprocessTransport(endpoint.removeprefix("cmd:"), timeout)


def endpoint_identity(endpoint: str) -> str:
    """The backend ``transport(endpoint)`` talks to, one spelling per backend:
    a URL without its trailing slashes, a command line without ``cmd:``."""
    if endpoint.startswith(("http://", "https://")):
        return endpoint.rstrip("/")
    return endpoint.removeprefix("cmd:")


def retry(call: Callable[[], T], max_retries: int, base_delay: float,
          sleep: Callable[[float], None] = time.sleep) -> tuple[T | None, int]:
    """Run ``call`` until it returns, at most ``max_retries + 1`` times.

    A ``TransportError`` is logged with its cause and retried after
    ``base_delay * 2 ** (attempt - 1)`` seconds. Returns the result, or
    None when every attempt failed, and the number of attempts made.
    """
    attempts = max_retries + 1
    for attempt in range(attempts):
        if attempt > 0 and base_delay > 0:
            sleep(base_delay * 2 ** (attempt - 1))
        try:
            return call(), attempt + 1
        except TransportError as exc:
            log.warning("wire attempt %d of %d failed: %s", attempt + 1, attempts, exc)
    return None, attempts


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename, so
    readers see the old content or the new one, never a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class ContentCache:
    """One JSON file per key tuple, at ``<dir>/<digest[:2]>/<digest>.json``.

    The digest is ``sha256(json.dumps(list(key)))``. Entries are written
    atomically, so concurrent readers and writers are safe; an entry that
    is missing or cannot be decoded reads as a miss.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def digest(key: tuple) -> str:
        return hashlib.sha256(json.dumps(list(key)).encode("utf-8")).hexdigest()

    def path(self, key: tuple) -> Path:
        digest = self.digest(key)
        return self.directory / digest[:2] / f"{digest}.json"

    def read(self, key: tuple, decode: Callable[[Any], T]) -> T | None:
        try:
            with open(self.path(key), encoding="utf-8") as fh:
                return decode(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def write(self, key: tuple, text: str) -> None:
        atomic_write(self.path(key), text)
