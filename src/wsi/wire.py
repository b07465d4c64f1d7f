"""The one wire layer: transports, the retry loop, the batch map, the content
cache, and ``fetch_cached``, the one loop over them that every remote backend runs.

Every remote backend, classifier or translator, is reached through a
transport: a callable ``payload -> dict`` that raises ``TransportError``
on any failure, over HTTP or a line-JSON child process.
"""

from __future__ import annotations

import hashlib
import http.client
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
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TextIO, TypeVar

log = logging.getLogger("wsi")

T = TypeVar("T")
R = TypeVar("R")


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
        # ValueError covers a body that is not UTF-8 or not JSON; HTTPException a
        # bad status line or a body shorter than its Content-Length
        except (urllib.error.URLError, OSError, http.client.HTTPException, ValueError) as exc:
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
            if self._proc is not None and self._proc.poll() is not None:
                self._stop(self._proc, 0)
                self._proc = None
            proc = self._proc
            try:
                try:
                    if proc is None:  # a child that cannot start fails this call only
                        proc = self._proc = subprocess.Popen(
                            self.command, shell=True, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
                    line = self._round_trip(proc, request)
                except (OSError, ValueError) as exc:
                    raise TransportError(f"child process call failed: {exc}") from exc
            except TransportError:
                self._proc = None
                if proc is not None:
                    self._stop(proc, 0)
                raise
        try:
            return json.loads(line)
        except ValueError as exc:  # not UTF-8, or not JSON
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


RETRY_BASE_DELAY = 0.1  # seconds before the first retry; doubled before each further one


def retry(call: Callable[[], T], max_retries: int,
          sleep: Callable[[float], None]) -> tuple[T | None, int]:
    """Run ``call`` until it returns, at most ``max_retries + 1`` times.

    A ``TransportError`` is logged with its cause and retried after
    ``RETRY_BASE_DELAY * 2 ** (attempt - 1)`` seconds. Returns the result,
    or None when every attempt failed, and the number of attempts made.
    """
    attempts = max_retries + 1
    for attempt in range(attempts):
        if attempt > 0:
            sleep(RETRY_BASE_DELAY * 2 ** (attempt - 1))
        try:
            return call(), attempt + 1
        except TransportError as exc:
            log.warning("wire attempt %d of %d failed: %s", attempt + 1, attempts, exc)
    return None, attempts


def map_batches(items: Sequence[T], batch_size: int, parallelism: int,
                call: Callable[[Sequence[T]], R]) -> list[tuple[Sequence[T], R]]:
    """Cut ``items`` into consecutive batches of ``batch_size`` and run
    ``call`` on each, at most ``parallelism`` at a time. Returns (batch,
    outcome) pairs in batch order: the batches, and so the wire bodies,
    depend only on ``items`` and ``batch_size``, never on thread timing.
    """
    if batch_size < 1 or parallelism < 1:
        raise ValueError("batch_size and parallelism must be >= 1")
    batches = [items[i: i + batch_size] for i in range(0, len(items), batch_size)]
    if parallelism > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=min(parallelism, len(batches))) as pool:
            return list(zip(batches, pool.map(call, batches)))
    return [(batch, call(batch)) for batch in batches]


def fetch_cached(texts: Sequence[str], fetch: Callable[[Sequence[str]], tuple[list[T] | None, int]],
                 batch_size: int, parallelism: int, *, cache: ContentCache | None = None,
                 read: Callable[[str], T | None] | None = None,
                 write: Callable[[str, T], None] | None = None) -> tuple[list[T | None], int]:
    """Each text's answer, from ``cache`` where it holds one, else from ``fetch``.

    ``read`` looks each text up once. The misses go to ``fetch`` in
    ``map_batches``' batches of ``batch_size``, ``parallelism`` at a time; a
    fetch returns its batch's answers, or None when it failed, and the
    attempts it made. The fresh answers are stored through ``write`` in one
    ``cache.transaction()``, opened only when there is one to store, so a
    warm run takes no write lock; a failure is never stored. A cache that
    cannot be written (locked past ``BUSY_TIMEOUT_S``, read-only, disk full)
    is logged once and rolled back, and the fresh answers are still
    returned, so a later run fetches and stores them. Returns the
    answers in ``texts``' order, None where a batch failed, and the attempts
    summed. Without a cache every text is fetched.
    """
    answers = [read(text) for text in texts] if cache is not None else [None] * len(texts)
    misses = [i for i, answer in enumerate(answers) if answer is None]
    outcomes = map_batches([texts[i] for i in misses], batch_size, parallelism, fetch)
    fetched = [answer for batch, (outcome, _) in outcomes
               for answer in outcome or [None] * len(batch)]
    for i, answer in zip(misses, fetched):
        answers[i] = answer
    fresh = [i for i in misses if answers[i] is not None]
    if cache is not None and fresh:
        import sqlite3  # loaded already: the cache opened it

        try:
            with cache.transaction():
                for i in fresh:
                    write(texts[i], answers[i])
        except sqlite3.OperationalError as exc:  # locked too long, read-only, disk full
            log.warning("cache %s was not written (%s): this stage's %d fresh answers "
                        "are used but not stored", cache.file, exc, len(fresh))
    return answers, sum(attempts for _, (_, attempts) in outcomes)


@contextmanager
def atomic_open(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """A text file to stream into that replaces ``path`` through a rename
    when the block ends, so readers see the old content or the new one,
    never a partial file. A block that raises leaves ``path`` as it was
    and no temporary file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all (see ``atomic_open``)."""
    with atomic_open(path) as fh:
        fh.write(text)


BUSY_TIMEOUT_S = 30.0  # how long a cache write waits for another process's commit


def _create_cache_file(file: Path) -> None:
    """An empty cache database in WAL mode at ``file``, unless one is there.

    It is built under a temporary name and linked into place: processes
    that open a new cache at once would otherwise race to switch its
    journal mode, and the loser fails without waiting.
    """
    import sqlite3  # see ContentCache.__init__

    fd, tmp = tempfile.mkstemp(dir=file.parent, suffix=".tmp")
    os.close(fd)
    try:
        with closing(sqlite3.connect(tmp)) as db:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("CREATE TABLE entries (digest TEXT PRIMARY KEY, value TEXT) WITHOUT ROWID")
        try:
            os.link(tmp, file)
        except FileExistsError:
            pass  # another process linked its own first
    finally:
        os.unlink(tmp)


class ContentCache:
    """One SQLite file per cache kind, ``<dir>/<kind>.sqlite`` (the pipeline's
    are ``classify.sqlite`` and ``translate.sqlite``), with one
    ``(digest, value)`` row per key, a tuple of strings.

    The digest is ``sha256(json.dumps(list(key)))``; the value is the JSON
    text ``write`` was given. The file runs in WAL mode with a busy timeout,
    so processes sharing a cache directory read while one writes, and
    writers wait for each other. An entry that is missing or cannot be
    decoded reads as a miss. A file that cannot be opened or is not a SQLite
    database is logged once and left as it is: every read misses and writes
    are skipped. The connection belongs to the thread that opened the cache.

    The one-JSON-file-per-entry directories ``classify/`` and ``translate/``
    of earlier versions are not read: the first run after an upgrade starts
    cold, and those directories can be deleted.
    """

    kind = "content"

    def __init__(self, directory: str | Path):
        self.file = Path(directory) / f"{self.kind}.sqlite"
        # Imported here: a run without a remote backend opens no cache, and
        # so never loads the SQLite library (about 1 MB of resident memory).
        import sqlite3

        self._db: sqlite3.Connection | None = None
        try:
            self.file.parent.mkdir(parents=True, exist_ok=True)
            if not self.file.exists():
                _create_cache_file(self.file)
            self._db = sqlite3.connect(self.file, timeout=BUSY_TIMEOUT_S, isolation_level=None)
            self._db.execute("SELECT 1 FROM entries LIMIT 0")
        except (OSError, sqlite3.Error) as exc:  # cannot be opened, or no cache database
            log.warning("cache %s is not usable, so it is neither read nor written: %s",
                        self.file, exc)
            if self._db is not None:
                self._db.close()
                self._db = None

    @staticmethod
    def digest(key: tuple[str, ...]) -> str:
        """``sha256(json.dumps(list(key)))``, the JSON spelled out for ``str`` parts."""
        text = "[" + ", ".join(map(json.encoder.encode_basestring_ascii, key)) + "]"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def read(self, key: tuple, decode: Callable[[Any], T]) -> T | None:
        if self._db is None:
            return None
        row = self._db.execute("SELECT value FROM entries WHERE digest = ?",
                               (self.digest(key),)).fetchone()
        try:
            return None if row is None else decode(json.loads(row[0]))
        except (ValueError, KeyError, TypeError):
            return None

    def write(self, key: tuple, text: str) -> None:
        if self._db is not None:
            self._db.execute("INSERT OR REPLACE INTO entries VALUES (?, ?)",
                             (self.digest(key), text))

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """A block whose writes commit together, or not at all: a block or a
        commit that raises is rolled back and leaves no transaction open."""
        if self._db is None:
            yield
            return
        self._db.execute("BEGIN IMMEDIATE")
        try:
            yield
            self._db.execute("COMMIT")
        finally:
            if self._db.in_transaction:
                self._db.execute("ROLLBACK")

    def close(self) -> None:
        if self._db is not None:
            self._db.close()
