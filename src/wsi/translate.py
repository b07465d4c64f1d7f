"""Pluggable comment translation with a content-addressed on-disk cache.

Backends speak the same JSON shape over HTTP or a line-JSON child process:
request ``{"texts": [...], "source": "...", "target": "..."}``, response
``{"translations": [...]}``. An identity backend ships for offline runs
and tests. Cached translations are keyed by the source text digest plus
the backend identifier, one file per digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import tempfile
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .corpus import SurveyRecord


class TranslationError(RuntimeError):
    """A translation call failed after bounded retries."""


class TranslationBackend(Protocol):
    backend_id: str

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]: ...


class IdentityTranslator:
    """Returns the input unchanged; the offline/test backend."""

    backend_id = "identity"

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        return list(texts)


class HttpTranslator:
    def __init__(self, url: str, timeout: float = 30.0, backend_id: str | None = None):
        self.url = url
        self.timeout = timeout
        self.backend_id = backend_id or f"http:{url}"

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        payload = json.dumps({"texts": list(texts), "source": source, "target": target})
        request = urllib.request.Request(
            self.url, data=payload.encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise TranslationError(f"translation call to {self.url} failed: {exc}") from exc
        translations = body.get("translations")
        if not isinstance(translations, list) or len(translations) != len(texts):
            raise TranslationError("malformed translation response")
        return [str(t) for t in translations]


class SubprocessTranslator:
    """Line-JSON protocol against a child process, one request per line."""

    def __init__(self, command: str, timeout: float = 30.0, backend_id: str | None = None):
        self.command = command
        self.timeout = timeout
        self.backend_id = backend_id or f"cmd:{command}"
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        payload = json.dumps({"texts": list(texts), "source": source, "target": target})
        with self._lock:
            if self._proc is None or self._proc.poll() is not None:
                self._proc = subprocess.Popen(
                    self.command, shell=True, stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True,
                )
            proc = self._proc
            try:
                assert proc.stdin is not None and proc.stdout is not None
                proc.stdin.write(payload + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            except OSError as exc:
                raise TranslationError(f"child translator failed: {exc}") from exc
        if not line:
            raise TranslationError("child translator closed its output")
        try:
            body = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TranslationError(f"malformed translator line: {exc}") from exc
        translations = body.get("translations")
        if not isinstance(translations, list) or len(translations) != len(texts):
            raise TranslationError("malformed translation response")
        return [str(t) for t in translations]

    def close(self) -> None:
        """Stop the child: close its input, wait up to ``timeout`` seconds
        for it to exit, and kill it if it is still running."""
        with self._lock:
            proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()  # type: ignore[union-attr]
        except OSError:
            pass  # the child is gone already; wait() below reaps it
        try:
            proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()  # type: ignore[union-attr]


def text_digest(text: str, backend_id: str) -> str:
    """Stable 256-bit content key for one (source text, backend) pair."""
    return hashlib.sha256(json.dumps([text, backend_id]).encode("utf-8")).hexdigest()


class TranslationCache:
    """One file per digest; safe for concurrent readers, serialized writes."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, text: str, backend_id: str) -> str | None:
        path = self._path(text_digest(text, backend_id))
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return entry.get("translation")

    def put(self, text: str, backend_id: str, translation: str) -> None:
        digest = text_digest(text, backend_id)
        entry = {
            "source_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "backend": backend_id,
            "translation": translation,
        }
        payload = json.dumps(entry, ensure_ascii=False, sort_keys=True)
        with self._write_lock:
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(payload)
                os.replace(tmp, self._path(digest))
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


@dataclass
class TranslationReport:
    records: list[SurveyRecord]
    failed_indices: list[int]
    backend_calls: int
    cache_hits: int


def translate_all(records: Sequence[SurveyRecord], backend: TranslationBackend,
                  parallelism: int = 1, *, cache: TranslationCache | None = None,
                  source: str = "ja", target: str = "en", batch_size: int = 50,
                  max_retries: int = 2, retry_base_delay: float = 0.1,
                  sleep: Callable[[float], None] = time.sleep) -> TranslationReport:
    """Fill ``comment_translated`` on every record, via cache where possible.

    Output order equals input order regardless of completion order. A batch
    that still fails after ``max_retries`` retries leaves its records
    untranslated and reports their indices; the pipeline continues.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    translations: dict[str, str] = {}
    if cache is not None:
        for record in records:
            if record.comment not in translations:
                hit = cache.get(record.comment, backend.backend_id)
                if hit is not None:
                    translations[record.comment] = hit
    cache_hits = len(translations)

    pending: list[str] = []
    seen: set[str] = set(translations)
    for record in records:
        if record.comment not in seen:
            seen.add(record.comment)
            pending.append(record.comment)
    batches = [pending[i: i + batch_size] for i in range(0, len(pending), batch_size)]

    calls = 0
    calls_lock = threading.Lock()

    def run_batch(batch: list[str]) -> list[str] | None:
        nonlocal calls
        for attempt in range(max_retries + 1):
            if attempt > 0 and retry_base_delay > 0:
                sleep(retry_base_delay * 2 ** (attempt - 1))
            with calls_lock:
                calls += 1
            try:
                return backend.translate(batch, source, target)
            except TranslationError:
                continue
        return None

    if batches:
        if parallelism > 1 and len(batches) > 1:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                outcomes = list(pool.map(run_batch, batches))
        else:
            outcomes = [run_batch(batch) for batch in batches]
        for batch, outcome in zip(batches, outcomes):
            if outcome is None:
                continue
            for text, translated in zip(batch, outcome):
                translations[text] = translated
                if cache is not None:
                    cache.put(text, backend.backend_id, translated)

    out: list[SurveyRecord] = []
    failed: list[int] = []
    for i, record in enumerate(records):
        translated = translations.get(record.comment)
        if translated is None:
            failed.append(i)
            out.append(record)
        else:
            out.append(record.with_translation(translated))
    return TranslationReport(records=out, failed_indices=failed,
                             backend_calls=calls, cache_hits=cache_hits)
