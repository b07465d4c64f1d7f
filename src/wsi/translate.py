"""Pluggable comment translation with a content-addressed on-disk cache.

Remote backends speak one JSON shape over either ``wsi.wire`` transport
(an http(s) URL, or ``cmd:<command>`` for a line-JSON child process):
request ``{"texts": [...], "source": "...", "target": "..."}``, response
``{"translations": [...]}``. An identity backend ships for offline runs
and tests. Cached translations are keyed by (source text, backend,
source language, target language), one file per key.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

from . import wire
from .corpus import SurveyRecord


# A translation call failed or returned a malformed response; retried.
TranslationError = wire.TransportError


class TranslationBackend(Protocol):
    backend_id: str

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]: ...


class IdentityTranslator:
    """Returns the input unchanged; the offline/test backend."""

    backend_id = "identity"

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        return list(texts)


class RemoteTranslator:
    """A translation backend behind one ``wire.transport`` endpoint."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.backend_id = endpoint
        self.transport = wire.transport(endpoint, timeout)

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        body = self.transport({"texts": list(texts), "source": source, "target": target})
        translations = body.get("translations") if isinstance(body, dict) else None
        if not isinstance(translations, list) or len(translations) != len(texts):
            raise TranslationError("malformed translation response")
        return [str(t) for t in translations]

    def close(self) -> None:
        self.transport.close()


# The benchmark's tracer wraps ``SubprocessTranslator.translate`` by this name.
SubprocessTranslator = RemoteTranslator


class TranslationCache(wire.ContentCache):
    """Translations keyed by (source text, backend, source, target language)."""

    def get(self, text: str, backend_id: str, source: str, target: str) -> str | None:
        return self.read((text, backend_id, source, target), lambda entry: entry["translation"])

    def put(self, text: str, backend_id: str, source: str, target: str,
            translation: str) -> None:
        entry = {
            "source_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "backend": backend_id,
            "translation": translation,
        }
        self.write((text, backend_id, source, target),
                   json.dumps(entry, ensure_ascii=False, sort_keys=True))


@dataclass
class TranslationReport:
    records: list[SurveyRecord]
    failed_indices: list[int]
    backend_calls: int
    cache_hits: int


def translate_all(records: Sequence[SurveyRecord], backend: TranslationBackend,
                  parallelism: int = 1, *, cache: TranslationCache | None = None,
                  source: str = "ja", target: str = "en", batch_size: int = 50,
                  max_retries: int = 2,
                  sleep: Callable[[float], None] = time.sleep) -> TranslationReport:
    """Fill ``comment_translated`` on every record, via cache where possible.

    Output order equals input order regardless of completion order. A batch
    that still fails after ``max_retries`` retries leaves its records
    untranslated and reports their indices; the pipeline continues.
    """
    texts = list(dict.fromkeys(record.comment for record in records))
    translations: dict[str, str] = {}
    if cache is not None:
        for text in texts:
            hit = cache.get(text, backend.backend_id, source, target)
            if hit is not None:
                translations[text] = hit
    cache_hits = len(translations)
    pending = [text for text in texts if text not in translations]

    def run_batch(batch: Sequence[str]) -> tuple[list[str] | None, int]:
        return wire.retry(lambda: backend.translate(batch, source, target), max_retries, sleep)

    outcomes = wire.map_batches(pending, batch_size, parallelism, run_batch)
    # The identity backend answers in process, so its batches make no backend calls.
    calls = (0 if isinstance(backend, IdentityTranslator)
             else sum(attempts for _, (_, attempts) in outcomes))
    for batch, (outcome, _) in outcomes:
        if outcome is None:
            continue
        for text, translated in zip(batch, outcome):
            translations[text] = translated
            if cache is not None:
                cache.put(text, backend.backend_id, source, target, translated)

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
