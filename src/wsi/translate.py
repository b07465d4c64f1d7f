"""Pluggable comment translation with a content-addressed on-disk cache.

Remote backends speak one JSON shape over either ``wsi.wire`` transport
(an http(s) URL, or ``cmd:<command>`` for a line-JSON child process):
request ``{"texts": [...], "source": "...", "target": "..."}``, response
``{"translations": [...]}``. An identity backend ships for offline runs
and tests. Cached translations are keyed by (source text, backend,
source language, target language) in the cache directory's
``translate.sqlite``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

from . import wire
from .corpus import Corpus


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
    """A translation backend behind one ``wire.transport`` endpoint, named
    by its ``wire.endpoint_identity``."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.backend_id = wire.endpoint_identity(endpoint)
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

    kind = "translate"

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
    corpus: Corpus
    failed_indices: list[int]  # positions of the records left untranslated
    backend_calls: int


def translate_all(corpus: Corpus, backend: TranslationBackend,
                  parallelism: int = 1, *, source: str, target: str, batch_size: int,
                  cache: TranslationCache | None = None, max_retries: int = 2,
                  sleep: Callable[[float], None] = time.sleep) -> TranslationReport:
    """Translate each distinct comment once, via cache where possible, and
    return the corpus with one translation per text-table entry.

    Comments go to the backend in order of first appearance, whatever the
    completion order. A batch that still fails after ``max_retries`` retries
    leaves its entries with the translation they were loaded with, and the
    records holding them are reported by position; the pipeline continues.
    """
    texts = list(dict.fromkeys(corpus.comments))
    translations: dict[str, str] = {}
    if cache is not None:
        for text in texts:
            hit = cache.get(text, backend.backend_id, source, target)
            if hit is not None:
                translations[text] = hit
    pending = [text for text in texts if text not in translations]

    def run_batch(batch: Sequence[str]) -> tuple[list[str] | None, int]:
        return wire.retry(lambda: backend.translate(batch, source, target), max_retries, sleep)

    outcomes = wire.map_batches(pending, batch_size, parallelism, run_batch)
    # The identity backend answers in process, so its batches make no backend calls.
    calls = (0 if isinstance(backend, IdentityTranslator)
             else sum(attempts for _, (_, attempts) in outcomes))
    fresh = [(text, translated) for batch, (outcome, _) in outcomes if outcome is not None
             for text, translated in zip(batch, outcome)]
    translations.update(fresh)
    if cache is not None and fresh:  # nothing to store takes no write lock
        with cache.transaction():
            for text, translated in fresh:
                cache.put(text, backend.backend_id, source, target, translated)

    failed_ids = {i for i, comment in enumerate(corpus.comments) if comment not in translations}
    failed = [i for i, t in enumerate(corpus.text_ids) if t in failed_ids] if failed_ids else []
    filled = [translations.get(comment, loaded)
              for comment, loaded in zip(corpus.comments, corpus.translations)]
    return TranslationReport(corpus=replace(corpus, translations=filled), failed_indices=failed,
                             backend_calls=calls)
