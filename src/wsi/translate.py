"""Pluggable comment translation with a content-addressed on-disk cache.

Remote backends speak one JSON shape over either ``wsi.wire`` transport
(an http(s) URL, or ``cmd:<command>`` for a line-JSON child process):
request ``{"texts": [...], "source": "...", "target": "..."}``, response
``{"translations": [...]}``, each translation a non-empty string. Cached
translations are keyed by (source text, backend, source language, target
language) in the cache directory's ``translate.sqlite``. The identity
"backend" is no backend: the pipeline takes each comment as its own
translation without calling anything.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Protocol, Sequence

from . import wire
from .corpus import Corpus


# A translation call failed or returned a malformed response; retried.
TranslationError = wire.TransportError


class TranslationBackend(Protocol):
    backend_id: str

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]: ...


def _is_translation(entry) -> bool:
    """A non-empty string: ``null`` or ``""`` would read back from
    ``records.csv`` as no translation at all."""
    return isinstance(entry, str) and entry != ""


class RemoteTranslator:
    """A translation backend behind one ``wire.transport`` endpoint, named
    by its ``wire.endpoint_identity``."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.backend_id = wire.endpoint_identity(endpoint)
        self.transport = wire.transport(endpoint, timeout)

    def translate(self, texts: Sequence[str], source: str, target: str) -> list[str]:
        body = self.transport({"texts": list(texts), "source": source, "target": target})
        translations = body.get("translations") if isinstance(body, dict) else None
        if (not isinstance(translations, list) or len(translations) != len(texts)
                or not all(map(_is_translation, translations))):
            raise TranslationError("malformed translation response")
        return translations

    def close(self) -> None:
        self.transport.close()


# The benchmark's tracer wraps ``SubprocessTranslator.translate`` by this name.
SubprocessTranslator = RemoteTranslator


class TranslationCache(wire.ContentCache):
    """Translations keyed by (source text, backend, source, target language)."""

    kind = "translate"

    def get(self, text: str, backend_id: str, source: str, target: str) -> str | None:
        translation = self.read((text, backend_id, source, target), itemgetter("translation"))
        return translation if _is_translation(translation) else None

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
    key = (backend.backend_id, source, target)
    answers, calls = wire.fetch_cached(
        texts, lambda batch: wire.retry(lambda: backend.translate(batch, source, target),
                                        max_retries),
        batch_size, parallelism, cache=cache, read=lambda text: cache.get(text, *key),
        write=lambda text, translated: cache.put(text, *key, translated), sleep=sleep)
    translations = dict(zip(texts, answers))

    failed_ids = {i for i, comment in enumerate(corpus.comments) if translations[comment] is None}
    failed = [i for i, t in enumerate(corpus.text_ids) if t in failed_ids] if failed_ids else []
    filled = [loaded if translations[comment] is None else translations[comment]
              for comment, loaded in zip(corpus.comments, corpus.translations)]
    return TranslationReport(corpus=replace(corpus, translations=filled), failed_indices=failed,
                             backend_calls=calls)
