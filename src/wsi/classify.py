"""Probabilistic comment classification: shared contract, remote client, mock.

Every backend answers one wire protocol (HTTP POST or a child process
speaking one JSON object per line):

    request  {"model": "...", "comments": ["..."], "labels": ["increase", "decrease", "neutral"]}
    response {"probabilities": [[u, v, w], ...], "unrelated": [bool, ...]?}

The transports, the retry loop and the batch loop live in ``wsi.wire``; the
remote client adds fallback-model switching and the classification cache
on top of them. A deterministic keyword classifier serves as the test double.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import re
import time
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import wire
from .corpus import Codes, MonthKey, SurveyRecord
# HttpTransport is re-exported: the benchmark's tracer wraps it under this name.
from .wire import HttpTransport, Transport, TransportError  # noqa: F401

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import BackendConfig

log = logging.getLogger("wsi")

WIRE_LABELS = ("increase", "decrease", "neutral")
PROMPT_VERSION = "v1"

_SUM_TOLERANCE = 1e-6


class HardLabel:
    INCREASE = "Increase"
    DECREASE = "Decrease"
    NEUTRAL = "Neutral"
    UNRELATED = "Unrelated"


# The hard labels by code, as ``Classified.label`` holds them.
LABELS = (HardLabel.INCREASE, HardLabel.DECREASE, HardLabel.NEUTRAL, HardLabel.UNRELATED)
LABEL_CODES = {label: code for code, label in enumerate(LABELS)}


@dataclass(frozen=True)
class ClassProbabilities:
    """Per-comment (increase, decrease, neutral) probabilities.

    The all-zero triple is the unrelated encoding: the comment carries no
    wage signal at all and is excluded from index computation. A triple
    with zero directional mass but positive neutral mass, such as the
    one-hot (0, 0, 1), is a confidently neutral wage comment, not an
    unrelated one.
    """

    u: float
    v: float
    w: float

    def __post_init__(self) -> None:
        for value in (self.u, self.v, self.w):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"probability out of range: {value}")
        total = self.u + self.v + self.w
        if total != 0.0 and abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities must sum to 0 or 1, got {total}")

    def is_unrelated(self) -> bool:
        return self.u == 0.0 and self.v == 0.0 and self.w == 0.0

    def hard_label(self) -> str:
        """Argmax label; exact ties resolve to Neutral (a balanced comment).

        Unrelated takes precedence whenever both directional probabilities
        are zero.
        """
        if self.is_unrelated():
            return HardLabel.UNRELATED
        if self.w >= self.u and self.w >= self.v:
            return HardLabel.NEUTRAL
        if self.u == self.v:
            return HardLabel.NEUTRAL
        return HardLabel.INCREASE if self.u > self.v else HardLabel.DECREASE

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.u, self.v, self.w)


UNRELATED = ClassProbabilities(0.0, 0.0, 0.0)


def normalize_triple(u: float, v: float, w: float) -> ClassProbabilities:
    """Scale a raw backend triple to sum exactly 1 (verbatim ratios).

    The all-zero triple passes through as the unrelated encoding. Tiny
    negative components (backend noise) clamp to zero; genuinely negative
    values raise ValueError, and non-numeric or non-finite ones TypeError
    or ValueError.
    """
    values = []
    for value in (u, v, w):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"non-numeric probability from backend: {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite probability from backend: {value}")
        if value < -1e-9:
            raise ValueError(f"negative probability from backend: {value}")
        values.append(max(0.0, float(value)))
    total = sum(values)
    if total == 0.0:
        return UNRELATED
    return ClassProbabilities(values[0] / total, values[1] / total, values[2] / total)


@dataclass(frozen=True)
class ClassifiedComment:
    """One text's classification; every record with that text shares it."""

    probs: ClassProbabilities
    backend_id: str
    hard_label: str
    failed: bool = False
    # Vestigial, never set or read in wsi: perfbench/reference.py still passes it.
    record: SurveyRecord | None = None

    @property
    def excluded(self) -> bool:
        return self.failed or self.probs.is_unrelated()


@dataclass(eq=False)
class Classified:
    """One backend's classified comments as arrays.

    The answer table has one row per answer the backend gave (for each
    distinct text, say, or each distinct occurrence pair): its
    probabilities ``u``, ``v`` and ``w`` (float64), its hard label
    ``LABELS[label[a]]`` and whether it ``failed``. Record ``i``, in corpus
    month order, has the answer ``codes[i]`` (``np.intp``). ``months``
    ascend, and the records of ``months[k]`` are
    ``codes[bounds[k]:bounds[k + 1]]``.
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    label: np.ndarray
    failed: np.ndarray
    codes: np.ndarray
    months: list[MonthKey]
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def excluded(self) -> np.ndarray:
        """Per answer: failed, or the all-zero (unrelated) triple."""
        return self.failed | ((self.u == 0.0) & (self.v == 0.0) & (self.w == 0.0))

    def month_segments(self) -> Iterable[tuple[MonthKey, np.ndarray]]:
        """Each month with its records' codes."""
        for month, start, end in zip(self.months, self.bounds, self.bounds[1:]):
            yield month, self.codes[start:end]

    @classmethod
    def from_answers(cls, probs: Sequence[ClassProbabilities], failed: Sequence[bool],
                     codes, months: Sequence[MonthKey], bounds,
                     labels: Sequence[str] | None = None) -> "Classified":
        """The table of one answer per ``probs`` entry. Its hard label is
        ``labels``' entry, by default Unrelated where ``failed`` and else
        the triple's ``hard_label()``."""
        if labels is None:
            labels = [HardLabel.UNRELATED if f else p.hard_label() for p, f in zip(probs, failed)]
        table = np.array([p.as_tuple() for p in probs], dtype=np.float64).reshape(-1, 3)
        return cls(*table.T, np.array([LABEL_CODES[label] for label in labels], dtype=np.int8),
                   np.array(failed, dtype=bool), np.asarray(codes, dtype=np.intp),
                   list(months), np.asarray(bounds, dtype=np.intp))

    @classmethod
    def from_comments(cls, classified: Mapping[MonthKey, Sequence[ClassifiedComment]]
                      ) -> "Classified":
        """``{month: [ClassifiedComment]}`` as arrays, one answer per distinct
        comment object, each with its own ``hard_label``."""
        months = sorted(classified)
        comments = [c for month in months for c in classified[month]]
        rows = Codes()  # id() of each distinct comment -> its row
        codes = [rows[id(c)] for c in comments]
        answers = list({id(c): c for c in comments}.values())
        return cls.from_answers([c.probs for c in answers], [c.failed for c in answers], codes,
                                months, np.cumsum([0, *(len(classified[m]) for m in months)]),
                                [c.hard_label for c in answers])


@dataclass
class BatchResult:
    """Position-aligned classification output for one list of comments."""

    probs: list[ClassProbabilities]
    failed: list[bool]
    wire_calls: int = 0


class Classifier(Protocol):
    backend_id: str

    def classify_batch(self, comments: Sequence[str]) -> BatchResult: ...


_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class KeywordRule:
    keywords: frozenset[str]
    triple: ClassProbabilities


class KeywordClassifier:
    """Deterministic first-rule-wins keyword classifier (test double).

    A rule fires when any of its keywords appears as a token of the
    lowercased comment; rules are tried in declaration order and the first
    match wins. Comments matching no rule are unrelated.
    """

    def __init__(self, rules: Sequence[tuple[Iterable[str], tuple[float, float, float]]],
                 backend_id: str = "keyword-mock"):
        self.backend_id = backend_id
        self.rules = [
            KeywordRule(frozenset(k.lower() for k in keywords), ClassProbabilities(*triple))
            for keywords, triple in rules
        ]

    def classify_one(self, comment: str) -> ClassProbabilities:
        tokens = set(_TOKEN_RE.findall(comment.lower()))
        for rule in self.rules:
            if rule.keywords & tokens:
                return rule.triple
        return UNRELATED

    def classify_batch(self, comments: Sequence[str]) -> BatchResult:
        probs = [self.classify_one(c) for c in comments]
        return BatchResult(probs=probs, failed=[False] * len(probs), wire_calls=0)


DEFAULT_KEYWORD_RULES: tuple[tuple[tuple[str, ...], tuple[float, float, float]], ...] = (
    (("raise", "raised", "raises", "bonus", "bonuses", "increase", "increased"), (1.0, 0.0, 0.0)),
    (("cut", "cuts", "reduction", "reduced", "decrease", "decreased"), (0.0, 1.0, 0.0)),
    (("wage", "wages", "salary", "salaries", "pay"), (0.0, 0.0, 1.0)),
)


def default_keyword_classifier(backend_id: str = "keyword-mock") -> KeywordClassifier:
    return KeywordClassifier(DEFAULT_KEYWORD_RULES, backend_id=backend_id)


class ClassificationCache(wire.ContentCache):
    """Per-comment classification results keyed by (comment, endpoint, model, prompt version).

    The endpoint enters the key as ``wire.endpoint_identity`` spells it, the
    prompt version as ``PROMPT_VERSION``.
    """

    kind = "classify"

    def get(self, comment: str, endpoint: str, model_id: str,
            fallback_model_id: str | None = None) -> ClassProbabilities | None:
        """The entry under ``model_id``, else the one under ``fallback_model_id``."""
        endpoint = wire.endpoint_identity(endpoint)
        for model in (model_id, fallback_model_id):
            if model is not None:
                probs = self.read((comment, endpoint, model, PROMPT_VERSION),
                                  lambda e: ClassProbabilities(e["u"], e["v"], e["w"]))
                if probs is not None:
                    return probs
        return None

    def put(self, comment: str, endpoint: str, model_id: str, probs: ClassProbabilities) -> None:
        self.write((comment, wire.endpoint_identity(endpoint), model_id, PROMPT_VERSION),
                   json.dumps({"u": probs.u, "v": probs.v, "w": probs.w}, sort_keys=True))


class RemoteClassifier:
    """Wire-protocol client for one remote ``BackendConfig``: batching,
    retries, model fallback and the classification cache.

    The primary model is the backend's ``model_id``, or its ``backend_id``
    when it names none; the transport follows its ``endpoint`` and
    ``timeout`` unless one is passed in. With a ``cache``, each comment is
    looked up once, the primary model's entry before the fallback model's,
    and only the misses go over the wire; each answer is stored under the
    endpoint and the model that gave it, and failures are never stored.
    ``close()`` closes the transport and the cache.
    """

    def __init__(self, backend: BackendConfig, cache: ClassificationCache | None = None,
                 parallelism: int = 1, transport: Transport | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.backend = backend
        self.backend_id = backend.backend_id
        self.models = [backend.model_id or backend.backend_id]
        if backend.fallback_model_id:
            self.models.append(backend.fallback_model_id)
        self.cache = cache
        self.parallelism = parallelism
        self.transport = transport if transport is not None else wire.transport(
            backend.endpoint, backend.timeout)
        self._sleep = sleep

    def _call_model(self, comments: Sequence[str], model_id: str) -> tuple[list[ClassProbabilities] | None, int]:
        """One model's bounded attempts on one batch; returns (probs, calls)."""
        payload = {"model": model_id, "comments": list(comments), "labels": list(WIRE_LABELS)}
        return wire.retry(lambda: self._parse_response(self.transport(payload), len(comments)),
                          self.backend.max_retries, self._sleep)

    @staticmethod
    def _parse_response(response: dict, expected: int) -> list[ClassProbabilities]:
        if not isinstance(response, dict):
            raise TransportError(f"malformed response: not an object: {response!r:.80}")
        rows = response.get("probabilities")
        if not isinstance(rows, list) or len(rows) != expected:
            raise TransportError(f"malformed response: expected {expected} probability rows")
        unrelated = response.get("unrelated")
        # a flag must be a JSON boolean: the string "false" is truthy
        if unrelated is not None and (not isinstance(unrelated, list)
                                      or len(unrelated) != expected
                                      or not all(isinstance(flag, bool) for flag in unrelated)):
            raise TransportError("malformed response: unrelated mask is not a list "
                                 f"of {expected} booleans")
        out = []
        for i, row in enumerate(rows):
            if unrelated is not None and unrelated[i]:
                out.append(UNRELATED)
                continue
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise TransportError(f"malformed probability row: {row!r}")
            try:
                out.append(normalize_triple(*row))
            except (TypeError, ValueError) as exc:
                raise TransportError(f"malformed probability row {row!r}: {exc}") from exc
        return out

    def _classify_chunk(self, chunk: Sequence[str]
                        ) -> tuple[list[tuple[str, ClassProbabilities]] | None, int]:
        """One batch, primary model first: each answer with the model that
        gave it, or None when every model failed, and the wire calls made."""
        calls = 0
        for i, model_id in enumerate(self.models):
            if i > 0:
                log.warning("model %s failed on a batch of %d comments; switching to "
                            "fallback model %s", self.models[i - 1], len(chunk), model_id)
            probs, model_calls = self._call_model(chunk, model_id)
            calls += model_calls
            if probs is not None:
                return [(model_id, p) for p in probs], calls
        return None, calls

    def classify_batch(self, comments: Sequence[str]) -> BatchResult:
        """``comments``, distinct texts, through ``wire.fetch_cached``: the cache
        misses in batches of the backend's ``batch_size``, ``parallelism`` at a time."""
        if any(not c for c in comments):
            raise ValueError("comments must be non-empty")
        endpoint = self.backend.endpoint

        def read(comment: str) -> tuple[None, ClassProbabilities] | None:
            probs = self.cache.get(comment, endpoint, *self.models)
            return None if probs is None else (None, probs)  # a hit needs no model

        answers, calls = wire.fetch_cached(
            comments, self._classify_chunk, self.backend.batch_size, self.parallelism,
            cache=self.cache, read=read,
            write=lambda comment, answer: self.cache.put(comment, endpoint, *answer))
        return BatchResult([UNRELATED if a is None else a[1] for a in answers],
                           [a is None for a in answers], calls)

    def close(self) -> None:
        self.transport.close()
        if self.cache is not None:
            self.cache.close()


def classify_texts(texts: Sequence[str], classifier: Classifier) -> tuple[BatchResult, list[int]]:
    """Classify each distinct text once, in first-appearance order; returns
    the result over the distinct texts and each entry of ``texts``' position
    in it. Failed comments carry the unrelated triple plus ``failed``, so
    the index stage can exclude and report them.
    """
    distinct = Codes()
    codes = [distinct[text] for text in texts]
    return classifier.classify_batch(distinct.table), codes


def classify_month(records: Sequence[SurveyRecord],
                   classifier: Classifier) -> list[ClassifiedComment]:
    """One ``ClassifiedComment`` per record of one month, records with one
    text sharing it; several months raise ValueError."""
    months = {r.month for r in records}
    if len(months) > 1:
        raise ValueError(f"records span several months: {sorted(map(str, months))}")
    result, codes = classify_texts([r.text for r in records], classifier)
    answers = [ClassifiedComment(probs, classifier.backend_id,
                                 HardLabel.UNRELATED if failed else probs.hard_label(), failed)
               for probs, failed in zip(result.probs, result.failed)]
    return [answers[code] for code in codes]


def prompt_template() -> str:
    """The shipped classification prompt template ({comment} placeholder)."""
    return resources.files("wsi").joinpath("assets/prompt_v1.txt").read_text(encoding="utf-8")
