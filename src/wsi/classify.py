"""Probabilistic comment classification: shared contract, remote client, mock.

Every backend answers one wire protocol (HTTP POST or a child process
speaking one JSON object per line):

    request  {"model": "...", "comments": ["..."], "labels": ["increase", "decrease", "neutral"]}
    response {"probabilities": [[u, v, w], ...], "unrelated": [bool, ...]?}

The transports and the retry loop live in ``wsi.wire``; the remote client
adds batching and fallback-model switching on top of them. A deterministic
keyword classifier serves as the test double.
"""

from __future__ import annotations

import logging
import math
import numbers
import re
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Protocol, Sequence

from . import wire
from .corpus import SurveyRecord
# HttpTransport is re-exported: the benchmark's tracer wraps it under this name.
from .wire import HttpTransport, Transport, TransportError  # noqa: F401

log = logging.getLogger("wsi")

WIRE_LABELS = ("increase", "decrease", "neutral")
PROMPT_VERSION = "v1"

_SUM_TOLERANCE = 1e-6


class HardLabel:
    INCREASE = "Increase"
    DECREASE = "Decrease"
    NEUTRAL = "Neutral"
    UNRELATED = "Unrelated"


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


@dataclass(frozen=True)
class BackendSpec:
    """Remote classifier endpoint description.

    ``endpoint`` is either an http(s) URL or a child-process command line
    (optionally written ``cmd:<command>``); ``wire.transport`` picks the
    transport from the prefix.
    """

    endpoint: str
    model_id: str
    fallback_model_id: str | None = None
    batch_size: int = 32
    max_retries: int = 2
    timeout: float = 30.0
    retry_base_delay: float = 0.1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.timeout > 0:  # NaN too
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class BatchResult:
    """Position-aligned classification output for one list of comments.

    ``models`` names, for a remote classifier, the model that answered each
    comment (None where it failed); local classifiers leave it empty.
    """

    probs: list[ClassProbabilities]
    failed: list[bool]
    wire_calls: int = 0
    models: list[str | None] = field(default_factory=list)


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


class RemoteClassifier:
    """Wire-protocol client with batching, retries, and model fallback."""

    def __init__(self, spec: BackendSpec, transport: Transport | None = None,
                 backend_id: str | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.spec = spec
        self.backend_id = backend_id or spec.model_id
        self.transport = transport if transport is not None else wire.transport(
            spec.endpoint, spec.timeout)
        self._sleep = sleep

    def _call_model(self, comments: Sequence[str], model_id: str) -> tuple[list[ClassProbabilities] | None, int]:
        """One model's bounded attempts on one batch; returns (probs, calls)."""
        payload = {"model": model_id, "comments": list(comments), "labels": list(WIRE_LABELS)}
        return wire.retry(lambda: self._parse_response(self.transport(payload), len(comments)),
                          self.spec.max_retries, self.spec.retry_base_delay, self._sleep)

    @staticmethod
    def _parse_response(response: dict, expected: int) -> list[ClassProbabilities]:
        if not isinstance(response, dict):
            raise TransportError(f"malformed response: not an object: {response!r:.80}")
        rows = response.get("probabilities")
        if not isinstance(rows, list) or len(rows) != expected:
            raise TransportError(f"malformed response: expected {expected} probability rows")
        unrelated = response.get("unrelated")
        if unrelated is not None and (not isinstance(unrelated, list)
                                      or len(unrelated) != expected):
            raise TransportError("malformed response: unrelated mask is not a list "
                                 f"of {expected} flags")
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

    def _classify_chunk(self, chunk: Sequence[str]) -> BatchResult:
        """One batch, primary model first; ``models`` names who answered."""
        calls = 0
        models = [self.spec.model_id]
        if self.spec.fallback_model_id:
            models.append(self.spec.fallback_model_id)
        for i, model_id in enumerate(models):
            if i > 0:
                log.warning("model %s failed on a batch of %d comments; switching to "
                            "fallback model %s", models[i - 1], len(chunk), model_id)
            probs, model_calls = self._call_model(chunk, model_id)
            calls += model_calls
            if probs is not None:
                return BatchResult(probs, [False] * len(chunk), calls, [model_id] * len(chunk))
        return BatchResult([UNRELATED] * len(chunk), [True] * len(chunk), calls,
                           [None] * len(chunk))

    def classify_batch(self, comments: Sequence[str], parallelism: int = 1) -> BatchResult:
        """``comments`` in batches of ``spec.batch_size``, ``parallelism`` at a time."""
        if any(not c for c in comments):
            raise ValueError("comments must be non-empty")
        result = BatchResult([], [])
        for _, outcome in wire.map_batches(comments, self.spec.batch_size, parallelism,
                                           self._classify_chunk):
            result.probs.extend(outcome.probs)
            result.failed.extend(outcome.failed)
            result.models.extend(outcome.models)
            result.wire_calls += outcome.wire_calls
        return result


def classify_records(records: Sequence[SurveyRecord], classifier: Classifier
                     ) -> tuple[list[ClassifiedComment], int]:
    """Classify each distinct text once, in first-appearance order; returns,
    in record order, each record's text's one ``ClassifiedComment``, with
    the wire calls made. Failed comments carry the unrelated triple plus
    ``failed=True`` so the index stage can exclude and report them.
    """
    texts = list(dict.fromkeys(r.text for r in records))
    result = classifier.classify_batch(texts)
    answers = {text: ClassifiedComment(probs, classifier.backend_id,
                                       HardLabel.UNRELATED if failed else probs.hard_label(),
                                       failed)
               for text, probs, failed in zip(texts, result.probs, result.failed)}
    return [answers[r.text] for r in records], result.wire_calls


def classify_month(records: Sequence[SurveyRecord],
                   classifier: Classifier) -> list[ClassifiedComment]:
    """``classify_records`` for one month's records; several months raise ValueError."""
    months = {r.month for r in records}
    if len(months) > 1:
        raise ValueError(f"records span several months: {sorted(map(str, months))}")
    return classify_records(records, classifier)[0]


def prompt_template() -> str:
    """The shipped classification prompt template ({comment} placeholder)."""
    return resources.files("wsi").joinpath("assets/prompt_v1.txt").read_text(encoding="utf-8")
