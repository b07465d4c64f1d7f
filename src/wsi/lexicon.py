"""Rolling correlation-lexicon baseline classifier.

For a target month t, candidate terms are counted over comments from months
up to t - 2 (the wage statistics publish with a two-month lag), filtered to
a minimum mean monthly frequency, and ranked by Pearson correlation between
their monthly frequency and wage growth. The ten most positively and ten
most negatively correlated terms classify the target month's comments by
occurrence counts.

The corpus is tokenized once, each distinct comment text a single time,
into a dense term x month count matrix (:class:`TermCounts`): rows are the
sorted terms, columns every month from the corpus's first to its last. A
target month's window is a set of columns of that matrix, and
:func:`term_correlations` correlates every eligible term with wage growth
in one centred matrix-vector product. The same token lists give each
comment's (positive, negative) occurrence counts, which drive both the
classification and the month-level word-count audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .classify import _TOKEN_RE, ClassProbabilities, UNRELATED
from .corpus import MonthKey, WageSeries, month_range
# Re-exported: ``term_correlations`` is the row-wise form of ``pearson``, and
# the benchmark's tracer (perfbench/tracing.py) wraps ``wsi.lexicon.pearson``.
from .econometrics import pearson  # noqa: F401


def _load_stop_words() -> frozenset[str]:
    text = resources.files("wsi").joinpath("assets/stopwords_en.txt").read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


STOP_WORDS = _load_stop_words()


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stop words."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOP_WORDS]


def _ordinal(month: MonthKey) -> int:
    return month.year * 12 + month.month - 1


@dataclass(frozen=True)
class TermStats:
    term: str
    mean_frequency: float
    correlation: float | None  # None when undefined (zero variance)


@dataclass(frozen=True)
class Lexicon:
    """Word lists selected for one target month.

    ``positive`` and ``negative`` are (term, correlation) pairs, positive
    sorted by descending and negative by ascending correlation, ties at the
    cut resolved toward the alphabetically lower term. ``degenerate`` marks
    a lexicon where either polarity fell short of the requested size.
    """

    as_of: MonthKey
    window_end: MonthKey
    positive: tuple[tuple[str, float], ...]
    negative: tuple[tuple[str, float], ...]
    degenerate: bool

    def __post_init__(self) -> None:
        if self.window_end != self.as_of.minus(2):
            raise ValueError("window must end exactly two months before as_of")
        overlap = self.positive_terms & self.negative_terms
        if overlap:
            raise ValueError(f"polarity lists overlap: {sorted(overlap)}")

    @cached_property
    def positive_terms(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.positive)

    @cached_property
    def negative_terms(self) -> frozenset[str]:
        return frozenset(t for t, _ in self.negative)


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Term occurrences per month over one corpus, tokenized once.

    ``matrix[i, j]`` counts ``terms[i]`` (sorted) in ``months[j]``, every
    month from the corpus's first to its last. ``tokens`` maps each distinct
    comment text to its tokens. ``len()`` is the number of terms.
    """

    terms: tuple[str, ...]
    months: tuple[MonthKey, ...]
    matrix: np.ndarray
    tokens: Mapping[str, list[str]]

    def __len__(self) -> int:
        return len(self.terms)

    def window_counts(self, window: Sequence[MonthKey]) -> np.ndarray:
        """Counts with one column per window month; months outside the
        corpus's range count zero for every term."""
        out = np.zeros((len(self.terms), len(window)), dtype=np.int64)
        if self.months:
            cols = np.array([_ordinal(m) for m in window], dtype=np.int64)
            cols -= _ordinal(self.months[0])
            inside = (cols >= 0) & (cols < len(self.months))
            out[:, inside] = self.matrix[:, cols[inside]]
        return out


def monthly_term_counts(texts_by_month: Mapping[MonthKey, Sequence[str]]) -> TermCounts:
    """Token occurrence counts per term per month, over each month's
    record texts (translated where translated).

    Each distinct text is tokenized once; the token lists ride along in the
    result for the classification of the same comments.
    """
    tokens: dict[str, list[str]] = {}
    for texts in texts_by_month.values():
        for text in texts:
            if text not in tokens:
                tokens[text] = tokenize(text)
    terms = tuple(sorted({t for toks in tokens.values() for t in toks}))
    row = {t: i for i, t in enumerate(terms)}
    months = (tuple(month_range(min(texts_by_month), max(texts_by_month)))
              if texts_by_month else ())
    matrix = np.zeros((len(terms), len(months)), dtype=np.int64)
    for month, texts in texts_by_month.items():
        ids = [row[t] for text in texts for t in tokens[text]]
        matrix[:, _ordinal(month) - _ordinal(months[0])] = np.bincount(ids, minlength=len(terms))
    return TermCounts(terms=terms, months=months, matrix=matrix, tokens=tokens)


def term_correlations(freqs: np.ndarray, growth: Sequence[float]) -> np.ndarray:
    """Pearson correlation of every row of ``freqs`` with ``growth``.

    The row-wise form of :func:`wsi.econometrics.pearson`: NaN where a row
    or ``growth`` has exactly zero variance, values clamped to [-1, 1].
    """
    x = np.asarray(freqs, dtype=float)
    y = np.asarray(growth, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[1] != y.size:
        raise ValueError("term_correlations requires a 2-d matrix and a series "
                         "as long as its rows")
    if y.size < 2:
        raise ValueError("term_correlations requires at least 2 observations")
    x = x - x.mean(axis=1, keepdims=True)
    y = y - y.mean()
    # Row sums, not BLAS ``x @ y``: its blocking can round two identical rows
    # differently, which would break the exact ties select_lexicon resolves
    # alphabetically.
    sxx = (x * x).sum(axis=1)
    sxy = (x * y).sum(axis=1)
    syy = float(y @ y)
    out = np.full(len(x), np.nan)
    if syy != 0.0:
        defined = sxx != 0.0
        out[defined] = np.clip(sxy[defined] / np.sqrt(sxx[defined] * syy), -1.0, 1.0)
    return out


def build_term_stats(counts: TermCounts, window: Sequence[MonthKey], growth: Sequence[float],
                     min_mean_frequency: float) -> list[TermStats]:
    """Frequency-filtered terms with their correlation against wage growth.

    ``growth`` holds the wage growth of each ``window`` month. Terms must
    average at least ``min_mean_frequency`` occurrences per window month.
    Correlation is None for terms whose frequency does not vary within the
    window (they cannot be ranked).
    """
    freqs = counts.window_counts(window)
    means = freqs.sum(axis=1) / len(window)
    eligible = np.flatnonzero(means >= min_mean_frequency)
    correlations = term_correlations(freqs[eligible], growth)
    return [
        TermStats(term=counts.terms[i], mean_frequency=float(means[i]),
                  correlation=None if np.isnan(c) else float(c))
        for i, c in zip(eligible, correlations)
    ]


def select_lexicon(stats: Sequence[TermStats], as_of: MonthKey,
                   max_terms: int = 10) -> Lexicon:
    """Top positively and negatively correlated terms for one target month."""
    ranked = [(s.term, s.correlation) for s in stats if s.correlation is not None]
    positive = sorted(
        ((t, c) for t, c in ranked if c > 0), key=lambda tc: (-tc[1], tc[0])
    )[:max_terms]
    negative = sorted(
        ((t, c) for t, c in ranked if c < 0), key=lambda tc: (tc[1], tc[0])
    )[:max_terms]
    return Lexicon(
        as_of=as_of,
        window_end=as_of.minus(2),
        positive=tuple(positive),
        negative=tuple(negative),
        degenerate=len(positive) < max_terms or len(negative) < max_terms,
    )


def occurrence_counts(tokens: Sequence[str], lexicon: Lexicon) -> tuple[int, int]:
    """(positive, negative) word occurrence counts of one tokenized comment."""
    positive, negative = lexicon.positive_terms, lexicon.negative_terms
    p = sum(1 for t in tokens if t in positive)
    n = sum(1 for t in tokens if t in negative)
    return p, n


def occurrence_probabilities(p: int, n: int, smoothing: str = "laplace") -> ClassProbabilities:
    """Classification of a comment with P positive and N negative occurrences.

    No occurrences at all means the comment is unrelated. Otherwise the
    default "laplace" policy maps to (P, N, 1)/(P+N+1), leaving a shrinking
    neutral mass; the "none" policy drops the neutral pseudo-count:
    (P, N, 0)/(P+N).
    """
    if p + n == 0:
        return UNRELATED
    if smoothing == "laplace":
        denom = p + n + 1
        return ClassProbabilities(p / denom, n / denom, 1 / denom)
    if smoothing == "none":
        denom = p + n
        return ClassProbabilities(p / denom, n / denom, 0.0)
    raise ValueError(f"unknown smoothing policy: {smoothing}")


@dataclass(frozen=True)
class LexiconPolicy:
    """Configuration of the baseline classifier; a value out of its range
    raises ValueError naming the field."""

    window: str = "expanding"  # "expanding" or "rolling:<width>", width >= 2
    min_mean_frequency: float = 5.0
    max_terms: int = 10
    smoothing: str = "laplace"  # "laplace" or "none", see occurrence_probabilities

    def __post_init__(self) -> None:
        if self.window != "expanding":
            kind, _, width = self.window.partition(":")
            if kind != "rolling" or not width.isdecimal() or int(width) < 2:
                raise ValueError("window must be expanding or rolling:<width>, width >= 2, "
                                 f"got {self.window!r}")
        if not 0 <= self.min_mean_frequency < math.inf:  # NaN too
            raise ValueError("min_mean_frequency must be finite and >= 0, "
                             f"got {self.min_mean_frequency!r}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms!r}")
        if self.smoothing not in ("laplace", "none"):
            raise ValueError(f"smoothing must be laplace or none, got {self.smoothing!r}")

    def rolling_width(self) -> int | None:
        return None if self.window == "expanding" else int(self.window.partition(":")[2])


def window_for(as_of: MonthKey, history_start: MonthKey,
               policy: LexiconPolicy) -> list[MonthKey]:
    """Correlation window for one target month under the configured policy."""
    end = as_of.minus(2)
    width = policy.rolling_width()
    if width is not None:
        start = end.minus(width - 1)
        if start < history_start:
            start = history_start
    else:
        start = history_start
    return month_range(start, end)


def rolling_lexicons(
    counts: TermCounts,
    wages: WageSeries,
    targets: Sequence[MonthKey],
    policy: LexiconPolicy = LexiconPolicy(),
) -> dict[MonthKey, Lexicon]:
    """Lexicons for every feasible target month, from one corpus's counts.

    A target is feasible when its window holds at least two months that all
    have defined wage growth; infeasible targets are absent from the result.
    The expanding window starts at the first month covered by both the
    comment history (``counts.months``) and the wage-growth series.
    """
    growth_at = wages.yoy_map
    if not counts.months or not growth_at:
        return {}
    history_start = max(counts.months[0], min(growth_at))
    lexicons: dict[MonthKey, Lexicon] = {}
    for as_of in targets:
        window = window_for(as_of, history_start, policy)
        if len(window) < 2:
            continue
        growth = [growth_at.get(m) for m in window]
        if any(g is None for g in growth):
            continue
        stats = build_term_stats(counts, window, growth, policy.min_mean_frequency)
        lexicons[as_of] = select_lexicon(stats, as_of, max_terms=policy.max_terms)
    return lexicons


def audit_rows(lexicons: Mapping[MonthKey, Lexicon]) -> list[str]:
    """CSV rows `as_of,polarity,rank,term,correlation` for inspection."""
    rows = ["as_of,polarity,rank,term,correlation"]
    for as_of in sorted(lexicons):
        lex = lexicons[as_of]
        for polarity, pairs in (("positive", lex.positive), ("negative", lex.negative)):
            for rank, (term, corr) in enumerate(pairs, start=1):
                rows.append(f"{as_of},{polarity},{rank},{term},{corr!r}")
    return rows


class LexiconBackend:
    """The baseline's classifier backend: it answers (positive, negative)
    occurrence-count pairs, each with ``occurrence_probabilities`` under one
    smoothing policy, since a comment's answer depends on nothing else."""

    def __init__(self, smoothing: str = "laplace", backend_id: str = "lexicon-baseline"):
        self.smoothing = smoothing
        self.backend_id = backend_id

    def classify_batch(self, pairs: Sequence[tuple[int, int]]):
        from .classify import BatchResult

        probs = [occurrence_probabilities(p, n, self.smoothing) for p, n in pairs]
        return BatchResult(probs=probs, failed=[False] * len(probs), wire_calls=0)
