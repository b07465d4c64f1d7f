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
target month's window is one contiguous span of those columns.
:func:`select_lexicon` works on that span alone: the window means give the
eligible rows, :func:`term_correlations` correlates them with wage growth
in one pass, and one ``np.lexsort`` per polarity ranks them. Rows are in
alphabetical order, so an exact tie at the cut goes to the alphabetically
lower term without a Python sort. The same token lists give each
comment's (positive, negative) occurrence counts, which drive both the
classification (:meth:`LexiconBackend.classify_corpus`) and the month-level
word-count audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .classify import BatchResult, Classified, ClassProbabilities, UNRELATED, words
from .corpus import Codes, Corpus, MonthKey, WageSeries, month_range
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
    return [t for t in words(text) if t not in STOP_WORDS]


def _ordinal(month: MonthKey) -> int:
    return month.year * 12 + month.month - 1


@dataclass(frozen=True)
class Lexicon:
    """Word lists selected for one target month.

    ``positive`` and ``negative`` are (term, correlation) pairs, positive
    sorted by descending and negative by ascending correlation, ties at the
    cut resolved toward the alphabetically lower term.
    """

    as_of: MonthKey
    positive: tuple[tuple[str, float], ...]
    negative: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
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


def select_lexicon(counts: TermCounts, window: slice, growth: Sequence[float],
                   as_of: MonthKey, min_mean_frequency: float, max_terms: int) -> Lexicon:
    """Top positively and negatively correlated terms for one target month.

    ``window`` is a span of ``counts.months`` and ``growth`` holds the wage
    growth of each of its months. A term is eligible when it averages at
    least ``min_mean_frequency`` occurrences per window month and its
    frequency varies within the window (else it has no correlation). Rows
    are the sorted terms, so ordering by (correlation, row) cuts an exact
    tie toward the alphabetically lower term.
    """
    freqs = counts.matrix[:, window]
    rows = np.flatnonzero(freqs.sum(axis=1) / freqs.shape[1] >= min_mean_frequency)
    corr = term_correlations(freqs[rows], growth)
    lists = []
    for sign in (1.0, -1.0):
        score = sign * corr
        hit = np.flatnonzero(score > 0)  # an undefined (NaN) score compares False
        hit = hit[np.lexsort((rows[hit], -score[hit]))[:max_terms]]
        lists.append(tuple((counts.terms[i], c)
                           for i, c in zip(rows[hit].tolist(), corr[hit].tolist())))
    return Lexicon(as_of=as_of, positive=lists[0], negative=lists[1])


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


def rolling_lexicons(
    counts: TermCounts,
    wages: WageSeries,
    targets: Sequence[MonthKey],
    policy: LexiconPolicy = LexiconPolicy(),
) -> dict[MonthKey, Lexicon]:
    """Lexicons for every feasible target month, from one corpus's counts.

    A target's window is a column span of ``counts`` that ends two months
    before it and starts at the first month covered by both the comment
    history and the wage-growth series, or, rolling with width w, w - 1
    months before its end if that is later. A target is feasible when its
    window holds at least two months, none past ``counts.months``, all
    with defined wage growth; infeasible targets are absent from the
    result. A feasible target's lexicon is :func:`select_lexicon` of its
    window under the policy's frequency floor and list size.
    """
    growth_at = wages.yoy_map
    if not counts.months or not growth_at:
        return {}
    origin = _ordinal(counts.months[0])
    growth = [growth_at.get(m) for m in counts.months]
    first = max(0, _ordinal(min(growth_at)) - origin)
    width = policy.rolling_width()
    lexicons: dict[MonthKey, Lexicon] = {}
    for as_of in targets:
        end = _ordinal(as_of) - 1 - origin  # one past the column of as_of - 2
        start = first if width is None else max(first, end - width)
        if end - start < 2 or end > len(growth) or None in growth[start:end]:
            continue
        lexicons[as_of] = select_lexicon(counts, slice(start, end), growth[start:end], as_of,
                                         policy.min_mean_frequency, policy.max_terms)
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

    def classify_batch(self, pairs: Sequence[tuple[int, int]]) -> BatchResult:
        probs = [occurrence_probabilities(p, n, self.smoothing) for p, n in pairs]
        return BatchResult(probs=probs, failed=[False] * len(probs), wire_calls=0)

    def classify_corpus(self, corpus: Corpus, counts: TermCounts,
                        lexicons: Mapping[MonthKey, Lexicon]) -> tuple[Classified, list[str]]:
        """The records of each month with a lexicon, classified under it, and
        the rows of the word-count CSV.

        ``counts`` holds the tokens of the corpus's texts. A month's distinct
        texts are counted once each; a month without a lexicon is absent.
        A record's answer depends only on its (positive, negative) pair, so
        the answer table has one row per distinct pair, from one batch. The
        rows ``as_of,positive_occurrences,negative_occurrences,wordcount_index``
        are a month-level word-count aggregate, logged alongside the
        per-comment classification for comparison; both use the same
        occurrence counts.
        """
        texts = corpus.texts
        pairs = Codes()  # (p, n) -> answer code
        months, segments = [], []
        rows = ["as_of,positive_occurrences,negative_occurrences,wordcount_index"]
        for month, records in corpus.month_slices():
            if month not in lexicons:
                continue
            distinct, inverse = np.unique(corpus.text_ids[records], return_inverse=True)
            occurrences = [occurrence_counts(counts.tokens[texts[t]], lexicons[month])
                           for t in distinct.tolist()]
            months.append(month)
            pair_codes = np.array([pairs[pair] for pair in occurrences], dtype=np.intp)
            segments.append(pair_codes[inverse])
            p_total, n_total = (np.bincount(inverse) @ np.array(occurrences)).tolist()
            ratio = ((p_total - n_total) / (p_total + n_total) * 100.0
                     if p_total + n_total else 0.0)
            rows.append(f"{month},{p_total},{n_total},{ratio!r}")
        answers = self.classify_batch(pairs.table)
        bounds = np.cumsum([0, *map(len, segments)])
        codes = np.concatenate([np.empty(0, dtype=np.intp), *segments])
        return Classified.from_answers(answers.probs, answers.failed, codes, months, bounds), rows
