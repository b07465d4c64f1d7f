import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import wsi.lexicon
from wsi.classify import LABELS, HardLabel, UNRELATED
from wsi.corpus import Corpus, MonthKey, WageSeries, month_range
from wsi.econometrics import UndefinedCorrelationError, pearson
from wsi.lexicon import (
    Lexicon,
    LexiconBackend,
    LexiconPolicy,
    STOP_WORDS,
    TermCounts,
    audit_rows,
    monthly_term_counts,
    occurrence_counts,
    occurrence_probabilities,
    rolling_lexicons,
    select_lexicon,
    term_correlations,
    tokenize,
)

from conftest import make_record

START = MonthKey(2019, 1)


def wages_with_growth(growth_by_month):
    """Wage series whose yoy equals the given percentages exactly."""
    months = sorted(growth_by_month)
    first = months[0].minus(12)
    levels = {first.plus(i): 100.0 for i in range(12)}
    for m in months:
        levels[m] = levels[m.minus(12)] * (1.0 + growth_by_month[m] / 100.0)
    return WageSeries(levels)


def term_counts(grouped):
    """monthly_term_counts of each month's record texts."""
    return monthly_term_counts({m: [r.text for r in records] for m, records in grouped.items()})


def select(grouped, wages, window, min_mean_frequency=5.0, max_terms=10):
    """select_lexicon over the whole corpus's counts, for the span of its
    months that ``window`` lists, and the window's growth."""
    counts = term_counts(grouped)
    start = counts.months.index(window[0])
    span = slice(start, start + len(window))
    assert list(counts.months[span]) == list(window)
    return select_lexicon(counts, span, list(map(wages.yoy_map.get, window)),
                          window[-1].plus(2), min_mean_frequency, max_terms)


def select_rows(rows_by_term, growth, min_mean_frequency=0.0, max_terms=10):
    """select_lexicon over a term matrix with the given rows (any term
    order), its window every column."""
    terms = sorted(rows_by_term)
    width = len(growth)
    counts = TermCounts(terms=tuple(terms), months=tuple(month_range(START, START.plus(width - 1))),
                        matrix=np.array([rows_by_term[t] for t in terms],
                                        dtype=np.int64).reshape(len(terms), width),
                        tokens={})
    return select_lexicon(counts, slice(0, width), growth, START.plus(width + 1),
                          min_mean_frequency, max_terms)


def selected(lexicon):
    """{term: correlation} over both polarities."""
    return dict(lexicon.positive + lexicon.negative)


def corpus_from_counts(counts_by_term):
    """Grouped records where each term appears exactly counts[month] times."""
    grouped = {}
    for term, monthly in counts_by_term.items():
        for month, count in monthly.items():
            rows = grouped.setdefault(month, [])
            for i in range(count):
                rows.append(make_record(month, f"{term} mentioned"))
    return {m: grouped[m] for m in sorted(grouped)}


class TestTokenize:
    def test_lowercases_and_drops_stop_words(self):
        assert tokenize("Wages were RAISED!") == ["wages", "raised"]

    def test_empty(self):
        assert tokenize("") == []

    def test_splits_on_non_alphanumeric_runs(self):
        assert tokenize("pay-rise: 3% (announced)") == ["pay", "rise", "3", "announced"]

    def test_stop_word_list_loaded(self):
        assert "were" in STOP_WORDS and "the" in STOP_WORDS
        assert "wages" not in STOP_WORDS

    def test_corpus_multiset_matches_one_pass_oracle(self):
        rng = random.Random(4)
        vocab = ["bonus", "cut", "shop", "customers", "the", "were", "pay2x"]
        docs = [" ".join(rng.choices(vocab, k=rng.randint(0, 12))) for _ in range(1000)]
        got = {}
        for doc in docs:
            for token in tokenize(doc):
                got[token] = got.get(token, 0) + 1
        # independent one-pass oracle: manual character scan
        expected = {}
        for doc in docs:
            word = []
            for ch in doc.lower() + " ":
                if ch.isascii() and (ch.isalnum()):
                    word.append(ch)
                elif word:
                    token = "".join(word)
                    if token not in STOP_WORDS:
                        expected[token] = expected.get(token, 0) + 1
                    word = []
        assert got == expected


class TestEligibility:
    def test_threshold_boundary_exactly_five_survives(self):
        window = month_range(START, START.plus(3))
        counts = {
            "steady5": {m: 5 + (i % 2) for i, m in enumerate(window)},  # mean 5.5
            "exactly5": {m: 5 for m in window},                          # mean 5, no variance
            "justunder": {m: 4 + (i % 2) for i, m in enumerate(window)},  # mean 4.5
        }
        grouped = corpus_from_counts(counts)
        wages = wages_with_growth({m: float(i) for i, m in enumerate(window)})
        lex = select(grouped, wages, window)
        assert "steady5" in lex.positive_terms
        # exactly5's mean 5.0 passes the >= 5 filter, but with zero variance
        # it cannot be ranked
        assert "exactly5" not in selected(lex)
        assert "justunder" not in selected(lex)
        # a floor of exactly its mean admits justunder, which ties steady5
        lower = selected(select(grouped, wages, window, min_mean_frequency=4.5))
        assert lower["justunder"] == lower["steady5"] == selected(lex)["steady5"]

    def test_constant_frequency_is_never_selected(self):
        window = month_range(START, START.plus(2))
        grouped = corpus_from_counts({"flatword": {m: 9 for m in window}})
        wages = wages_with_growth({m: float(i) for i, m in enumerate(window)})
        for threshold in (0.0, 9.0):
            lex = select(grouped, wages, window, min_mean_frequency=threshold)
            assert lex.positive == () and lex.negative == ()

    def test_constructed_bonus_correlation_exceeds_09(self):
        rng = random.Random(11)
        window = month_range(START, START.plus(23))
        growth = {m: 3.0 * math.sin(i / 3.0) + rng.uniform(-0.3, 0.3)
                  for i, m in enumerate(window)}
        bonus_counts = {m: round(10 + 2 * growth[m]) for m in window}
        noise_counts = {m: rng.randint(5, 15) for m in window}
        grouped = corpus_from_counts({"bonus": bonus_counts, "shop": noise_counts})
        wages = wages_with_growth(growth)
        bonus = selected(select(grouped, wages, window))["bonus"]
        assert bonus > 0.9
        # direct Pearson oracle
        xs = [bonus_counts[m] for m in window]
        ys = [growth[m] for m in window]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
        assert bonus == pytest.approx(num / den, abs=1e-12)


def pearson_or_nan(xs, ys):
    try:
        return pearson(xs, ys)
    except UndefinedCorrelationError:
        return math.nan


def assert_matches_pearson(freqs, growth):
    got = term_correlations(freqs, growth)
    assert got.shape == (len(freqs),)
    for row, corr in zip(freqs, got):
        expected = pearson_or_nan(row, growth)
        if math.isnan(expected):
            assert math.isnan(corr)
        else:
            assert abs(corr - expected) <= 1e-12
            assert -1.0 <= corr <= 1.0


class TestTermCorrelations:
    def test_seeded_matrices_match_pearson(self):
        rng = np.random.default_rng(17)
        for width in (2, 3, 7, 24, 65, 200):
            freqs = rng.integers(0, 30, size=(40, width))
            freqs[3] = 0                     # all-zero row
            freqs[5] = 9                     # constant row: zero variance
            freqs[8] = freqs[11]             # duplicate rows
            freqs[12, :] = rng.integers(0, 2, size=width) * 1000  # large counts
            growth = rng.normal(2.0, 1.5, size=width)
            assert_matches_pearson(freqs, growth)

    @given(st.integers(2, 12).flatmap(lambda w: st.tuples(
        st.lists(st.lists(st.integers(0, 50), min_size=w, max_size=w),
                 min_size=1, max_size=8),
        st.lists(st.floats(-20, 20, allow_nan=False), min_size=w, max_size=w))))
    def test_random_matrices_match_pearson(self, case):
        rows, growth = case
        assert_matches_pearson(np.array(rows), growth)

    def test_one_term_vocabulary(self):
        assert_matches_pearson(np.array([[3, 8, 5, 9]]), [0.5, 1.5, 1.0, 2.5])

    def test_zero_variance_growth_leaves_every_term_undefined(self):
        got = term_correlations(np.array([[1, 5, 2], [0, 0, 0]]), [2.0, 2.0, 2.0])
        assert np.isnan(got).all()

    def test_identical_rows_get_bit_identical_correlations(self):
        """Exact ties stay ties, so select_lexicon cuts them alphabetically."""
        rng = np.random.default_rng(5)
        for width in (5, 31, 64, 129):
            base = rng.integers(0, 20, size=width)
            freqs = np.vstack([rng.integers(0, 20, size=(13, width)), base,
                               rng.integers(0, 20, size=(6, width)), base, base])
            got = term_correlations(freqs, rng.normal(size=width))
            assert got[13] == got[20] == got[21]

    def test_empty_vocabulary(self):
        assert term_correlations(np.zeros((0, 4)), [1.0, 2.0, 3.0, 5.0]).shape == (0,)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            term_correlations(np.ones((2, 3)), [1.0, 2.0])
        with pytest.raises(ValueError):
            term_correlations(np.ones((2, 1)), [1.0])


def random_corpus(seed, n_months=18, vocab=("bonus", "cut", "shop", "pay", "staff", "rare")):
    rng = random.Random(seed)
    months = month_range(START, START.plus(n_months - 1))
    grouped = {}
    for month in months:
        if rng.random() < 0.1:
            continue  # a month without comments
        grouped[month] = [
            make_record(month, " ".join(rng.choices(vocab, k=rng.randint(1, 6))))
            for _ in range(rng.randint(3, 12))
        ]
    growth = {m: rng.uniform(-3.0, 3.0) for m in months}
    return grouped, wages_with_growth(growth), months


class TestTermCounts:
    def test_matrix_matches_per_token_loop(self):
        grouped, _, _ = random_corpus(3)
        counts = term_counts(grouped)
        expected = {}
        for month, records in grouped.items():
            for record in records:
                for token in tokenize(record.text):
                    expected[(token, month)] = expected.get((token, month), 0) + 1
        assert list(counts.terms) == sorted({t for t, _ in expected})
        assert len(counts) == len(counts.terms)
        assert list(counts.months) == month_range(min(grouped), max(grouped))
        for i, term in enumerate(counts.terms):
            for j, month in enumerate(counts.months):
                assert counts.matrix[i, j] == expected.get((term, month), 0)

    def test_each_distinct_text_tokenized_once(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        grouped, wages, months = build_planted_setup()
        monkeypatch.setattr(wsi.lexicon, "tokenize", counting_tokenize)
        counts = term_counts(grouped)
        lexicons = rolling_lexicons(counts, wages, months)
        assert lexicons
        texts = {r.text for records in grouped.values() for r in records}
        assert sorted(calls) == sorted(texts)
        assert set(counts.tokens) == texts


def bare_corpus(counts_by_term):
    """Grouped records whose comments are the bare terms, nothing else."""
    grouped = {}
    for term, monthly in counts_by_term.items():
        for month, count in monthly.items():
            grouped.setdefault(month, []).extend(make_record(month, term) for _ in range(count))
    return grouped


class TestSelectionKernel:
    def test_correlations_match_per_term_pearson_loop(self):
        for seed in range(6):
            grouped, wages, months = random_corpus(seed)
            window = months[2:15]
            for threshold in (0.0, 1.0, 2.5):
                lex = select(grouped, wages, window, min_mean_frequency=threshold,
                             max_terms=100)
                growth = list(map(wages.yoy_map.get, window))
                expected = {}
                # every corpus term: one absent from the window has mean 0
                for term in sorted({t for records in grouped.values() for r in records
                                    for t in tokenize(r.text)}):
                    freqs = [sum(tokenize(r.text).count(term) for r in grouped.get(m, []))
                             for m in window]
                    corr = pearson_or_nan(freqs, growth)
                    if sum(freqs) / len(window) >= threshold and corr != 0.0 \
                            and not math.isnan(corr):
                        expected[term] = corr
                assert sorted(selected(lex)) == sorted(expected)
                assert lex.positive_terms == {t for t, c in expected.items() if c > 0}
                for term, corr in selected(lex).items():
                    assert abs(corr - expected[term]) <= 1e-12
                assert [c for _, c in lex.positive] == sorted((c for _, c in lex.positive),
                                                               reverse=True)
                assert [c for _, c in lex.negative] == sorted(c for _, c in lex.negative)

    def test_varying_row_with_mean_exactly_at_threshold_is_ranked(self):
        window = month_range(START, START.plus(3))
        counts = {"atfive": dict(zip(window, (4, 6, 3, 7))),   # mean exactly 5
                  "below": dict(zip(window, (4, 6, 3, 6)))}    # mean 4.75
        lex = select(bare_corpus(counts),
                     wages_with_growth({m: float(i) for i, m in enumerate(window)}), window)
        assert list(selected(lex)) == ["atfive"]
        assert abs(lex.positive[0][1] - pearson([4, 6, 3, 7], [0.0, 1.0, 2.0, 3.0])) <= 1e-12

    def test_one_term_vocabulary(self):
        window = month_range(START, START.plus(5))
        grouped = bare_corpus({"solo": dict(zip(window, (5, 7, 6, 9, 8, 10)))})
        growth = {m: float(i) for i, m in enumerate(window)}
        lex = select(grouped, wages_with_growth(growth), window)
        assert [t for t, _ in lex.positive] == ["solo"] and lex.negative == ()
        assert abs(lex.positive[0][1]
                   - pearson([5, 7, 6, 9, 8, 10], list(growth.values()))) <= 1e-12


def signed_rows(n_positive, n_negative, width=12, seed=2):
    """Count rows and a growth series: the first ``n_positive`` rows
    correlate positively with it, the rest negatively (each a drawn row or
    its mirror ``30 - row``), no correlation zero or undefined."""
    rng = np.random.default_rng(seed)
    growth = rng.normal(size=width).tolist()
    rows = []
    while len(rows) < n_positive + n_negative:
        row = rng.integers(0, 31, size=width)
        corr = pearson_or_nan(row.tolist(), growth)
        if corr != 0.0 and not math.isnan(corr):
            rows.append(row if (corr > 0) == (len(rows) < n_positive) else 30 - row)
    return [row.tolist() for row in rows], growth


class TestSelectLexicon:
    def test_top_ten_of_25_candidates_matches_sort_oracle(self):
        rows, growth = signed_rows(25, 25)
        names = [f"pos{i:02d}" for i in range(25)] + [f"neg{i:02d}" for i in range(25)]
        corrs = {t: pearson(row, growth) for t, row in zip(names, rows)}
        lex = select_rows(dict(zip(names, rows)), growth)
        oracle_pos = sorted((t for t in corrs if corrs[t] > 0),
                            key=lambda t: -corrs[t])[:10]
        oracle_neg = sorted((t for t in corrs if corrs[t] < 0),
                            key=lambda t: corrs[t])[:10]
        assert [t for t, _ in lex.positive] == oracle_pos
        assert [t for t, _ in lex.negative] == oracle_neg

    def test_four_candidates_give_a_short_list(self):
        rows, growth = signed_rows(4, 11)
        names = [f"p{i}" for i in range(4)] + [f"n{i:02d}" for i in range(11)]
        lex = select_rows(dict(zip(names, rows)), growth)
        assert len(lex.positive) == 4
        assert len(lex.negative) == 10

    def test_tie_at_rank_ten_prefers_alphabetical(self):
        rows, growth = signed_rows(10, 1)
        rows[:10] = sorted(rows[:10], key=lambda row: -pearson(row, growth))
        by_term = {f"top{i}": row for i, row in enumerate(rows[:9])}  # ranks 1..9
        by_term["zebra"] = by_term["aardvark"] = rows[9]  # exact tie at rank 10
        by_term["neg"] = rows[10]
        lex = select_rows(by_term, growth)
        assert [t for t, _ in lex.positive] == [f"top{i}" for i in range(9)] + ["aardvark"]
        assert "zebra" not in lex.positive_terms
        assert select_rows(by_term, growth, max_terms=11).positive[-2:] == (
            ("aardvark", lex.positive[-1][1]), ("zebra", lex.positive[-1][1]))

    def test_zero_correlation_terms_are_not_selected(self):
        growth = [0.0, 1.0, 2.0, 3.0]
        lex = select_rows({"zero": [1, 0, 0, 1], "pos": [0, 1, 2, 3], "neg": [3, 2, 1, 0]},
                          growth)
        assert [t for t, _ in lex.positive] == ["pos"]
        assert [t for t, _ in lex.negative] == ["neg"]

    def test_term_sets_built_once(self):
        lex = lexicon_with(["bonus", "raise"], ["cut"])
        assert lex.positive_terms is lex.positive_terms
        assert lex.negative_terms is lex.negative_terms
        assert lex.positive_terms == {"bonus", "raise"}
        assert lex.negative_terms == {"cut"}

    def test_unranked_terms_ignored(self):
        lex = select_rows({"a": [1, 2, 3], "b": [4, 4, 4]}, [0.0, 1.0, 3.0])
        assert [t for t, _ in lex.positive] == ["a"] and lex.negative == ()

    def test_overlapping_lists_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            lexicon_with(["bonus"], ["bonus"])


@dataclass(frozen=True)
class TermStats:
    term: str
    mean_frequency: float
    correlation: float | None  # None when undefined (zero variance)


def build_term_stats(counts: TermCounts, window: slice, growth: Sequence[float],
                     min_mean_frequency: float) -> list[TermStats]:
    """Frequency-filtered terms with their correlation against wage growth.

    ``window`` is a span of ``counts.months`` and ``growth`` holds the wage
    growth of each of its months. Terms must average at least
    ``min_mean_frequency`` occurrences per window month. Correlation is None
    for terms whose frequency does not vary within the window (they cannot
    be ranked).
    """
    freqs = counts.matrix[:, window]
    means = freqs.sum(axis=1) / freqs.shape[1]
    eligible = np.flatnonzero(means >= min_mean_frequency)
    correlations = term_correlations(freqs[eligible], growth)
    return [
        TermStats(term=counts.terms[i], mean_frequency=float(means[i]),
                  correlation=None if np.isnan(c) else float(c))
        for i, c in zip(eligible, correlations)
    ]


def select_lexicon_reference(counts, window, growth, as_of, min_mean_frequency, max_terms):
    """The selection as it was before it became one array pass: one
    ``TermStats`` per eligible term, then a Python sort per polarity keyed
    on (correlation, term). Kept verbatim as the oracle of select_lexicon,
    less the two Lexicon fields since removed."""
    stats = build_term_stats(counts, window, growth, min_mean_frequency)
    ranked = [(s.term, s.correlation) for s in stats if s.correlation is not None]
    positive = sorted(
        ((t, c) for t, c in ranked if c > 0), key=lambda tc: (-tc[1], tc[0])
    )[:max_terms]
    negative = sorted(
        ((t, c) for t, c in ranked if c < 0), key=lambda tc: (tc[1], tc[0])
    )[:max_terms]
    return Lexicon(
        as_of=as_of,
        positive=tuple(positive),
        negative=tuple(negative),
    )


@st.composite
def selection_cases(draw):
    """A term matrix of small counts (so exact ties and constant rows
    occur), a window of at least two of its months, the window's growth on
    a grid of eighths (so equal and constant growth occur), a frequency
    floor and a list size."""
    n_terms, n_months = draw(st.integers(0, 10)), draw(st.integers(2, 8))
    matrix = draw(st.lists(st.lists(st.integers(0, 3), min_size=n_months, max_size=n_months),
                           min_size=n_terms, max_size=n_terms))
    start = draw(st.integers(0, n_months - 2))
    end = draw(st.integers(start + 2, n_months))
    growth = draw(st.lists(st.integers(-24, 24).map(lambda k: k / 8),
                           min_size=end - start, max_size=end - start))
    counts = TermCounts(terms=tuple(f"t{i}" for i in range(n_terms)),
                        months=tuple(month_range(START, START.plus(n_months - 1))),
                        matrix=np.array(matrix, dtype=np.int64).reshape(n_terms, n_months),
                        tokens={})
    return (counts, slice(start, end), growth, START.plus(end + 1),
            draw(st.sampled_from([0.0, 0.5, 1.0, 4 / 3, 2.0, 3.5])), draw(st.integers(1, 5)))


# three rows correlate exactly 1.0, and two make the list
THREE_WAY_TIE = (TermCounts(terms=("t0", "t1", "t2"),
                            months=tuple(month_range(START, START.plus(2))),
                            matrix=np.array([[0, 1, 2], [1, 2, 3], [0, 2, 4]]), tokens={}),
                 slice(0, 3), [0.0, 0.5, 1.0], START.plus(4), 0.0, 2)


class TestSelectLexiconMatchesReference:
    @given(selection_cases())
    @example(THREE_WAY_TIE)
    def test_equals_the_per_term_sort_exactly(self, case):
        got = select_lexicon(*case)
        assert got == select_lexicon_reference(*case)
        assert all(type(c) is float for _, c in got.positive + got.negative)


def lexicon_with(pos, neg, as_of=MonthKey(2020, 6)):
    return Lexicon(
        as_of=as_of,
        positive=tuple((t, 0.5) for t in pos),
        negative=tuple((t, -0.5) for t in neg),
    )


class TestLexiconClassify:
    def test_three_positive_hits(self):
        counts = occurrence_counts(["bonus", "raise", "bonus", "shop"],
                                   lexicon_with(["bonus", "raise"], ["cut"]))
        probs = occurrence_probabilities(*counts)
        assert probs.as_tuple() == (0.75, 0.0, 0.25)
        assert probs.hard_label() == HardLabel.INCREASE

    def test_balanced_hits_are_neutral(self):
        counts = occurrence_counts(["bonus", "cut", "bonus", "cut"],
                                   lexicon_with(["bonus"], ["cut"]))
        probs = occurrence_probabilities(*counts)
        assert probs.as_tuple() == (0.4, 0.4, 0.2)
        assert probs.hard_label() == HardLabel.NEUTRAL

    def test_no_hits_is_unrelated(self):
        counts = occurrence_counts(["shop", "customers"], lexicon_with(["bonus"], ["cut"]))
        assert occurrence_probabilities(*counts) == UNRELATED

    def test_no_smoothing_policy(self):
        lex = lexicon_with(["bonus"], ["cut"])
        probs = occurrence_probabilities(*occurrence_counts(["bonus", "bonus", "cut"], lex),
                                         smoothing="none")
        assert probs.as_tuple() == pytest.approx((2 / 3, 1 / 3, 0.0))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            occurrence_probabilities(*occurrence_counts(["bonus"], lexicon_with(["bonus"], [])),
                                     smoothing="bogus")

    @given(st.integers(0, 20), st.integers(0, 20))
    def test_direction_follows_counts(self, p, n):
        lex = lexicon_with(["pos"], ["neg"])
        tokens = ["pos"] * p + ["neg"] * n
        probs = occurrence_probabilities(*occurrence_counts(tokens, lex))
        if p + n == 0:
            assert probs.is_unrelated()
        else:
            assert (probs.u > probs.v) == (p > n)
            total = probs.u + probs.v + probs.w
            assert abs(total - 1.0) <= 1e-9

    def test_occurrence_counts(self):
        lex = lexicon_with(["bonus"], ["cut"])
        assert occurrence_counts(["bonus", "cut", "bonus"], lex) == (2, 1)


class TestClassifyCorpus:
    @pytest.mark.parametrize("smoothing", ["laplace", "none"])
    def test_matches_per_record_loop(self, smoothing):
        grouped, wages, _ = random_corpus(7)
        for records in grouped.values():
            records.extend(records[:2])  # repeated texts within each month
        corpus = Corpus.from_records([r for records in grouped.values() for r in records])
        counts = term_counts(grouped)
        lexicons = rolling_lexicons(counts, wages, list(grouped),
                                    LexiconPolicy(min_mean_frequency=1.0))
        months = [m for m in grouped if m in lexicons]
        assert lexicons and len(months) < len(grouped)
        classified, rows = LexiconBackend(smoothing).classify_corpus(corpus, counts, lexicons)

        expected, pairs = [], set()
        wordcounts = ["as_of,positive_occurrences,negative_occurrences,wordcount_index"]
        for month in months:
            occurrences = [occurrence_counts(tokenize(r.text), lexicons[month])
                           for r in grouped[month]]
            expected += [occurrence_probabilities(p, n, smoothing) for p, n in occurrences]
            pairs.update(occurrences)
            p_total = sum(p for p, _ in occurrences)
            n_total = sum(n for _, n in occurrences)
            ratio = (p_total - n_total) / (p_total + n_total) * 100.0 if p_total + n_total else 0.0
            wordcounts.append(f"{month},{p_total},{n_total},{ratio!r}")
        assert classified.months == months  # a month without a lexicon is absent
        assert np.diff(classified.bounds).tolist() == [len(grouped[m]) for m in months]
        codes = classified.codes
        assert list(zip(classified.u[codes], classified.v[codes], classified.w[codes])) == \
            [p.as_tuple() for p in expected]
        assert [LABELS[label] for label in classified.label[codes]] == \
            [p.hard_label() for p in expected]
        assert not classified.failed.any()
        assert len(classified.u) == len(pairs)  # one answer per distinct pair
        assert rows == wordcounts


def build_planted_setup(n_months=30, seed=13, negate=False):
    """Corpus where 'bonus' tracks growth positively and 'cut' negatively."""
    rng = random.Random(seed)
    window = month_range(START, START.plus(n_months - 1))
    sign = -1.0 if negate else 1.0
    growth = {m: sign * (3.0 * math.sin(i / 2.5) + rng.uniform(-0.2, 0.2))
              for i, m in enumerate(window)}
    counts = {
        "bonus": {m: max(0, round(10 + 2 * sign * growth[m])) for m in window},
        "cut": {m: max(0, round(10 - 2 * sign * growth[m])) for m in window},
        "shop": {m: rng.randint(6, 14) for m in window},
    }
    return corpus_from_counts(counts), wages_with_growth(growth), window


class TestRollingLexicons:
    def test_rolling_causality_poisoning_later_months_changes_nothing(self):
        grouped, wages, window = build_planted_setup()
        as_of = window[20]
        base = rolling_lexicons(term_counts(grouped), wages, [as_of])[as_of]
        # poison every month after the window end (> as_of - 2)
        poisoned = dict(grouped)
        for m in window:
            if m > as_of.minus(2):
                poisoned[m] = [make_record(m, "bonus " * 50) for _ in range(40)]
        again = rolling_lexicons(term_counts(poisoned), wages, [as_of])[as_of]
        assert again == base

    def test_polarity_antisymmetry_negating_growth_swaps_lists(self):
        grouped, wages, window = build_planted_setup()
        as_of = window[20]
        counts = term_counts(grouped)
        lex = rolling_lexicons(counts, wages, [as_of])[as_of]
        negated_growth = {m: -g for m, g in wages.yoy_map.items()}
        neg_wages = wages_with_growth(negated_growth)
        flipped = rolling_lexicons(counts, neg_wages, [as_of])[as_of]
        assert [t for t, _ in flipped.positive] == [t for t, _ in lex.negative]
        assert [t for t, _ in flipped.negative] == [t for t, _ in lex.positive]
        for (_, c1), (_, c2) in zip(flipped.positive, lex.negative):
            assert c1 == pytest.approx(-c2, abs=1e-12)

    def test_filter_monotonicity(self):
        grouped, wages, window = build_planted_setup()
        as_of = window[20]
        months = month_range(max(min(grouped), min(wages.yoy_map)), as_of.minus(2))
        surviving = {}
        for threshold in (1.0, 5.0, 9.0, 12.0):
            lex = select(grouped, wages, months, min_mean_frequency=threshold, max_terms=100)
            surviving[threshold] = set(selected(lex))
        assert surviving[5.0] <= surviving[1.0]
        assert surviving[9.0] <= surviving[5.0]
        assert surviving[12.0] <= surviving[9.0]

    def test_infeasible_warmup_months_absent(self):
        grouped, wages, window = build_planted_setup()
        lexicons = rolling_lexicons(term_counts(grouped), wages, window)
        start = max(min(grouped), min(wages.yoy_map))
        # first feasible as_of needs a two-month window ending at as_of - 2
        assert min(lexicons) == start.plus(3)
        assert max(lexicons) == window[-1]

    def test_target_past_the_wage_series_is_absent(self):
        grouped, wages, window = build_planted_setup()
        counts, targets, last = term_counts(grouped), window[-8:], window[-6]
        short = wages_with_growth({m: g for m, g in wages.yoy_map.items() if m <= last})
        lexicons = rolling_lexicons(counts, short, targets)
        # a target's window ends two months before it
        assert sorted(lexicons) == [m for m in targets if m.minus(2) <= last]
        full = rolling_lexicons(counts, wages, targets)
        assert lexicons == {m: full[m] for m in lexicons}

    def test_target_past_the_corpus_is_absent(self):
        """A window may not leave the corpus's months, even where wage growth is defined."""
        grouped, wages, window = build_planted_setup()
        last = window[-5]
        counts = term_counts({m: records for m, records in grouped.items() if m <= last})
        targets = window[-8:]
        lexicons = rolling_lexicons(counts, wages, targets)
        assert sorted(lexicons) == [m for m in targets if m.minus(2) <= last]
        full = rolling_lexicons(term_counts(grouped), wages, targets)
        assert lexicons == {m: full[m] for m in lexicons}

    def test_rolling_window_policy(self, monkeypatch):
        grouped, wages, window = build_planted_setup()
        counts = term_counts(grouped)
        spans = []

        def recording(counts, span, *args):
            spans.append(span)
            return select_lexicon(counts, span, *args)

        monkeypatch.setattr(wsi.lexicon, "select_lexicon", recording)
        targets = [window[20], window[4]]
        lexicons = rolling_lexicons(counts, wages, targets, LexiconPolicy(window="rolling:6"))
        assert sorted(lexicons) == sorted(targets)
        # six months ending at as_of - 2, cut at the corpus's first month
        assert [counts.months[span] for span in spans] == [
            tuple(month_range(window[13], window[18])), tuple(window[:3])]
        with pytest.raises(ValueError):
            LexiconPolicy(window="rolling:x").rolling_width()

    @pytest.mark.parametrize("field, value", [
        ("window", "bogus"), ("window", "rolling:1"), ("window", "rolling:"),
        ("min_mean_frequency", math.nan), ("min_mean_frequency", math.inf),
        ("min_mean_frequency", -0.5), ("max_terms", 0), ("max_terms", -1),
        ("smoothing", "bogus"),
    ])
    def test_policy_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LexiconPolicy(**{field: value})

    def test_audit_rows_shape(self):
        grouped, wages, window = build_planted_setup()
        as_of = window[20]
        lexicons = rolling_lexicons(term_counts(grouped), wages, [as_of])
        rows = audit_rows(lexicons)
        assert rows[0] == "as_of,polarity,rank,term,correlation"
        assert any(f"{as_of},positive,1,bonus" in r for r in rows)
