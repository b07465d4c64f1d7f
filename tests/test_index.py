import random

import pytest
from hypothesis import given, settings, strategies as st

from wsi.classify import ClassProbabilities, ClassifiedComment, HardLabel, UNRELATED
from wsi.corpus import MonthKey
from wsi.index import (
    MonthlyCounts,
    Normalization,
    SERIES_CSV_HEADER,
    build_series,
    count_labels,
    series_csv_rows,
    standard_wsi,
    weighted_wsi,
)


M = MonthKey(2020, 1)


def counts(alpha, beta, gamma, excluded=0, month=M):
    return MonthlyCounts(month=month, alpha=alpha, beta=beta, gamma=gamma,
                         excluded=excluded)


def classified(probs, failed=False):
    p = ClassProbabilities(*probs)
    return ClassifiedComment(
        probs=p,
        backend_id="test",
        hard_label=HardLabel.UNRELATED if failed else p.hard_label(),
        failed=failed,
    )


valid_triples = st.one_of(
    st.tuples(st.floats(0.001, 1), st.floats(0.001, 1), st.floats(0.001, 1)).map(
        lambda t: (t[0] / sum(t), t[1] / sum(t), t[2] / sum(t))
    ),
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
)


class TestStandardWsi:
    def test_hand_case(self):
        assert standard_wsi(counts(10, 5, 5)) == 25.0

    def test_all_neutral_is_zero(self):
        assert standard_wsi(counts(0, 0, 12)) == 0.0

    def test_symmetric_is_zero(self):
        assert standard_wsi(counts(7, 7, 0)) == 0.0

    def test_empty_month_is_absent(self):
        assert standard_wsi(counts(0, 0, 0, excluded=3)) is None

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_bounds(self, a, b, g):
        c = counts(a, b, g)
        value = standard_wsi(c)
        if a + b + g == 0:
            assert value is None
        else:
            assert -100.0 <= value <= 100.0


class TestWeightedWsi:
    def test_single_triple_literal(self):
        value = weighted_wsi([ClassProbabilities(0.7, 0.1, 0.2)],
                             Normalization.RAW_SUM)
        assert value == pytest.approx(60.0, abs=1e-12)

    def test_antisymmetric_pair_is_zero_in_both_modes(self):
        triples = [ClassProbabilities(1, 0, 0), ClassProbabilities(0, 1, 0)]
        assert weighted_wsi(triples, Normalization.RAW_SUM) == 0.0
        assert weighted_wsi(triples, Normalization.PER_COMMENT) == 0.0

    def test_empty_is_absent(self):
        assert weighted_wsi([], Normalization.PER_COMMENT) is None

    def test_hundred_random_triples_match_brute_force(self):
        rng = random.Random(12)
        triples = []
        for _ in range(100):
            u, v, w = rng.random(), rng.random(), rng.random()
            s = u + v + w
            triples.append(ClassProbabilities(u / s, v / s, w / s))
        literal = weighted_wsi(triples, Normalization.RAW_SUM)
        per_comment = weighted_wsi(triples, Normalization.PER_COMMENT)
        oracle = sum((t.u - t.v) / (t.u + t.v + t.w) * 100.0 for t in triples)
        assert literal == pytest.approx(oracle, abs=1e-9)
        assert per_comment == pytest.approx(oracle / len(triples), abs=1e-9)

    @given(st.lists(valid_triples, min_size=1, max_size=60))
    def test_sign_antisymmetry(self, raw):
        triples = [ClassProbabilities(*t) for t in raw]
        swapped = [ClassProbabilities(t.v, t.u, t.w) for t in triples]
        for mode in Normalization:
            assert weighted_wsi(swapped, mode) == pytest.approx(
                -weighted_wsi(triples, mode), abs=1e-9)

    @given(st.lists(valid_triples, min_size=1, max_size=60))
    def test_literal_bound_scales_with_count(self, raw):
        triples = [ClassProbabilities(*t) for t in raw]
        literal = weighted_wsi(triples, Normalization.RAW_SUM)
        per_comment = weighted_wsi(triples, Normalization.PER_COMMENT)
        assert abs(literal) <= 100.0 * len(triples) + 1e-9
        assert -100.0 - 1e-9 <= per_comment <= 100.0 + 1e-9

    @given(st.lists(valid_triples, min_size=2, max_size=40), st.randoms())
    @settings(max_examples=30)
    def test_permutation_invariance(self, raw, rng):
        triples = [ClassProbabilities(*t) for t in raw]
        shuffled = triples[:]
        rng.shuffle(shuffled)
        for mode in Normalization:
            assert weighted_wsi(shuffled, mode) == pytest.approx(
                weighted_wsi(triples, mode), abs=1e-9)


class TestOneHotEquivalence:
    @given(st.lists(st.sampled_from([HardLabel.INCREASE, HardLabel.DECREASE,
                                     HardLabel.NEUTRAL]),
                    min_size=1, max_size=200))
    def test_one_hot_forces_equality(self, labels):
        one_hot = {
            HardLabel.INCREASE: (1.0, 0.0, 0.0),
            HardLabel.DECREASE: (0.0, 1.0, 0.0),
            HardLabel.NEUTRAL: (0.0, 0.0, 1.0),
        }
        comments = [classified(one_hot[label]) for label in labels]
        c = count_labels(comments, M)
        std = standard_wsi(c)
        wgt = weighted_wsi([x.probs for x in comments], Normalization.PER_COMMENT)
        assert abs(std - wgt) <= 1e-12


class TestBuildSeries:
    def test_single_month_counts_and_one_hot(self):
        comments = ([classified((1.0, 0.0, 0.0))] * 10
                    + [classified((0.0, 1.0, 0.0))] * 5
                    + [classified((0.0, 0.0, 1.0))] * 5)
        result = build_series({M: comments}, Normalization.PER_COMMENT)
        point = result.points[0]
        assert point.wsi_standard == 25.0
        assert point.wsi_weighted == pytest.approx(25.0, abs=1e-12)
        assert (point.counts.alpha, point.counts.beta, point.counts.gamma) == (10, 5, 5)

    def test_all_unrelated_month_skipped_and_reported(self):
        comments = [classified((0.0, 0.0, 0.0))] * 4
        result = build_series({M: comments})
        assert result.points == []
        assert result.skipped_months == [M]

    def test_failed_comments_reduce_n(self):
        comments = [classified((1.0, 0.0, 0.0))] * 6 + [
            classified((0.0, 0.0, 0.0), failed=True)] * 2
        result = build_series({M: comments})
        point = result.points[0]
        assert point.counts.total == 6
        assert point.counts.excluded == 2

    def test_300_months_monotone(self):
        by_month = {}
        for i in range(300):
            month = M.plus(i)
            by_month[month] = [classified((1.0, 0.0, 0.0))]
        result = build_series(by_month)
        assert len(result.points) == 300
        months = [p.month for p in result.points]
        assert months == sorted(months)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_series({})


class TestCsvExport:
    def test_rows_have_spec_columns(self):
        comments = [classified((1.0, 0.0, 0.0))] * 3 + [classified((0.0, 0.0, 0.0))]
        result = build_series({M: comments})
        rows = series_csv_rows(result.points)
        assert rows[0] == SERIES_CSV_HEADER
        assert rows[1] == "202001,100.0,100.0,3,0,0,1,3"


def test_counts_reject_negative():
    with pytest.raises(ValueError):
        MonthlyCounts(month=M, alpha=-1, beta=0, gamma=0, excluded=0)
