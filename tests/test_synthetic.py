import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsi.classify import default_keyword_classifier
from wsi.corpus import MonthKey, WageSeries, load_surveys, load_wages
from wsi.synthetic import (
    _JUDGMENTS,
    SyntheticSpec,
    _choice_cdf,
    _draw_index,
    generate_synthetic,
    synthesize,
)


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = SyntheticSpec(months=18, comments_per_month=25)
        generate_synthetic(spec, seed=3, out_dir=tmp_path / "a")
        generate_synthetic(spec, seed=3, out_dir=tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        spec = SyntheticSpec(months=18, comments_per_month=25)
        generate_synthetic(spec, seed=3, out_dir=tmp_path / "a")
        generate_synthetic(spec, seed=4, out_dir=tmp_path / "b")
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")


class TestJudgmentDraw:
    @given(st.integers(0, 2**63 - 1), st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_prebuilt_cdf_draws_what_choice_draws(self, seed, draws):
        """Same indices and the same generator state afterwards as one
        ``rng.choice(5, p=...)`` per draw, the generator's old form."""
        weights = np.array([w for _, w in _JUDGMENTS])
        cdf = _choice_cdf(weights)
        by_choice, by_cdf = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            assert _draw_index(by_cdf, cdf) == by_choice.choice(5, p=weights / weights.sum())
        assert by_cdf.bit_generator.state == by_choice.bit_generator.state


class TestShape:
    def test_counts_and_files(self, tmp_path):
        spec = SyntheticSpec(months=14, comments_per_month=30)
        survey_paths, wage_path = generate_synthetic(spec, seed=1, out_dir=tmp_path)
        assert len(survey_paths) == 14
        load = load_surveys(survey_paths)
        assert len(load.records) == 14 * 30
        assert not load.errors
        wages = load_wages(wage_path)
        assert len(wages.months) == 14
        assert len(wages.yoy_map) == 2  # months 13 and 14

    def test_wage_levels_positive_and_seasonal(self):
        spec = SyntheticSpec(months=24, comments_per_month=5, seasonal_amplitude=0.3)
        corpus = synthesize(spec, seed=2)
        levels = corpus.wage_levels
        assert all(v > 0 for v in levels.values())
        june = levels[MonthKey(2000, 6)]
        may = levels[MonthKey(2000, 5)]
        assert june > may  # bonus season bump in the base year

    def test_yoy_matches_planted_growth_construction(self):
        spec = SyntheticSpec(months=30, comments_per_month=5)
        corpus = synthesize(spec, seed=6)
        series = WageSeries(corpus.wage_levels)
        # growth is bounded by the clip applied in the generator
        for g in series.yoy_map.values():
            assert -30.0 - 1e-9 <= g <= 30.0 + 1e-9


class TestCausalWiring:
    def test_comment_polarity_tracks_sentiment(self):
        spec = SyntheticSpec(months=60, comments_per_month=200, lead_months=0)
        corpus = synthesize(spec, seed=9)
        mock = default_keyword_classifier()
        months = sorted({r.month for r in corpus.records})
        margins = []
        for i, month in enumerate(months):
            rows = [r for r in corpus.records if r.month == month]
            labels = [mock.classify_one(r.comment).hard_label() for r in rows]
            pos = sum(1 for l in labels if l == "Increase")
            neg = sum(1 for l in labels if l == "Decrease")
            margins.append((pos - neg) / max(1, pos + neg))
        sentiment = corpus.sentiment
        r = np.corrcoef(margins, sentiment)[0, 1]
        assert r > 0.9

    def test_sentiment_leads_growth_by_configured_months(self):
        lead = 3
        spec = SyntheticSpec(months=120, comments_per_month=5, lead_months=lead,
                             noise_scale=0.05)
        corpus = synthesize(spec, seed=10)
        series = WageSeries(corpus.wage_levels)
        months = sorted(corpus.wage_levels)
        growth = list(map(series.yoy_map.get, months))
        sentiment = corpus.sentiment
        # growth[i] should track sentiment[i - lead] far better than other lags
        def corr_at(k):
            xs = [sentiment[i - k] for i in range(12, len(months)) if i - k >= 0]
            ys = [growth[i] for i in range(12, len(months)) if i - k >= 0]
            return np.corrcoef(xs, ys)[0, 1]

        at_lead = corr_at(lead)
        assert at_lead > 0.95
        assert at_lead > corr_at(0) + 0.05

    def test_null_mode_has_no_link(self):
        spec = SyntheticSpec(months=120, comments_per_month=5, sentiment_scale=0.0,
                             noise_scale=1.0)
        corpus = synthesize(spec, seed=11)
        series = WageSeries(corpus.wage_levels)
        months = sorted(corpus.wage_levels)
        growth = list(map(series.yoy_map.get, months[12:]))
        sentiment = corpus.sentiment[12:]
        r = np.corrcoef(sentiment, growth)[0, 1]
        assert abs(r) < 0.35


class TestValidation:
    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(months=0)
        with pytest.raises(ValueError):
            SyntheticSpec(lead_months=-1)
        with pytest.raises(ValueError):
            SyntheticSpec(comments_per_month=0)

    def test_a_spec_ending_past_december_9999_is_rejected(self):
        assert synthesize(SyntheticSpec(months=12, start=MonthKey(9999, 1),
                                        comments_per_month=1), 1).records[-1].month \
            == MonthKey(9999, 12)
        with pytest.raises(ValueError, match="the last month, 1000012, is past 999912"):
            SyntheticSpec(months=24, start=MonthKey(9999, 1))

    def test_all_comments_parse_back(self, tmp_path):
        spec = SyntheticSpec(months=6, comments_per_month=40)
        survey_paths, _ = generate_synthetic(spec, seed=12, out_dir=tmp_path)
        load = load_surveys(survey_paths)
        assert not load.errors and load.skipped_empty == 0
        assert all(r.comment.strip() for r in load.records)
