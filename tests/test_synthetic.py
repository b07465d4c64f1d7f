import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsi import synthetic
from wsi.classify import default_keyword_classifier
from wsi.corpus import MonthKey, SurveyRecord, WageSeries, load_surveys, load_wages
from wsi.synthetic import (
    _INDUSTRIES,
    _JUDGMENTS,
    _NEGATIVE_TEMPLATES,
    _NEUTRAL_TEMPLATES,
    _POSITIVE_TEMPLATES,
    _REGIONS,
    _UNRELATED_TEMPLATES,
    SyntheticCorpus,
    SyntheticSpec,
    _bonus_factor,
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


def synthesize_reference(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """The generator with one numpy call per random number, kept as it was
    before the draws were batched: the oracle the batched draws must match."""
    rng = np.random.default_rng(seed)
    months = [spec.start.plus(i) for i in range(spec.months)]

    burn_in = 48
    horizon = spec.months + spec.lead_months + burn_in
    shocks = rng.normal(0.0, 1.0, size=horizon)
    latent = np.zeros(horizon)
    for i in range(1, horizon):
        latent[i] = spec.ar_coefficient * latent[i - 1] + shocks[i]
    sentiment = latent[burn_in + spec.lead_months:]
    growth_driver = latent[burn_in: burn_in + spec.months]

    growth_noise = rng.normal(0.0, spec.noise_scale, size=spec.months)
    growth = np.clip(spec.sentiment_scale * growth_driver + growth_noise, -30.0, 30.0)

    levels: dict[MonthKey, float] = {}
    for i, month in enumerate(months):
        if i < 12:
            levels[month] = spec.base_level * _bonus_factor(month, spec.seasonal_amplitude)
        else:
            levels[month] = levels[months[i - 12]] * (1.0 + growth[i] / 100.0)

    directional = max(0.0, 1.0 - spec.unrelated_share - spec.neutral_share)
    records: list[SurveyRecord] = []
    judgment_values = [j for j, _ in _JUDGMENTS]
    judgment_cdf = _choice_cdf(np.array([w for _, w in _JUDGMENTS]))
    for i, month in enumerate(months):
        pos_frac = 0.5 * (1.0 + np.tanh(spec.polarity_swing * sentiment[i]))
        shares = np.array([
            directional * pos_frac,
            directional * (1.0 - pos_frac),
            spec.neutral_share,
            spec.unrelated_share,
        ])
        shares = shares / shares.sum()
        counts = rng.multinomial(spec.comments_per_month, shares)
        month_rows: list[tuple[int, str]] = []
        pools = (
            (_POSITIVE_TEMPLATES, spec.positive_keywords),
            (_NEGATIVE_TEMPLATES, spec.negative_keywords),
            (_NEUTRAL_TEMPLATES, spec.neutral_keywords),
            (_UNRELATED_TEMPLATES, None),
        )
        for kind, (templates, keywords) in enumerate(pools):
            for _ in range(counts[kind]):
                template = templates[rng.integers(len(templates))]
                if keywords is None:
                    text = template
                else:
                    text = template.format(kw=keywords[rng.integers(len(keywords))])
                month_rows.append((kind, text))
        order = rng.permutation(len(month_rows))
        for j in order:
            _, text = month_rows[j]
            records.append(
                SurveyRecord(
                    month=month,
                    region=_REGIONS[rng.integers(len(_REGIONS))],
                    industry=_INDUSTRIES[rng.integers(len(_INDUSTRIES))],
                    judgment=judgment_values[_draw_index(rng, judgment_cdf)],
                    comment=text,
                )
            )
    return SyntheticCorpus(records=records, wage_levels=levels,
                           sentiment=list(map(float, sentiment)))


def assert_same_corpus(got: SyntheticCorpus, want: SyntheticCorpus):
    assert got.records == want.records
    assert got.wage_levels == want.wage_levels
    assert got.sentiment == want.sentiment


shares = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
keywords = st.lists(st.sampled_from(["raise", "cut", "pay", "bonus", "wage"]),
                    min_size=1, max_size=3).map(tuple)
specs = st.builds(
    SyntheticSpec,
    months=st.integers(1, 30),
    start=st.builds(MonthKey, st.integers(1990, 2100), st.integers(1, 12)),
    comments_per_month=st.integers(1, 80),
    lead_months=st.integers(0, 3),
    unrelated_share=shares,
    neutral_share=shares,
    positive_keywords=keywords,
    negative_keywords=keywords,
    neutral_keywords=keywords,
)


def scalar_triples(rng, n):
    cdf = _choice_cdf(np.array([w for _, w in _JUDGMENTS]))
    return [[int(rng.integers(len(_REGIONS))), int(rng.integers(len(_INDUSTRIES))),
             _draw_index(rng, cdf)] for _ in range(n)]


def lemire_step(x, n):
    """numpy's ``buffered_bounded_lemire_uint32``, one uint32 ``x``, bound
    ``n``: the value and whether the loop rejects ``x`` and draws again."""
    m = x * n
    leftover = m & 0xFFFFFFFF
    return m >> 32, leftover < n and leftover < (0xFFFFFFFF - (n - 1)) % n


def words_with_leftover(n, leftover):
    """The uint32 words ``x`` with ``(x * n) mod 2**32 == leftover``, if any."""
    g = math.gcd(n, 2**32)
    if leftover % g:
        return []
    modulus = 2**32 // g
    x = (leftover // g) * pow(n // g, -1, modulus) % modulus
    return [x + k * modulus for k in range(g)]


class TestBatchedDraws:
    @given(specs, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batched_corpus_is_the_scalar_corpus(self, spec, seed):
        assert_same_corpus(synthesize(spec, seed), synthesize_reference(spec, seed))

    @given(st.integers(0, 2**63 - 1), st.integers(0, 600), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_record_draws_are_the_scalar_triples(self, seed, n, half_kept):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_kept:  # one uint32 drawn leaves the word's high half buffered
            batched.integers(7), scalar.integers(7)
            assert batched.bit_generator.state["has_uint32"] == 1
        assert synthetic._record_draws(batched, n) == scalar_triples(scalar, n)
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_rejection_check_is_numpys_lemire_step(self):
        for n in (2, 3, 5, 6, 7, 12):
            threshold = 2**32 % n
            crafted = [0, 1, 2**32 - 1, 2**31]
            for leftover in range(threshold + 2):
                crafted += words_with_leftover(n, leftover)[:2]
            values, rejected = synthetic._lemire(np.array(crafted, dtype=np.uint64),
                                                 np.uint64(n))
            want = [lemire_step(x, n) for x in crafted]
            assert list(zip(values.tolist(), rejected.tolist())) == want
        assert lemire_step(0, 6) == (0, True)

    def test_a_redraw_falls_back_to_the_scalar_calls(self, monkeypatch):
        spec = SyntheticSpec(months=6, comments_per_month=40)
        lemire, months = synthetic._lemire, []

        def redraw_in_month_three(halves, bounds):
            values, rejected = lemire(halves, bounds)
            months.append(len(halves))
            if len(months) == 3:
                rejected[0] = True
            return values, rejected

        monkeypatch.setattr(synthetic, "_lemire", redraw_in_month_three)
        assert_same_corpus(synthesize(spec, 4), synthesize_reference(spec, 4))
        assert months == [40] * 6


class TestValidation:
    @pytest.mark.parametrize("field, value", [
        ("positive_keywords", ()), ("negative_keywords", ()), ("neutral_keywords", ()),
        ("unrelated_share", -0.1), ("unrelated_share", 1.5), ("unrelated_share", math.nan),
        ("neutral_share", math.inf),
    ])
    def test_a_spec_that_cannot_be_drawn_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

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
