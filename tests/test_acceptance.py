"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a PASS/FAIL line through the hook in conftest.py. Timing
bounds are asserted with perf_counter around exactly the work the criterion
names.
"""

import math
import random
import time

import numpy as np
import pytest

from wsi.classify import (
    ClassProbabilities,
    ClassifiedComment,
    HardLabel,
    default_keyword_classifier,
    classify_month,
)
from wsi.corpus import MonthKey, WageSeries, group_by_month
from wsi.econometrics import (
    AlignedPair,
    GrangerResult,
    f_upper_tail,
    granger_sweep,
    granger_test,
    ols,
    pearson,
    significance_stars,
)
from wsi.index import (
    MonthlyCounts,
    Normalization,
    build_series,
    standard_wsi,
    weighted_wsi,
)
from wsi.lexicon import rolling_lexicons
from wsi.pipeline import BackendConfig, RunConfig, run
from wsi.report import render_granger_row
from wsi.synthetic import SyntheticSpec, generate_synthetic, synthesize

from conftest import make_record

ONE_HOT = {
    HardLabel.INCREASE: (1.0, 0.0, 0.0),
    HardLabel.DECREASE: (0.0, 1.0, 0.0),
    HardLabel.NEUTRAL: (0.0, 0.0, 1.0),
}


def comment(probs, failed=False):
    p = ClassProbabilities(*probs)
    return ClassifiedComment(
        probs=p, backend_id="acc",
        hard_label=HardLabel.UNRELATED if failed else p.hard_label(), failed=failed)


def test_formula_oracles_over_1000_randomized_months():
    """Standard and weighted WSI match brute force within 1e-9; one-hot
    months force standard == per-comment weighted to 1e-12; under 1 s."""
    rng = random.Random(2024)
    months = {}
    one_hot_months = set()
    base = MonthKey(1950, 1)
    for i in range(1000):
        month = base.plus(i)
        n = rng.randint(1, 40)
        use_one_hot = rng.random() < 0.5
        if use_one_hot:
            one_hot_months.add(month)
            labels = [rng.choice([HardLabel.INCREASE, HardLabel.DECREASE,
                                  HardLabel.NEUTRAL]) for _ in range(n)]
            months[month] = [comment(ONE_HOT[label]) for label in labels]
        else:
            rows = []
            for _ in range(n):
                if rng.random() < 0.1:
                    rows.append(comment((0.0, 0.0, 0.0)))
                else:
                    u, v, w = rng.random(), rng.random(), rng.random()
                    s = u + v + w
                    rows.append(comment((u / s, v / s, w / s)))
            months[month] = rows

    started = time.perf_counter()
    result = build_series(months, Normalization.PER_COMMENT)
    points = {p.month: p for p in result.points}
    for month, rows in months.items():
        included = [c for c in rows if not c.excluded]
        if not included:
            assert month in result.skipped_months
            continue
        # independent brute-force recomputation, straight from the comments
        alpha = sum(1 for c in included if c.hard_label == HardLabel.INCREASE)
        beta = sum(1 for c in included if c.hard_label == HardLabel.DECREASE)
        gamma = len(included) - alpha - beta
        expected_std = (alpha - beta) / (alpha + beta + gamma) * 100.0
        expected_wgt = sum(
            (c.probs.u - c.probs.v) / (c.probs.u + c.probs.v + c.probs.w)
            for c in included) * 100.0 / len(included)
        point = points[month]
        assert abs(point.wsi_standard - expected_std) <= 1e-9
        assert abs(point.wsi_weighted - expected_wgt) <= 1e-9
        if month in one_hot_months:
            assert abs(point.wsi_standard - point.wsi_weighted) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"formula oracle run took {elapsed:.2f}s"


def test_index_formula_hand_cases_exact():
    """(10,5,5) -> 25.0; literal single (0.7,0.1,0.2) -> 60.0; antisymmetric
    pair -> 0.0."""
    assert standard_wsi(MonthlyCounts(month=MonthKey(2020, 1), alpha=10, beta=5,
                                      gamma=5, excluded=0)) == 25.0
    literal = weighted_wsi([ClassProbabilities(0.7, 0.1, 0.2)],
                           Normalization.RAW_SUM)
    assert literal == pytest.approx(60.0, abs=1e-12)
    pair = [ClassProbabilities(1, 0, 0), ClassProbabilities(0, 1, 0)]
    assert weighted_wsi(pair, Normalization.RAW_SUM) == 0.0
    assert weighted_wsi(pair, Normalization.PER_COMMENT) == 0.0


def test_pearson_and_ols_against_independent_oracles():
    """500 random instances each: two-pass Pearson within 1e-10, normal
    equations within 1e-8 relative."""
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(3, 50)
        x = [rng.gauss(0, 1) for _ in range(n)]
        y = [rng.gauss(0, 1) for _ in range(n)]
        mx, my = sum(x) / n, sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y))
        assert pearson(x, y) == pytest.approx(num / den, abs=1e-10)

    nrng = np.random.default_rng(78)
    for _ in range(500):
        n = int(nrng.integers(8, 60))
        k = int(nrng.integers(1, 6))
        design = nrng.normal(size=(n, k))
        y = nrng.normal(size=n)
        coef, rss = ols(design, y)
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        resid = y - design @ oracle
        assert np.allclose(coef, oracle, rtol=1e-8, atol=1e-12)
        assert rss == pytest.approx(float(resid @ resid), rel=1e-8)


def test_f_distribution_hand_value_and_quadrature_grid():
    """f_upper_tail(3.92, 1, 120) = 0.0500 +/- 0.0005; 200 random points
    match adaptive quadrature within 1e-8; under 5 s."""
    from scipy import integrate

    started = time.perf_counter()
    assert f_upper_tail(3.92, 1, 120) == pytest.approx(0.05, abs=0.0005)

    def f_pdf(x, d1, d2):
        log_pdf = (
            math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
            + (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
            - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
        )
        return math.exp(log_pdf)

    rng = random.Random(3141)
    for _ in range(200):
        df1 = rng.randint(1, 40)
        df2 = rng.randint(1, 240)
        f = rng.uniform(0.01, 10.0)
        oracle, _ = integrate.quad(f_pdf, f, np.inf, args=(df1, df2),
                                   epsabs=1e-12, epsrel=1e-12, limit=300)
        assert f_upper_tail(f, df1, df2) == pytest.approx(oracle, abs=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"f-distribution criterion took {elapsed:.2f}s"


def test_granger_power_lag1_rejects_at_1pct():
    """y_t = 0.8 x_{t-1} + eps, T = 300: >= 99 of 100 seeds reject at 1%;
    under 10 s."""
    started = time.perf_counter()
    rejections = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.normal(size=301)
        y = 0.8 * x[:300] + rng.normal(size=300)
        result = granger_test(AlignedPair.from_arrays(x[1:], y), 1)
        rejections += result.p_value < 0.01
    elapsed = time.perf_counter() - started
    assert rejections >= 99, f"only {rejections}/100 rejections"
    assert elapsed < 10.0, f"power experiment took {elapsed:.2f}s"


def test_granger_size_lag1_rejection_rate_within_bounds():
    """Independent white noise, T = 300: lag-1 rejection rate at 5% within
    [2%, 9%] over 500 seeds; under 30 s."""
    started = time.perf_counter()
    rejections = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        result = granger_test(AlignedPair.from_arrays(x, y), 1)
        rejections += result.p_value < 0.05
    rate = rejections / 500.0
    elapsed = time.perf_counter() - started
    assert 0.02 <= rate <= 0.09, f"size {rate:.3f} outside [0.02, 0.09]"
    assert elapsed < 30.0, f"size experiment took {elapsed:.2f}s"


def test_baseline_lexicon_recovers_planted_word_with_rolling_causality():
    """'bonus' frequency linear in growth puts it in the top-10 positive list
    for every feasible month; poisoning months newer than as_of - 2 changes
    nothing."""
    rng = random.Random(55)
    start = MonthKey(2019, 1)
    n_months = 36
    window = [start.plus(i) for i in range(n_months)]
    growth = {m: 3.0 * math.sin(i / 2.5) + rng.uniform(-0.2, 0.2)
              for i, m in enumerate(window)}
    levels = {}
    for i in range(12):
        levels[start.minus(12).plus(i)] = 100.0
    for m in window:
        levels[m] = levels[m.minus(12)] * (1.0 + growth[m] / 100.0)
    wages = WageSeries(levels)

    grouped = {}
    for i, m in enumerate(window):
        rows = []
        for _ in range(max(0, round(10 + 2 * growth[m]))):
            rows.append(make_record(m, "bonus payment arrived"))
        for _ in range(max(0, round(10 - 2 * growth[m]))):
            rows.append(make_record(m, "a cut was announced"))
        for _ in range(rng.randint(6, 14)):
            rows.append(make_record(m, "customers visited the shop"))
        grouped[m] = rows

    lexicons = rolling_lexicons(grouped, wages, window)
    warmup_end = min(lexicons)
    assert warmup_end <= window[4]
    for as_of, lexicon in lexicons.items():
        assert "bonus" in {t for t, _ in lexicon.positive}, str(as_of)

    # rolling causality: poison every month newer than as_of - 2
    as_of = window[20]
    poisoned = dict(grouped)
    for m in window:
        if m > as_of.minus(2):
            poisoned[m] = [make_record(m, "bonus " * 30) for _ in range(50)]
    assert rolling_lexicons(poisoned, wages, [as_of])[as_of] == lexicons[as_of]


def test_end_to_end_lead_detection_at_scale(tmp_path):
    """Sentiment leading wages by 2 months, keyword mock backend: WSI
    Granger-causes growth at lag 2 with p < 0.01; 300 months x 1000
    comments/month, generation plus full run under 60 s."""
    started = time.perf_counter()
    spec = SyntheticSpec(months=300, comments_per_month=1000, lead_months=2)
    generate_synthetic(spec, seed=2025, out_dir=tmp_path / "data")
    config = RunConfig(
        survey_paths=[str(tmp_path / "data" / "surveys")],
        wage_path=str(tmp_path / "data" / "wages.csv"),
        backends=[BackendConfig(backend_id="mock", kind="keyword")],
        output_dir=str(tmp_path / "out"),
        cache_dir=str(tmp_path / "cache"),
        seed=2025,
    )
    result = run(config)
    elapsed = time.perf_counter() - started
    for kind in ("standard", "weighted"):
        sweep = result.bundle.sweeps[("mock", kind)]
        lag2 = next(r for r in sweep if r.lag == 2)
        assert lag2.p_value < 0.01, f"{kind}: lag-2 p={lag2.p_value}"
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"


def test_synthetic_null_no_spurious_causality():
    """Sentiment independent of wages: no lag significant at 1% in >= 95%
    of seeds (40 seeds, lags 1..6)."""
    mock = default_keyword_classifier()
    clean = 0
    seeds = range(40)
    for seed in seeds:
        spec = SyntheticSpec(months=150, comments_per_month=60,
                             sentiment_scale=0.0, noise_scale=1.0)
        corpus = synthesize(spec, seed)
        wages = WageSeries(corpus.wage_levels)
        grouped = group_by_month(corpus.records)
        classified = {m: classify_month(recs, mock) for m, recs in grouped.items()}
        series = build_series(classified)
        pair = AlignedPair.from_series(series.standard_by_month(), wages.yoy_map)
        min_p = min(r.p_value for r in granger_sweep(pair, 6))
        clean += min_p >= 0.01
    assert clean >= 0.95 * len(seeds), f"{clean}/{len(seeds)} clean seeds"


def test_table_row_grammar_exact():
    """(1, 18.390, 0.000) renders '1 & 18.390 & 0.000***'; (5, 0.870, 0.502)
    renders '5 & 0.870 & 0.502'."""
    def row(lag, f, p):
        return render_granger_row(GrangerResult(
            lag=lag, f_stat=f, p_value=p, df_num=lag, df_den=200,
            stars=significance_stars(p)))

    assert row(1, 18.390, 0.0001) == "1 & 18.390 & 0.000***"
    assert row(1, 18.390, 0.0) == "1 & 18.390 & 0.000***"
    assert row(5, 0.870, 0.502) == "5 & 0.870 & 0.502"


def test_full_run_determinism_across_parallelism(tmp_path):
    """Identical config and seed, parallelism 1 vs 8: byte-identical trees."""
    spec = SyntheticSpec(months=80, comments_per_month=60, lead_months=2)
    generate_synthetic(spec, seed=31, out_dir=tmp_path / "data")

    def run_with(parallelism, out_name):
        config = RunConfig(
            survey_paths=[str(tmp_path / "data" / "surveys")],
            wage_path=str(tmp_path / "data" / "wages.csv"),
            backends=[
                BackendConfig(backend_id="mock", kind="keyword"),
                BackendConfig(backend_id="baseline", kind="lexicon"),
            ],
            output_dir=str(tmp_path / out_name),
            cache_dir=str(tmp_path / "cache"),
            seed=31,
            classify_parallelism=parallelism,
            translation_parallelism=parallelism,
        )
        return run(config).out_dir

    out_serial = run_with(1, "outA")
    out_parallel = run_with(8, "outB")
    tree_a = {str(p.relative_to(out_serial)): p.read_bytes()
              for p in sorted(out_serial.rglob("*")) if p.is_file()}
    tree_b = {str(p.relative_to(out_parallel)): p.read_bytes()
              for p in sorted(out_parallel.rglob("*")) if p.is_file()}
    assert tree_a == tree_b
