import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsi.corpus import MonthKey
from wsi.econometrics import (
    PIVOT_RTOL,
    AlignedPair,
    InsufficientLengthError,
    SingularDesignError,
    UndefinedCorrelationError,
    _lagged_design,
    _residual_ss,
    f_upper_tail,
    granger_sweep,
    granger_test,
    ols,
    pearson,
    regularized_incomplete_beta,
    significance_stars,
)


def two_pass_pearson(x, y):
    """Textbook oracle: explicit means, then explicit centered sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / math.sqrt(dx * dy)


class TestPearson:
    def test_exact_linear_dependence(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_negative_dependence(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_500_random_pairs_match_two_pass_oracle(self):
        rng = random.Random(21)
        for _ in range(500):
            n = rng.randint(3, 40)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            assert pearson(x, y) == pytest.approx(two_pass_pearson(x, y), abs=1e-10)

    def test_zero_variance_is_an_error(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1], [2])
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=30))
    @settings(max_examples=50)
    def test_result_in_unit_interval(self, x):
        y = [v + i for i, v in enumerate(x)]
        try:
            r = pearson(x, y)
        except UndefinedCorrelationError:
            return
        assert -1.0 <= r <= 1.0


def normal_equations_oracle(design, y):
    """Independent solver: explicit X'X b = X'y via numpy.linalg.solve."""
    xtx = design.T @ design
    xty = design.T @ y
    coef = np.linalg.solve(xtx, xty)
    resid = y - design @ coef
    return coef, float(resid @ resid)


class TestOls:
    def test_mean_fit(self):
        coef, rss = ols(np.ones((3, 1)), [1.0, 2.0, 3.0])
        assert coef[0] == pytest.approx(2.0, abs=1e-12)
        assert rss == pytest.approx(2.0, abs=1e-12)

    def test_exact_fit_has_negligible_rss(self):
        rng = np.random.default_rng(5)
        design = rng.normal(size=(30, 4))
        beta = np.array([1.5, -2.0, 0.25, 4.0])
        y = design @ beta
        coef, rss = ols(design, y)
        assert rss <= 1e-16 * float(y @ y)
        assert np.allclose(coef, beta, atol=1e-10)

    def test_500_random_systems_match_normal_equation_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(8, 60))
            k = int(rng.integers(1, 6))
            design = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            coef, rss = ols(design, y)
            oracle_coef, oracle_rss = normal_equations_oracle(design, y)
            assert np.allclose(coef, oracle_coef, rtol=1e-8, atol=1e-10)
            assert rss == pytest.approx(oracle_rss, rel=1e-8, abs=1e-10)

    def test_singular_design_names_offending_column(self):
        design = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0) * 2])
        with pytest.raises(SingularDesignError) as err:
            ols(design, np.arange(10.0))
        assert err.value.column in (1, 2)

    def test_zero_column_is_singular(self):
        design = np.column_stack([np.ones(6), np.zeros(6)])
        with pytest.raises(SingularDesignError) as err:
            ols(design, np.ones(6))
        assert err.value.column == 1

    def test_underdetermined_rejected(self):
        with pytest.raises(InsufficientLengthError):
            ols(np.ones((3, 3)), [1.0, 2.0, 3.0])

    def test_intercept_plus_slope(self):
        x = np.arange(10.0)
        design = np.column_stack([np.ones(10), x])
        y = 3.0 + 0.5 * x
        coef, rss = ols(design, y)
        assert coef == pytest.approx([3.0, 0.5], abs=1e-10)
        assert rss <= 1e-20


class TestFUpperTail:
    def test_zero_statistic(self):
        assert f_upper_tail(0.0, 3, 17) == 1.0

    def test_published_critical_value(self):
        # F(1, 120) upper 5% critical value is 3.92
        assert f_upper_tail(3.92, 1, 120) == pytest.approx(0.05, abs=0.0005)

    def test_more_published_critical_values(self):
        # (critical value, df1, df2) rows from standard 5% F tables
        for crit, df1, df2 in [(4.96, 1, 10), (3.32, 2, 30), (2.53, 4, 60)]:
            assert f_upper_tail(crit, df1, df2) == pytest.approx(0.05, abs=0.002)

    def test_random_grid_matches_quadrature_oracle(self):
        from scipy import integrate

        rng = random.Random(17)

        def f_pdf(x, d1, d2):
            log_pdf = (
                math.lgamma((d1 + d2) / 2) - math.lgamma(d1 / 2) - math.lgamma(d2 / 2)
                + (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
                - ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
            )
            return math.exp(log_pdf)

        for _ in range(60):
            df1 = rng.randint(1, 30)
            df2 = rng.randint(1, 200)
            f = rng.uniform(0.01, 8.0)
            oracle, err = integrate.quad(f_pdf, f, np.inf, args=(df1, df2),
                                         epsabs=1e-12, epsrel=1e-12, limit=200)
            assert f_upper_tail(f, df1, df2) == pytest.approx(oracle, abs=1e-8)

    def test_monotone_in_f(self):
        values = [f_upper_tail(f, 3, 25) for f in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert values == sorted(values, reverse=True)

    def test_infinite_statistic(self):
        assert f_upper_tail(math.inf, 2, 10) == 0.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            f_upper_tail(-1.0, 1, 1)
        with pytest.raises(ValueError):
            f_upper_tail(1.0, 0, 5)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        mid = regularized_incomplete_beta(2.0, 2.0, 0.5)
        assert mid == pytest.approx(0.5, abs=1e-12)  # symmetric case


class TestStars:
    @pytest.mark.parametrize("p,stars", [
        (0.0, "***"), (0.009999, "***"), (0.01, "**"), (0.049, "**"),
        (0.05, "*"), (0.0999, "*"), (0.09999, "*"), (0.10, ""), (0.5, ""),
    ])
    def test_legend_boundaries(self, p, stars):
        assert significance_stars(p) == stars


def ar_pair(t, seed, *, coef=0.8, causal_lag=1, noise=1.0):
    """y_t = coef * x_{t-causal_lag} + noise; x white noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=t + causal_lag)
    eps = rng.normal(0, noise, size=t)
    y = coef * x[:t] if causal_lag else None
    # Align so y[i] depends on x[i - causal_lag]
    x_aligned = x[causal_lag:]
    y = coef * x[:t] + eps
    return AlignedPair.from_arrays(x_aligned, y)


class TestGrangerTest:
    def test_known_causal_structure_detected(self):
        pair = ar_pair(300, seed=1)
        result = granger_test(pair, 1)
        assert result.p_value < 0.01
        assert result.df_num == 1
        assert result.df_den == (300 - 1) - 2 * 1 - 1

    def test_independent_noise_not_detected(self):
        rng = np.random.default_rng(2)
        pair = AlignedPair.from_arrays(rng.normal(size=300), rng.normal(size=300))
        result = granger_test(pair, 1)
        assert result.f_stat < 10.0
        assert result.p_value > 0.001

    def test_deterministic_shift_gives_astronomical_f(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=200)
        x = np.roll(y, -1)  # x_t = y_{t+1}, so y_t = x_{t-1} exactly
        pair = AlignedPair.from_arrays(x[:-1], y[:-1])
        result = granger_test(pair, 1)
        assert result.f_stat > 1e6 or math.isinf(result.f_stat)
        assert result.p_value < 1e-12

    def test_insufficient_length_rejected(self):
        pair = AlignedPair.from_arrays(np.arange(10.0), np.arange(10.0) * 0.5 + 1)
        with pytest.raises(InsufficientLengthError):
            granger_test(pair, 3)  # needs 3*3+2 = 11 observations

    def test_nesting_holds_on_random_data(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            x = rng.normal(size=120)
            y = rng.normal(size=120)
            result = granger_test(AlignedPair.from_arrays(x, y), 4)
            assert result.f_stat >= 0.0

    def test_scale_invariance(self):
        pair = ar_pair(200, seed=5)
        base = granger_test(pair, 2)
        for cx, cy in [(1e-3, 1.0), (1e3, 1.0), (1.0, 1e-3), (-2.0, 5.0)]:
            scaled = AlignedPair.from_arrays(pair.x * cx, pair.y * cy)
            result = granger_test(scaled, 2)
            assert result.f_stat == pytest.approx(base.f_stat, rel=1e-8)

    def test_alignment_shift_invariance(self):
        pair = ar_pair(100, seed=6)
        x_map = {MonthKey(2000, 1).plus(i): float(v) for i, v in enumerate(pair.x)}
        y_map = {MonthKey(2000, 1).plus(i): float(v) for i, v in enumerate(pair.y)}
        shifted_x = {m.plus(17): v for m, v in x_map.items()}
        shifted_y = {m.plus(17): v for m, v in y_map.items()}
        a = granger_test(AlignedPair.from_series(x_map, y_map), 3)
        b = granger_test(AlignedPair.from_series(shifted_x, shifted_y), 3)
        assert a == b

    def test_intersection_alignment(self):
        x_map = {MonthKey(2000, 1).plus(i): float(i % 7) for i in range(50)}
        y_map = {MonthKey(2000, 1).plus(i): float((i * 3) % 5) for i in range(10, 80)}
        pair = AlignedPair.from_series(x_map, y_map)
        assert pair.months[0] == MonthKey(2000, 11)
        assert pair.months[-1] == MonthKey(2004, 2)

    def test_non_contiguous_intersection_rejected(self):
        x_map = {MonthKey(2000, 1): 1.0, MonthKey(2000, 2): 2.0,
                 MonthKey(2000, 4): 3.0, MonthKey(2000, 5): 1.5}
        y_map = {m: 1.0 + i for i, m in enumerate(sorted(x_map))}
        with pytest.raises(ValueError, match="contiguous"):
            AlignedPair.from_series(x_map, y_map)


class TestGrangerSweep:
    def test_lag3_system_most_significant_at_lag3_region(self):
        rng = np.random.default_rng(31)
        t = 240
        x = rng.normal(size=t + 3)
        y = 0.8 * x[:t] + rng.normal(size=t)
        pair = AlignedPair.from_arrays(x[3:], y)
        results = granger_sweep(pair, 8)
        by_lag = {r.lag: r for r in results}
        assert by_lag[3].p_value < 0.05
        best = min(results, key=lambda r: r.p_value)
        assert best.lag >= 3

    def test_infeasible_tail_lags_absent(self):
        rng = np.random.default_rng(32)
        pair = AlignedPair.from_arrays(rng.normal(size=60), rng.normal(size=60))
        results = granger_sweep(pair, 24)
        lags = [r.lag for r in results]
        # lag feasible iff 60 >= 3*lag + 2
        assert lags == list(range(1, 20))

    def test_a_huge_max_lag_stops_at_the_first_infeasible_lag(self):
        pair = ar_pair(100, seed=35)
        started = time.perf_counter()
        results = granger_sweep(pair, 10**12)
        elapsed = time.perf_counter() - started
        # lag feasible iff 100 >= 3*lag + 2
        assert results == granger_sweep(pair, 32)
        assert [r.lag for r in results] == list(range(1, 33))
        assert elapsed < 1.0

    def test_each_lag_uses_its_own_effective_sample(self):
        pair = ar_pair(150, seed=33)
        results = granger_sweep(pair, 5)
        for r in results:
            assert r.df_den == (150 - r.lag) - 2 * r.lag - 1

    def test_sweep_length_and_order(self):
        pair = ar_pair(300, seed=34)
        results = granger_sweep(pair, 24)
        assert [r.lag for r in results] == list(range(1, 25))


def back_substitute_reference(r, b):
    k = r.shape[0]
    out = np.zeros(k)
    for i in range(k - 1, -1, -1):
        out[i] = (b[i] - r[i, i + 1:] @ out[i + 1:]) / r[i, i]
    return out


def ols_reference(design, response):
    """The column-pivoted Householder OLS as it was before the in-place loop,
    kept verbatim: the loop must reproduce it bit for bit."""
    x = np.array(design, dtype=float)
    y = np.array(response, dtype=float)
    if x.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    n, k = x.shape
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    if n <= k:
        raise InsufficientLengthError(f"need more than {k} rows, got {n}")
    orig_norms = np.sqrt((x * x).sum(axis=0))
    perm = np.arange(k)
    for j in range(k):
        remaining = np.sqrt((x[j:, j:] ** 2).sum(axis=0))
        p = j + int(np.argmax(remaining))
        if p != j:
            x[:, [j, p]] = x[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        col = x[j:, j]
        alpha = math.sqrt(float(col @ col))
        reference = orig_norms[perm[j]]
        if reference == 0.0 or alpha <= PIVOT_RTOL * reference:
            raise SingularDesignError(int(perm[j]))
        v = col.copy()
        v[0] += math.copysign(alpha, col[0])
        v /= math.sqrt(float(v @ v))
        x[j:, j:] -= 2.0 * np.outer(v, v @ x[j:, j:])
        y[j:] -= 2.0 * v * float(v @ y[j:])
    coef = np.empty(k)
    coef[perm] = back_substitute_reference(x[:k, :k], y[:k])
    rss = float(y[k:] @ y[k:])
    return coef, rss


def lagged_designs_reference(y, x, lag):
    """(target, restricted, unrestricted) built column by column."""
    t = len(y)
    cols = [np.ones(t - lag)] + [y[lag - j: t - j] for j in range(1, lag + 1)]
    restricted = np.column_stack(cols)
    cols += [x[lag - j: t - j] for j in range(1, lag + 1)]
    return y[lag:], restricted, np.column_stack(cols)


@st.composite
def series(draw, t, stream):
    """A length-``t`` series: noise or a random walk scaled by 1e-6..1e6,
    or a constant. Distinct ``stream``s draw distinct values from one seed."""
    rng = np.random.default_rng([draw(st.integers(0, 2**32 - 1)), stream])
    shape = draw(st.sampled_from(["noise", "walk", "noise", "walk", "constant"]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if shape == "constant":
        return np.full(t, draw(st.sampled_from([0.0, 1.0, -2.5])) * scale)
    values = rng.normal(size=t)
    return scale * (values.cumsum() if shape == "walk" else values)


@st.composite
def lagged_pairs(draw):
    """(y, [x, ...], lag): one response and up to three regressors, some of
    them duplicates of the response or of each other."""
    t = draw(st.integers(8, 300))
    lag = draw(st.integers(1, max(1, min(24, (t - 2) // 3))))
    y = draw(series(t, 0))
    xs = []
    for stream in range(1, draw(st.integers(1, 3)) + 1):
        source = draw(st.sampled_from(["new", "new", "new", "response", "previous"]))
        if source == "response":
            xs.append(y.copy())
        elif source == "previous" and xs:
            xs.append(xs[-1].copy())
        else:
            xs.append(draw(series(t, stream)))
    return y, xs, lag


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def fit_or_singular(fit, design, target):
    """The bits of what ``fit`` returns, or the column a SingularDesignError names."""
    try:
        fitted = fit(design, target)
    except SingularDesignError as exc:
        return ("singular", exc.column)
    return tuple(map(bits, fitted)) if isinstance(fitted, tuple) else bits(fitted)


def sweep_or_error(pair, max_lag, **kwargs):
    try:
        return [(r.lag, repr(r.f_stat), repr(r.p_value), r.df_num, r.df_den, r.stars)
                for r in granger_sweep(pair, max_lag, **kwargs)]
    except (ValueError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


class TestBitExactness:
    """The one Householder loop against ``ols_reference``: the same bits,
    not only close values, because ``granger/*.csv`` holds ``repr`` floats."""

    @given(lagged_pairs())
    @settings(max_examples=150, deadline=None)
    def test_rss_and_coefficients_equal_the_reference_bit_for_bit(self, drawn):
        y, xs, lag = drawn
        target, restricted, unrestricted = lagged_designs_reference(y, xs[0], lag)
        fresh_target, design = _lagged_design(y, xs[0], lag)
        assert bits(fresh_target) == bits(target) and bits(design) == bits(unrestricted)
        for matrix in (restricted, unrestricted):
            expected = fit_or_singular(ols_reference, matrix, target)
            fitted = fit_or_singular(ols, matrix, target)
            rss = fit_or_singular(lambda d, r: _residual_ss(d.copy(), r.copy()), matrix, target)
            assert fitted == expected
            assert rss == (expected if expected[0] == "singular" else expected[1])

    @given(lagged_pairs())
    @settings(max_examples=60, deadline=None)
    def test_a_shared_restricted_dict_changes_no_result(self, drawn):
        y, xs, lag = drawn
        pairs = [AlignedPair.from_arrays(x, y) for x in xs]
        shared = {}
        assert [sweep_or_error(pair, lag, restricted=shared) for pair in pairs] == \
            [sweep_or_error(pair, lag) for pair in pairs]
        assert set(shared) <= set(range(1, lag + 1))
