"""Small-sample statistics implemented from scratch on top of numpy arrays.

Pearson correlation, OLS through a column-pivoted Householder QR (with
rank-deficiency detection), the bivariate Granger-causality F-test, and
F-distribution upper-tail probabilities via the regularized incomplete
beta function evaluated with a continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import MonthKey

# Relative pivot tolerance for declaring a design matrix rank deficient.
PIVOT_RTOL = 1e-10


class UndefinedCorrelationError(ValueError):
    """Pearson correlation requested for a zero-variance series."""


class SingularDesignError(ValueError):
    """OLS design matrix is rank deficient."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"singular design: column {column} is linearly dependent")


class InsufficientLengthError(ValueError):
    """Series too short for the requested regression."""


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length series.

    Raises UndefinedCorrelationError when either series has zero variance,
    and ValueError on mismatched or too-short inputs. The result is clamped
    to [-1, 1] against floating-point overshoot.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise ValueError("pearson requires two equal-length 1-d series")
    if xa.size < 2:
        raise ValueError("pearson requires at least 2 observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("zero variance series")
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = r.shape[0]
    out = np.zeros(k)
    for i in range(k - 1, -1, -1):
        out[i] = (b[i] - r[i, i + 1:] @ out[i + 1:]) / r[i, i]
    return out


def _householder(x: np.ndarray, y: np.ndarray) -> list[int]:
    """Column-pivoted Householder QR of ``x``, applied to ``y``, both in place.

    Leaves R in the upper triangle of ``x`` (columns in pivot order) and
    Q'y in ``y``, whose entries past the first k square-sum to the residual
    sum of squares; returns the pivot order. Each step pivots on the
    largest remaining column norm; a pivot whose norm falls below
    ``PIVOT_RTOL`` times its column's original norm raises
    SingularDesignError naming that (original) column.
    """
    k = x.shape[1]
    perm = list(range(k))
    for j in range(k):
        sub = x[j:, j:]
        remaining = np.sqrt((sub ** 2).sum(axis=0))
        if j == 0:  # nothing is reflected yet: these are the original norms
            orig_norms = remaining
        p = j + int(remaining.argmax())
        if p != j:
            swapped = x[:, j].copy()
            x[:, j] = x[:, p]
            x[:, p] = swapped
            perm[j], perm[p] = perm[p], perm[j]
        col = x[j:, j]
        alpha = math.sqrt(float(col @ col))  # on the strided view, as BLAS sums it
        reference = orig_norms[perm[j]]
        if reference == 0.0 or alpha <= PIVOT_RTOL * reference:
            raise SingularDesignError(perm[j])
        v = col.copy()
        v[0] += math.copysign(alpha, v[0])
        v /= math.sqrt(float(v @ v))
        # outer(v, v'sub) doubled, then subtracted: scaling v by 2 first
        # would round differently where a product is subnormal
        update = np.multiply.outer(v, v @ sub)
        update *= 2.0
        sub -= update
        tail = y[j:]
        tail -= 2.0 * v * float(v @ tail)
    return perm


def ols(design: np.ndarray, response: Sequence[float]) -> tuple[np.ndarray, float]:
    """Least-squares fit via column-pivoted Householder QR.

    Returns (coefficients, residual sum of squares). A pivot whose remaining
    column norm falls below ``PIVOT_RTOL`` times the column's original norm
    raises SingularDesignError naming the offending (original) column index.
    """
    x = np.array(design, dtype=float)
    y = np.array(response, dtype=float)
    if x.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    n, k = x.shape
    if y.shape != (n,):
        raise ValueError("response length must match design rows")
    if n <= k:
        raise InsufficientLengthError(f"need more than {k} rows, got {n}")
    perm = _householder(x, y)
    coef = np.empty(k)
    coef[perm] = _back_substitute(x[:k, :k], y[:k])
    return coef, float(y[k:] @ y[k:])


def _residual_ss(x: np.ndarray, y: np.ndarray) -> float:
    """The residual sum of squares of ``ols(x, y)``, bit for bit, without its
    coefficients. ``x`` (more rows than columns) and ``y`` are float arrays
    it overwrites."""
    _householder(x, y)
    tail = y[x.shape[1]:]
    return float(tail @ tail)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    max_iterations = 500
    eps = 1e-16
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # Use the representation that converges fastest, switching at the mean.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_upper_tail(f: float, df1: int, df2: int) -> float:
    """P[F(df1, df2) > f] for f >= 0 and positive integer degrees of freedom."""
    if f < 0:
        raise ValueError("f must be non-negative")
    if df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def significance_stars(p: float) -> str:
    """Star legend: *** below 1%, ** below 5%, * below 10%, else none."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


@dataclass(frozen=True)
class AlignedPair:
    """Two series restricted to their common, contiguous month span."""

    months: tuple[MonthKey, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y) or len(self.x) != len(self.months):
            raise ValueError("aligned series must share one length")
        if len(self.x) < 2:
            raise InsufficientLengthError("aligned span shorter than 2 months")

    @classmethod
    def from_series(cls, x: Mapping[MonthKey, float],
                    y: Mapping[MonthKey, float]) -> "AlignedPair":
        common = sorted(set(x) & set(y))
        if len(common) < 2:
            raise InsufficientLengthError("common span shorter than 2 months")
        for prev, cur in zip(common, common[1:]):
            if cur != prev.plus(1):
                raise ValueError(f"common span not contiguous: gap after {prev}")
        return cls(
            months=tuple(common),
            x=np.array([x[m] for m in common], dtype=float),
            y=np.array([y[m] for m in common], dtype=float),
        )

    @classmethod
    def from_arrays(cls, x: Sequence[float], y: Sequence[float],
                    start: MonthKey = MonthKey(2000, 1)) -> "AlignedPair":
        months = tuple(start.plus(i) for i in range(len(x)))
        return cls(months=months, x=np.asarray(x, dtype=float),
                   y=np.asarray(y, dtype=float))

    def __len__(self) -> int:
        return len(self.months)


@dataclass(frozen=True)
class GrangerResult:
    lag: int
    f_stat: float
    p_value: float
    df_num: int
    df_den: int
    stars: str


def _lagged_design(y: np.ndarray, x: np.ndarray, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """The response ``y[lag:]`` and a fresh unrestricted design: an intercept,
    then lags 1..``lag`` of y, then lags 1..``lag`` of x. Its first
    ``lag + 1`` columns are the restricted design."""
    t = len(y)
    design = np.empty((t - lag, 2 * lag + 1))
    design[:, 0] = 1.0
    for j in range(1, lag + 1):
        design[:, j] = y[lag - j: t - j]
        design[:, lag + j] = x[lag - j: t - j]
    return y[lag:], design


def granger_test(pair: AlignedPair, lag: int,
                 restricted: dict[int, float] | None = None) -> GrangerResult:
    """F-test of whether lags of x improve the autoregression of y.

    The restricted model regresses y_t on an intercept and its own first
    ``lag`` lags; the unrestricted model adds the same lags of x. The
    statistic is the residual-sum-of-squares F with numerator df = lag and
    denominator df = T_eff - 2*lag - 1, where T_eff = T - lag. Only the
    residual sums are computed, never coefficients.

    ``restricted`` maps lags to restricted residual sums already fitted on
    this pair's y over its months; a lag it lacks is fitted and added.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    t_eff = len(pair) - lag
    df_den = t_eff - 2 * lag - 1
    if df_den < 1:
        raise InsufficientLengthError(
            f"lag {lag} needs at least {3 * lag + 2} observations, got {len(pair)}"
        )
    target, design = _lagged_design(pair.y, pair.x, lag)
    if restricted is None:
        restricted = {}
    if lag not in restricted:
        restricted[lag] = _residual_ss(design[:, :lag + 1].copy(), target.copy())
    rss_r = restricted[lag]
    rss_u = _residual_ss(design, target.copy())
    if rss_u > rss_r * (1.0 + 1e-9) + 1e-12:
        raise ArithmeticError(f"nesting violated at lag {lag}: {rss_u} > {rss_r}")
    rss_u = min(rss_u, rss_r)
    scale = float(target @ target)
    if rss_u <= 1e-14 * max(scale, 1.0):
        f_stat = math.inf
        p_value = 0.0
    else:
        f_stat = ((rss_r - rss_u) / lag) / (rss_u / df_den)
        p_value = f_upper_tail(f_stat, lag, df_den)
    return GrangerResult(
        lag=lag,
        f_stat=f_stat,
        p_value=p_value,
        df_num=lag,
        df_den=df_den,
        stars=significance_stars(p_value),
    )


def granger_sweep(pair: AlignedPair, max_lag: int = 24,
                  restricted: dict[int, float] | None = None) -> list[GrangerResult]:
    """Granger tests for lags 1..max_lag, each on its own effective sample.

    Lags infeasible at the sample tail (denominator df below 1) are simply
    absent from the result instead of failing the sweep. The denominator df,
    T - 3*lag - 1, falls as the lag grows, so the first infeasible lag ends
    the sweep.

    ``restricted``, a dict from lag to restricted residual sum, is shared by
    sweeps whose pairs hold the same y over the same months (in the pipeline,
    one wage-growth span): each such lag's restricted model is then fitted
    once, and the results equal those of unshared sweeps.
    """
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    results = []
    for lag in range(1, max_lag + 1):
        try:
            results.append(granger_test(pair, lag, restricted))
        except InsufficientLengthError:
            break
    return results
