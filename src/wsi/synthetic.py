"""Synthetic survey corpus and wage series with a known causal lag.

A persistent latent sentiment process tilts the polarity mix of generated
comments in each month; wage growth follows that sentiment ``lead_months``
later (plus noise), so the resulting sentiment index Granger-causes wage
growth at the configured lag by construction. Wage levels carry a bonus
season (June, July, December) as a stable multiplicative pattern, which
leaves year-on-year growth untouched.

Each month's random numbers come in batches: one array call for the
comments' template and keyword picks, and for the records' region,
industry and judgment one block of raw PCG64 words, split as numpy's
scalar calls would split them. A month where numpy would reject a bounded
draw and draw again falls back to those scalar calls. Either way a
(spec, seed) pair gives the same corpus, and the same files, as one call
per number did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import MonthKey, SurveyRecord, Judgment, write_survey, write_wages

_REGIONS = ("Hokkaido", "Tohoku", "Kanto", "Tokai", "Kansai", "Kyushu")
_INDUSTRIES = ("retail", "food service", "manufacturing", "transport", "services")
_JUDGMENTS = (
    (Judgment.EXCELLENT, 0.04),
    (Judgment.GOOD, 0.16),
    (Judgment.UNCHANGED, 0.42),
    (Judgment.SLIGHTLY_BAD, 0.24),
    (Judgment.BAD, 0.14),
)

_POSITIVE_TEMPLATES = (
    "the spring {kw} was larger than last year",
    "a {kw} for staff was announced this month",
    "management agreed to a {kw} after negotiations",
    "hourly pay saw a {kw} at our branch",
)
_NEGATIVE_TEMPLATES = (
    "the company imposed a {kw} on overtime pay",
    "a {kw} in allowances worried employees",
    "staff absorbed a {kw} this quarter",
    "the {kw} to salaries was announced quietly",
)
_NEUTRAL_TEMPLATES = (
    "the {kw} discussion was postponed again",
    "no decision on the {kw} review yet",
    "the {kw} level stayed as before",
)
_UNRELATED_TEMPLATES = (
    "the weather was pleasant and customers strolled about",
    "a new shopping mall opened across the street",
    "tourist traffic felt unchanged from usual",
    "the renovation of the station continues",
)


LAST_MONTH = MonthKey(9999, 12)  # the last month ``MonthKey.parse`` takes


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the generator; defaults give a clearly detectable lead."""

    months: int = 120
    start: MonthKey = MonthKey(2000, 1)
    comments_per_month: int = 120
    lead_months: int = 2
    ar_coefficient: float = 0.7       # persistence of latent sentiment
    sentiment_scale: float = 1.5      # percent of yoy growth per sentiment unit
    noise_scale: float = 0.3          # yoy noise, percent
    seasonal_amplitude: float = 0.25  # bonus-season level bump
    base_level: float = 100.0
    unrelated_share: float = 0.2
    neutral_share: float = 0.2
    polarity_swing: float = 0.8       # sentiment tilt of the pos/neg split
    positive_keywords: tuple[str, ...] = ("raise", "bonus")
    negative_keywords: tuple[str, ...] = ("cut", "reduction")
    neutral_keywords: tuple[str, ...] = ("wage", "salary")

    def __post_init__(self) -> None:
        if self.lead_months < 0:
            raise ValueError("lead_months must be >= 0")
        if self.months < 1:
            raise ValueError("months must be >= 1")
        if self.comments_per_month < 1:
            raise ValueError("comments_per_month must be >= 1")
        for name in ("unrelated_share", "neutral_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # also NaN
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("positive_keywords", "negative_keywords", "neutral_keywords"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        last = self.start.plus(self.months - 1)
        if last > LAST_MONTH:  # its files could not be read back
            raise ValueError(f"the last month, {last}, is past {LAST_MONTH}")


@dataclass
class SyntheticCorpus:
    records: list[SurveyRecord]
    wage_levels: dict[MonthKey, float]
    sentiment: list[float] = field(repr=False, default_factory=list)


def _bonus_factor(month: MonthKey, amplitude: float) -> float:
    return 1.0 + (amplitude if month.month in (6, 7, 12) else 0.0)


def _choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The cdf ``rng.choice(len(weights), p=weights / weights.sum())`` builds."""
    p = weights / weights.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_index(rng: np.random.Generator, cdf: np.ndarray) -> int:
    """One draw of ``rng.choice(len(cdf), p=...)`` from its prebuilt cdf: the
    same index, from the same one uniform, so the stream stays as it was."""
    return int(cdf.searchsorted(rng.random(), side="right"))


_JUDGMENT_VALUES = tuple(j for j, _ in _JUDGMENTS)
_JUDGMENT_CDF = _choice_cdf(np.array([w for _, w in _JUDGMENTS]))
# the bounds of a record's two integer draws, region then industry
_RECORD_BOUNDS = np.array([len(_REGIONS), len(_INDUSTRIES)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)


def _comment_texts(rng: np.random.Generator, counts: list[int],
                   tables: list[tuple[tuple[str, ...], ...]]) -> list[str]:
    """One month's comments: ``counts[kind]`` of each kind, in kind order.

    A comment picks a template ``t``, then a keyword ``k``, and reads
    ``tables[kind][t][k]``. The picks come from one ``integers`` call over
    the list of their bounds, which numpy draws as it would the scalar
    calls in turn. A bound of 1, as for an unrelated comment's keyword,
    gives 0 without a draw either way.
    """
    bounds = np.repeat([(len(table), len(table[0])) for table in tables], counts, axis=0)
    rows = [table for table, count in zip(tables, counts) for _ in range(count)]
    return [table[t][k] for table, (t, k) in zip(rows, rng.integers(0, bounds).tolist())]


def _lemire(halves: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw ``integers(bound)`` from uint32 ``halves`` (held
    as uint64): the values, and where numpy would reject the half and draw
    another one in its place."""
    m = halves * bounds
    threshold = (np.uint64(1 << 32) - bounds) % bounds  # 2**32 % bound
    return m >> np.uint64(32), (m & _LOW32) < threshold


def _record_draws(rng: np.random.Generator, n: int) -> list[list[int]]:
    """``n`` records' [region, industry, judgment] indices.

    These are the numbers, and the generator state after, of ``n`` rounds of
    ``integers(len(_REGIONS))``, ``integers(len(_INDUSTRIES))`` and
    ``_draw_index(rng, _JUDGMENT_CDF)``. A round takes two 64-bit words of
    PCG64: the integers come from the uint32 halves of the first word, low
    half first, after a half the generator kept from before; the uniform
    comes from the second word. Where numpy would reject a half and draw
    again (about once in 10**9 halves), the rounds run one call at a time.
    """
    if n == 0:
        return []
    bit_generator = rng.bit_generator
    state = bit_generator.state
    words = bit_generator.random_raw(2 * n)
    pairs = words[0::2]
    halves = np.stack([pairs & _LOW32, pairs >> np.uint64(32)], axis=1).ravel()
    kept = state["has_uint32"]
    if kept:
        halves = np.concatenate([[np.uint64(state["uinteger"])], halves])
    values, rejected = _lemire(halves[:2 * n].reshape(n, 2), _RECORD_BOUNDS)
    if rejected.any():
        bit_generator.state = state
        return [[int(rng.integers(len(_REGIONS))), int(rng.integers(len(_INDUSTRIES))),
                 _draw_index(rng, _JUDGMENT_CDF)] for _ in range(n)]
    after = bit_generator.state
    # the last half is kept for the next uint32 if one was left over; spent,
    # it stays in ``uinteger`` as numpy leaves it
    after["has_uint32"], after["uinteger"] = kept, int(halves[-1])
    bit_generator.state = after
    uniforms = (words[1::2] >> np.uint64(11)) * 2.0 ** -53
    judgments = _JUDGMENT_CDF.searchsorted(uniforms, side="right")
    return np.column_stack([values.astype(np.int64), judgments]).tolist()


def synthesize(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """Deterministic in-memory corpus for a (spec, seed) pair."""
    rng = np.random.default_rng(seed)
    months = [spec.start.plus(i) for i in range(spec.months)]

    # Latent sentiment, with a burn-in so early months are already stationary
    # and extra history to cover the lead offset.
    burn_in = 48
    horizon = spec.months + spec.lead_months + burn_in
    shocks = rng.normal(0.0, 1.0, size=horizon)
    latent = np.zeros(horizon)
    for i in range(1, horizon):
        latent[i] = spec.ar_coefficient * latent[i - 1] + shocks[i]
    # sentiment[i] drives comments of months[i]; growth reacts lead later.
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
    tables = [tuple(tuple(t.format(kw=kw) for kw in keywords) for t in templates)
              for templates, keywords in ((_POSITIVE_TEMPLATES, spec.positive_keywords),
                                          (_NEGATIVE_TEMPLATES, spec.negative_keywords),
                                          (_NEUTRAL_TEMPLATES, spec.neutral_keywords))]
    tables.append(tuple((t,) for t in _UNRELATED_TEMPLATES))
    records: list[SurveyRecord] = []
    for i, month in enumerate(months):
        pos_frac = 0.5 * (1.0 + np.tanh(spec.polarity_swing * sentiment[i]))
        shares = np.array([
            directional * pos_frac,
            directional * (1.0 - pos_frac),
            spec.neutral_share,
            spec.unrelated_share,
        ])
        shares = shares / shares.sum()
        counts = rng.multinomial(spec.comments_per_month, shares).tolist()
        texts = _comment_texts(rng, counts, tables)
        order = rng.permutation(len(texts)).tolist()
        draws = _record_draws(rng, len(texts))
        for j, (region, industry, judgment) in zip(order, draws):
            records.append(SurveyRecord(month=month, region=_REGIONS[region],
                                        industry=_INDUSTRIES[industry],
                                        judgment=_JUDGMENT_VALUES[judgment],
                                        comment=texts[j]))
    return SyntheticCorpus(records=records, wage_levels=levels,
                           sentiment=list(map(float, sentiment)))


def generate_synthetic(spec: SyntheticSpec, seed: int,
                       out_dir: str | Path) -> tuple[list[Path], Path]:
    """Write one survey CSV per month plus the wage CSV; returns the paths.

    Output is byte-identical for identical (spec, seed).
    """
    out_dir = Path(out_dir)
    survey_dir = out_dir / "surveys"
    survey_dir.mkdir(parents=True, exist_ok=True)
    corpus = synthesize(spec, seed)
    survey_paths: list[Path] = []
    by_month: dict[MonthKey, list[SurveyRecord]] = {}
    for record in corpus.records:
        by_month.setdefault(record.month, []).append(record)
    for month in sorted(by_month):
        path = survey_dir / f"{month}.csv"
        write_survey(by_month[month], path)
        survey_paths.append(path)
    wage_path = out_dir / "wages.csv"
    write_wages(corpus.wage_levels, wage_path)
    return survey_paths, wage_path
