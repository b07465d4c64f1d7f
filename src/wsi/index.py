"""Monthly wage sentiment indices from classified comments.

The standard index is (increase - decrease) / total * 100 over hard-label
counts. The weighted index sums per-comment probability margins
(u - v)/(u + v + w) * 100; that raw sum scales with the month's comment
count, so the default normalization divides by it. Comments marked
unrelated (and classification failures) are excluded from both.

``build_series`` works on a backend's ``Classified`` arrays. It counts each
month's labels with ``np.bincount`` over the month's segment of answer
codes, and computes each answer's margin once, for included answers only
(the unrelated answer's would be 0/0). A month's margins are summed in
record order, one after the other, as a Python loop adds them:
``np.cumsum`` adds sequentially, while ``np.sum`` adds pairwise and can
change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .classify import LABEL_CODES, ClassifiedComment, Classified, ClassProbabilities, HardLabel
from .corpus import MonthKey


class Normalization(Enum):
    RAW_SUM = "raw_sum"
    PER_COMMENT = "per_comment"


@dataclass(frozen=True)
class MonthlyCounts:
    month: MonthKey
    alpha: int  # increase comments
    beta: int   # decrease comments
    gamma: int  # neutral comments
    excluded: int  # unrelated or failed comments

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.gamma, self.excluded) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.alpha + self.beta + self.gamma


@dataclass(frozen=True)
class IndexPoint:
    month: MonthKey
    wsi_standard: float
    wsi_weighted: float
    counts: MonthlyCounts


def standard_wsi(counts: MonthlyCounts) -> float | None:
    """Count-based index in [-100, 100]; None when the month has no comments."""
    if counts.total == 0:
        return None
    return (counts.alpha - counts.beta) / counts.total * 100.0


def weighted_wsi(triples: Sequence[ClassProbabilities],
                 normalization: Normalization = Normalization.PER_COMMENT) -> float | None:
    """Probability-margin index; input triples must exclude unrelated comments."""
    if not triples:
        return None
    u, v, w = np.array([t.as_tuple() for t in triples], dtype=np.float64).T
    return _weighted((u - v) / (u + v + w), normalization)


def _weighted(margins: np.ndarray, normalization: Normalization) -> float:
    """The weighted index of a non-empty array of margins, added in order."""
    # a loop's sum starts at 0.0, so margins that are all -0.0 add up to 0.0
    total = (0.0 + float(np.cumsum(margins)[-1])) * 100.0
    if normalization is Normalization.PER_COMMENT:
        return total / len(margins)
    return total


@dataclass
class SeriesResult:
    points: list[IndexPoint]
    skipped_months: list[MonthKey]  # all comments excluded

    def standard_by_month(self) -> dict[MonthKey, float]:
        return {p.month: p.wsi_standard for p in self.points}

    def weighted_by_month(self) -> dict[MonthKey, float]:
        return {p.month: p.wsi_weighted for p in self.points}


def build_series(classified: Classified | Mapping[MonthKey, Sequence[ClassifiedComment]],
                 normalization: Normalization = Normalization.PER_COMMENT) -> SeriesResult:
    """One IndexPoint per month with included comments; empty months reported.

    A ``{month: [ClassifiedComment]}`` mapping is converted to arrays first.
    """
    if not isinstance(classified, Classified):
        classified = Classified.from_comments(classified)
    if not classified.months:
        raise ValueError("no classified months")
    excluded = classified.excluded
    included = ~excluded
    # each answer's MonthlyCounts field: alpha, beta, gamma (Neutral or any
    # other label) or excluded
    field = np.where(excluded, 3, np.minimum(classified.label, LABEL_CODES[HardLabel.NEUTRAL]))
    u, v, w = classified.u[included], classified.v[included], classified.w[included]
    margins = np.zeros(len(excluded))
    margins[included] = (u - v) / (u + v + w)
    points: list[IndexPoint] = []
    skipped: list[MonthKey] = []
    for month, codes in classified.month_segments():
        counts = MonthlyCounts(month, *np.bincount(field[codes], minlength=4).tolist())
        if counts.total == 0:
            skipped.append(month)
            continue
        std = standard_wsi(counts)
        assert std is not None
        wgt = _weighted(margins[codes[included[codes]]], normalization)
        points.append(IndexPoint(month=month, wsi_standard=std, wsi_weighted=wgt, counts=counts))
    return SeriesResult(points=points, skipped_months=skipped)


SERIES_CSV_HEADER = "yyyymm,wsi_standard,wsi_weighted,alpha,beta,gamma,excluded,n"


def series_csv_rows(points: Sequence[IndexPoint]) -> list[str]:
    """Full-precision CSV export (header included)."""
    rows = [SERIES_CSV_HEADER]
    for p in points:
        c = p.counts
        rows.append(
            f"{p.month},{p.wsi_standard!r},{p.wsi_weighted!r},"
            f"{c.alpha},{c.beta},{c.gamma},{c.excluded},{c.total}"
        )
    return rows
