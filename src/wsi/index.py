"""Monthly wage sentiment indices from classified comments.

The standard index is (increase - decrease) / total * 100 over hard-label
counts. The weighted index sums per-comment probability margins
(u - v)/(u + v + w) * 100; that raw sum scales with the month's comment
count, so the default normalization divides by it. Comments marked
unrelated (and classification failures) are excluded from both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .classify import ClassifiedComment, ClassProbabilities, HardLabel
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
    total = 0.0
    for t in triples:
        total += (t.u - t.v) / (t.u + t.v + t.w)
    total *= 100.0
    if normalization is Normalization.PER_COMMENT:
        return total / len(triples)
    return total


def count_labels(classified: Iterable[ClassifiedComment], month: MonthKey) -> MonthlyCounts:
    alpha = beta = gamma = excluded = 0
    for c in classified:
        if c.excluded:
            excluded += 1
        elif c.hard_label == HardLabel.INCREASE:
            alpha += 1
        elif c.hard_label == HardLabel.DECREASE:
            beta += 1
        else:
            gamma += 1
    return MonthlyCounts(month=month, alpha=alpha, beta=beta, gamma=gamma, excluded=excluded)


@dataclass
class SeriesResult:
    points: list[IndexPoint]
    skipped_months: list[MonthKey]  # all comments excluded

    def standard_by_month(self) -> dict[MonthKey, float]:
        return {p.month: p.wsi_standard for p in self.points}

    def weighted_by_month(self) -> dict[MonthKey, float]:
        return {p.month: p.wsi_weighted for p in self.points}


def build_series(classified: Mapping[MonthKey, Sequence[ClassifiedComment]],
                 normalization: Normalization = Normalization.PER_COMMENT) -> SeriesResult:
    """One IndexPoint per month with included comments; empty months reported."""
    if not classified:
        raise ValueError("no classified months")
    points: list[IndexPoint] = []
    skipped: list[MonthKey] = []
    for month in sorted(classified):
        comments = classified[month]
        counts = count_labels(comments, month)
        if counts.total == 0:
            skipped.append(month)
            continue
        triples = [c.probs for c in comments if not c.excluded]
        std = standard_wsi(counts)
        wgt = weighted_wsi(triples, normalization)
        assert std is not None and wgt is not None
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
