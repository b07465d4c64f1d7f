"""Survey-comment and wage-index ingestion.

Canonical inputs are UTF-8 CSV files with a header row: survey files carry
``yyyymm,region,industry,judgment,comment`` (one file per month, or several
concatenated), the wage file carries ``yyyymm,level``. Column names and
judgment labels are remappable through :class:`SurveySchema`.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .wire import atomic_open


class LoadError(ValueError):
    """An input file violates the canonical format (hard failure)."""


@dataclass(frozen=True, order=True)
class MonthKey:
    """Calendar year-month; ordering is lexicographic (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @classmethod
    def parse(cls, text: str) -> "MonthKey":
        """Parse ``yyyymm`` or ``yyyy-mm``; raises ValueError otherwise."""
        raw = text.strip()
        if "-" in raw:
            year_part, _, month_part = raw.partition("-")
        elif len(raw) == 6 and raw.isdigit():
            year_part, month_part = raw[:4], raw[4:]
        else:
            raise ValueError(f"invalid month: {text!r}")
        if not (year_part.isdigit() and month_part.isdigit()):
            raise ValueError(f"invalid month: {text!r}")
        year, month = int(year_part), int(month_part)
        if not 1 <= month <= 12:
            raise ValueError(f"invalid month: {text!r}")
        return cls(year, month)

    def minus(self, k: int) -> "MonthKey":
        if k < 0:
            raise ValueError("k must be >= 0")
        total = self.year * 12 + (self.month - 1) - k
        return MonthKey(total // 12, total % 12 + 1)

    def plus(self, k: int) -> "MonthKey":
        if k < 0:
            raise ValueError("k must be >= 0")
        total = self.year * 12 + (self.month - 1) + k
        return MonthKey(total // 12, total % 12 + 1)

    def __str__(self) -> str:
        return f"{self.year:04d}{self.month:02d}"


def month_range(first: MonthKey, last: MonthKey) -> list[MonthKey]:
    """Inclusive contiguous range of months from first to last."""
    if last < first:
        return []
    out = []
    cur = first
    while cur <= last:
        out.append(cur)
        cur = cur.plus(1)
    return out


class Judgment(Enum):
    EXCELLENT = "Excellent"
    GOOD = "Good"
    UNCHANGED = "Unchanged"
    SLIGHTLY_BAD = "SlightlyBad"
    BAD = "Bad"


def _norm_label(label: str) -> str:
    return " ".join(label.replace("_", " ").replace("-", " ").lower().split())


# Accepts the canonical names plus common English / romanized survey variants.
DEFAULT_JUDGMENT_LABELS: dict[str, Judgment] = {
    "excellent": Judgment.EXCELLENT,
    "good": Judgment.GOOD,
    "unchanged": Judgment.UNCHANGED,
    "slightly bad": Judgment.SLIGHTLY_BAD,
    "slightlybad": Judgment.SLIGHTLY_BAD,
    "bad": Judgment.BAD,
    "yoi": Judgment.EXCELLENT,
    "yaya yoi": Judgment.GOOD,
    "kawaranai": Judgment.UNCHANGED,
    "yaya warui": Judgment.SLIGHTLY_BAD,
    "warui": Judgment.BAD,
}


@dataclass(frozen=True)
class SurveyRecord:
    """One survey response; ``comment_translated`` is filled by translation."""

    month: MonthKey
    region: str
    industry: str
    judgment: Judgment
    comment: str
    comment_translated: str | None = None

    @property
    def text(self) -> str:
        """Text used for downstream analysis (translated when available)."""
        return self.comment_translated if self.comment_translated is not None else self.comment

    def with_translation(self, translated: str) -> "SurveyRecord":
        return replace(self, comment_translated=translated)


@dataclass(frozen=True)
class SurveySchema:
    """Column mapping and judgment-label mapping for survey CSV files."""

    month: str = "yyyymm"
    region: str = "region"
    industry: str = "industry"
    judgment: str = "judgment"
    comment: str = "comment"
    translated: str = "comment_translated"
    judgment_labels: Mapping[str, Judgment] = field(
        default_factory=lambda: dict(DEFAULT_JUDGMENT_LABELS)
    )

    def resolve_judgment(self, label: str) -> Judgment | None:
        return self.judgment_labels.get(_norm_label(label))


DEFAULT_SCHEMA = SurveySchema()


@dataclass(frozen=True)
class RowError:
    path: str
    line: int
    reason: str


@dataclass
class SurveyLoad:
    """Parsed records plus the row-level error report."""

    records: list[SurveyRecord]
    errors: list[RowError]
    skipped_empty: int = 0


def _parse_month(text: str) -> MonthKey | None:
    try:
        return MonthKey.parse(text)
    except ValueError:
        return None


# Orders records as ``record.month`` does, without calling MonthKey.__lt__.
_MONTH_ORDER = attrgetter("month.year", "month.month")


def load_survey(path: str | Path, schema: SurveySchema = DEFAULT_SCHEMA) -> SurveyLoad:
    """Load one canonical survey CSV.

    Malformed months and unknown judgment labels reject the row (reported
    with its line number); empty comments skip the row with a count. The
    surviving records are sorted by month, preserving input order within
    each month.

    Rows read as ``csv.DictReader`` reads them: blank lines are skipped and
    not numbered, missing trailing fields are empty, extra fields are
    ignored, and a column named twice is read from its last position.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"survey file not found: {path}")
    records: list[SurveyRecord] = []
    errors: list[RowError] = []
    skipped_empty = 0
    # one parse per distinct raw month and label, not per row
    month_of = functools.cache(_parse_month)
    judgment_of = functools.cache(schema.resolve_judgment)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise LoadError(f"empty survey file: {path}")
        required = [schema.month, schema.region, schema.industry, schema.judgment, schema.comment]
        missing = [c for c in required if c not in header]
        if missing:
            raise LoadError(f"{path}: missing columns {missing}")
        position = {name: i for i, name in enumerate(header)}
        month_at, region_at, industry_at, judgment_at, comment_at = (
            position[c] for c in required)
        translated_at = position.get(schema.translated)
        width = len(header)
        lineno = 1
        for row in reader:
            if not row:
                continue
            lineno += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            month = month_of(row[month_at])
            if month is None:
                errors.append(RowError(str(path), lineno, "invalid month"))
                continue
            judgment = judgment_of(row[judgment_at])
            if judgment is None:
                errors.append(RowError(str(path), lineno, "unknown judgment"))
                continue
            comment = row[comment_at].strip()
            if not comment:
                skipped_empty += 1
                continue
            records.append(
                SurveyRecord(
                    month=month,
                    region=row[region_at].strip(),
                    industry=row[industry_at].strip(),
                    judgment=judgment,
                    comment=comment,
                    comment_translated=(row[translated_at] or None
                                        if translated_at is not None else None),
                )
            )
    records.sort(key=_MONTH_ORDER)  # stable: input order kept within month
    return SurveyLoad(records, errors, skipped_empty)


def load_surveys(paths: Iterable[str | Path], schema: SurveySchema = DEFAULT_SCHEMA) -> SurveyLoad:
    """Load and merge several survey CSVs in the given path order."""
    merged = SurveyLoad([], [], 0)
    for path in paths:
        part = load_survey(path, schema)
        merged.records.extend(part.records)
        merged.errors.extend(part.errors)
        merged.skipped_empty += part.skipped_empty
    merged.records.sort(key=_MONTH_ORDER)
    return merged


def write_survey(records: Sequence[SurveyRecord], path: str | Path,
                 schema: SurveySchema = DEFAULT_SCHEMA) -> None:
    """Write records back to the canonical CSV format (round-trip safe), atomically."""
    include_translated = any(r.comment_translated is not None for r in records)
    header = [schema.month, schema.region, schema.industry, schema.judgment, schema.comment]
    if include_translated:
        header.append(schema.translated)
    with atomic_open(Path(path), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = [str(r.month), r.region, r.industry, r.judgment.value, r.comment]
            if include_translated:
                row.append(r.comment_translated or "")
            writer.writerow(row)


class WageSeries:
    """Contiguous monthly wage-index levels with derived year-on-year growth."""

    def __init__(self, levels: Mapping[MonthKey, float]):
        months = sorted(levels)
        if not months:
            raise LoadError("wage series is empty")
        for prev, cur in zip(months, months[1:]):
            expected = prev.plus(1)
            if cur != expected:
                raise LoadError(f"gap in wage series: missing {expected}")
        for m in months:
            if not math.isfinite(levels[m]):
                raise LoadError(f"non-finite wage level at {m}: {levels[m]}")
            if not levels[m] > 0:
                raise LoadError(f"non-positive wage level at {m}: {levels[m]}")
        self._levels: dict[MonthKey, float] = {m: float(levels[m]) for m in months}
        self._yoy: dict[MonthKey, float] = {}
        for m in months:
            base = m.minus(12)
            if base in self._levels:
                self._yoy[m] = (self._levels[m] / self._levels[base] - 1.0) * 100.0

    @property
    def months(self) -> list[MonthKey]:
        return list(self._levels)

    @property
    def levels(self) -> dict[MonthKey, float]:
        return dict(self._levels)

    @property
    def yoy_map(self) -> dict[MonthKey, float]:
        return dict(self._yoy)

    def level(self, t: MonthKey) -> float | None:
        return self._levels.get(t)

    def yoy(self, t: MonthKey) -> float | None:
        """Year-on-year growth in percent, or None when undefined at t."""
        return self._yoy.get(t)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WageSeries) and self._levels == other._levels

    def __repr__(self) -> str:
        months = self.months
        return f"WageSeries({months[0]}..{months[-1]}, {len(months)} months)"


def load_wages(path: str | Path) -> WageSeries:
    """Load the two-column (yyyymm, level) wage CSV into a WageSeries."""
    path = Path(path)
    if not path.exists():
        raise LoadError(f"wage file not found: {path}")
    levels: dict[MonthKey, float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or len(reader.fieldnames) < 2:
            raise LoadError(f"{path}: expected columns yyyymm,level")
        month_col, level_col = reader.fieldnames[0], reader.fieldnames[1]
        for lineno, row in enumerate(reader, start=2):
            try:
                month = MonthKey.parse(row[month_col] or "")
            except ValueError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from exc
            try:
                level = float(row[level_col])
            except (TypeError, ValueError) as exc:
                raise LoadError(f"{path}:{lineno}: invalid level {row[level_col]!r}") from exc
            if month in levels:
                raise LoadError(f"{path}:{lineno}: duplicate month {month}")
            levels[month] = level
    return WageSeries(levels)


def write_wages(levels: Mapping[MonthKey, float], path: str | Path) -> None:
    with atomic_open(Path(path), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["yyyymm", "level"])
        for m in sorted(levels):
            writer.writerow([str(m), repr(float(levels[m]))])


def group_by_month(records: Iterable[SurveyRecord]) -> dict[MonthKey, list[SurveyRecord]]:
    """Partition records by month (keys ascending, input order kept within month).

    Splits runs of one month in C (records usually come sorted), hashing no MonthKey.
    """
    groups: dict[tuple[int, int], list[SurveyRecord]] = {}
    for key, run in groupby(records, _MONTH_ORDER):
        groups.setdefault(key, []).extend(run)
    return {groups[key][0].month: groups[key] for key in sorted(groups)}
