"""Survey-comment and wage-index ingestion.

Canonical inputs are UTF-8 CSV files (a leading byte order mark is
ignored) with a header row: survey files carry
``yyyymm,region,industry,judgment,comment`` (``SURVEY_COLUMNS``; one file
per month, or several concatenated), optionally ``comment_translated``, and
the wage file carries ``yyyymm,level``. A judgment label is read through
``JUDGMENT_LABELS``, ignoring case, extra spaces, ``_`` and ``-``. Survey
records load into a ``Corpus`` of columns, with one table of distinct texts.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from operator import attrgetter, le, lt
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
        """Parse ``yyyymm`` or ``yyyy-mm``; raises ValueError otherwise,
        also for a year above 9999, which ``str`` could not write back."""
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
        if not (1 <= month <= 12 and year <= 9999):
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


# The canonical names plus common English / romanized survey variants, as
# ``resolve_judgment`` normalizes them.
JUDGMENT_LABELS: dict[str, Judgment] = {
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

# Survey CSV columns, in the order ``write_survey`` writes them.
SURVEY_COLUMNS = ("yyyymm", "region", "industry", "judgment", "comment")
TRANSLATED_COLUMN = "comment_translated"


def resolve_judgment(label: str) -> Judgment | None:
    """The judgment ``label`` names, ignoring case, extra spaces, ``_`` and ``-``."""
    words = label.replace("_", " ").replace("-", " ").lower().split()
    return JUDGMENT_LABELS.get(" ".join(words))


@dataclass(frozen=True)
class SurveyRecord:
    """One survey response as an object, for tests and reference code; the
    pipeline carries records as a ``Corpus``."""

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


class Codes(dict):
    """Value -> code, numbered in order of first lookup; ``table`` lists the
    values by code."""

    def __init__(self) -> None:
        super().__init__()
        self.table: list = []

    def __missing__(self, value) -> int:
        code = self[value] = len(self.table)
        self.table.append(value)
        return code


@dataclass
class Corpus:
    """Survey records as columns.

    Record ``i`` has the month ``months[month_codes[i]]``, and its region,
    industry and judgment likewise through ``regions``, ``industries`` and
    ``judgments``. Its ``text_ids[i]`` points into one table of distinct
    texts, ``comments`` with their ``translations`` (``comment_translated``,
    None when absent). The table's key is the comment with its translation
    as loaded, so two rows with one comment and two loaded translations keep
    both. Text ids number the table in order of first appearance. A loaded
    corpus is in stable month order with ``months`` ascending, the order
    ``month_slices`` requires.
    """

    months: list[MonthKey]
    regions: list[str]
    industries: list[str]
    judgments: list[Judgment]
    comments: list[str]
    translations: list[str | None]
    month_codes: list[int]
    region_codes: list[int]
    industry_codes: list[int]
    judgment_codes: list[int]
    text_ids: list[int]

    def __len__(self) -> int:
        return len(self.text_ids)

    @property
    def texts(self) -> list[str]:
        """Each text id's analysis text: its translation when present, else its comment."""
        return [c if t is None else t for c, t in zip(self.comments, self.translations)]

    def month_slices(self) -> list[tuple[MonthKey, slice]]:
        """Each month that has records, ascending, with the slice of record
        positions it holds; ValueError unless the records are in month order."""
        codes = self.month_codes
        if not (all(map(lt, self.months, self.months[1:]))
                and all(map(le, codes, codes[1:]))):
            raise ValueError("records are not in month order")
        ends = [bisect_right(codes, code) for code in range(len(self.months))]
        return [(month, slice(start, end))
                for month, start, end in zip(self.months, [0, *ends], ends) if end > start]

    def records(self) -> list[SurveyRecord]:
        """The records as ``SurveyRecord`` objects, in order, built on each call."""
        months, regions, industries = self.months, self.regions, self.industries
        judgments, comments, translations = self.judgments, self.comments, self.translations
        return [SurveyRecord(months[m], regions[r], industries[i], judgments[j],
                             comments[t], translations[t])
                for m, r, i, j, t in zip(self.month_codes, self.region_codes,
                                         self.industry_codes, self.judgment_codes,
                                         self.text_ids)]

    @classmethod
    def from_records(cls, records: Sequence[SurveyRecord]) -> "Corpus":
        """The columns of ``records``, in their order."""
        months, regions, industries, judgments, texts = (Codes() for _ in range(5))
        return _corpus(months, regions, industries, judgments, texts,
                       [months[r.month] for r in records],
                       [regions[r.region] for r in records],
                       [industries[r.industry] for r in records],
                       [judgments[r.judgment] for r in records],
                       [texts[r.comment, r.comment_translated] for r in records])


def _corpus(months: Codes, regions: Codes, industries: Codes, judgments: Codes,
            texts: Codes, *codes: list[int]) -> Corpus:
    """The ``Corpus`` of these code tables, ``texts`` keyed by (comment,
    translation), and the per-record codes in ``Corpus`` field order."""
    return Corpus(months.table, regions.table, industries.table, judgments.table,
                  [c for c, _ in texts.table], [t for _, t in texts.table], *codes)


def _in_month_order(corpus: Corpus) -> Corpus:
    """``corpus`` with ``months`` ascending and its records stably sorted by
    month, text ids renumbered by first appearance."""
    order = sorted(range(len(corpus.months)), key=corpus.months.__getitem__)
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    codes = [rank[c] for c in corpus.month_codes]
    months = [corpus.months[i] for i in order]
    if all(map(le, codes, codes[1:])):
        return replace(corpus, months=months, month_codes=codes)
    positions = sorted(range(len(codes)), key=codes.__getitem__)  # stable

    def pick(column: list) -> list:
        return [column[i] for i in positions]

    renumbered = Codes()
    text_ids = [renumbered[t] for t in pick(corpus.text_ids)]
    return Corpus(months, corpus.regions, corpus.industries, corpus.judgments,
                  [corpus.comments[t] for t in renumbered.table],
                  [corpus.translations[t] for t in renumbered.table],
                  pick(codes), pick(corpus.region_codes), pick(corpus.industry_codes),
                  pick(corpus.judgment_codes), text_ids)


@dataclass(frozen=True)
class RowError:
    path: str
    line: int
    reason: str


@dataclass
class SurveyLoad:
    """Parsed records plus the row-level error report. ``records`` builds
    the objects on each use; no pipeline code reads it.
    """

    corpus: Corpus
    errors: list[RowError]
    skipped_empty: int = 0

    @property
    def records(self) -> list[SurveyRecord]:
        return self.corpus.records()


def _parse_month(text: str) -> MonthKey | None:
    try:
        return MonthKey.parse(text)
    except ValueError:
        return None


# Orders records as ``record.month`` does, without calling MonthKey.__lt__.
_MONTH_ORDER = attrgetter("month.year", "month.month")


class _CellCodes(dict):
    """Raw cell -> the code of ``normalize(cell)`` in ``codes``, -1 where it
    is None; each distinct raw cell is normalized once."""

    def __init__(self, normalize: Callable, codes: Codes) -> None:
        super().__init__()
        self.normalize = normalize
        self.codes = codes

    def __missing__(self, cell: str) -> int:
        value = self.normalize(cell)
        code = self[cell] = -1 if value is None else self.codes[value]
        return code


def load_surveys(paths: Iterable[str | Path]) -> SurveyLoad:
    """Load and merge several canonical survey CSVs, in the given path order,
    into one ``Corpus``.

    Malformed months and unknown judgment labels reject the row (reported
    with its line number); empty comments skip the row with a count. The
    surviving records are sorted by month, keeping file and row order within
    each month. A UTF-8 byte order mark at the start of a file is ignored.

    Rows read as ``csv.DictReader`` reads them: blank lines are skipped and
    not numbered, missing trailing fields are empty, extra fields are
    ignored, and a column named twice is read from its last position.
    """
    months, regions, industries, judgments, texts = (Codes() for _ in range(5))
    # one parse per distinct raw month, label, region and industry, not per row
    month_of = _CellCodes(_parse_month, months)
    judgment_of = _CellCodes(resolve_judgment, judgments)
    region_of = _CellCodes(str.strip, regions)
    industry_of = _CellCodes(str.strip, industries)
    month_codes: list[int] = []
    region_codes: list[int] = []
    industry_codes: list[int] = []
    judgment_codes: list[int] = []
    text_ids: list[int] = []
    errors: list[RowError] = []
    skipped_empty = 0
    for path in map(Path, paths):
        if not path.exists():
            raise LoadError(f"survey file not found: {path}")
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise LoadError(f"empty survey file: {path}")
            missing = [c for c in SURVEY_COLUMNS if c not in header]
            if missing:
                raise LoadError(f"{path}: missing columns {missing}")
            position = {name: i for i, name in enumerate(header)}
            month_at, region_at, industry_at, judgment_at, comment_at = (
                position[c] for c in SURVEY_COLUMNS)
            translated_at = position.get(TRANSLATED_COLUMN)
            width = len(header)
            lineno = 1
            for row in reader:
                if not row:
                    continue
                lineno += 1
                if len(row) < width:
                    row += [""] * (width - len(row))
                month = month_of[row[month_at]]
                if month < 0:
                    errors.append(RowError(str(path), lineno, "invalid month"))
                    continue
                judgment = judgment_of[row[judgment_at]]
                if judgment < 0:
                    errors.append(RowError(str(path), lineno, "unknown judgment"))
                    continue
                comment = row[comment_at].strip()
                if not comment:
                    skipped_empty += 1
                    continue
                month_codes.append(month)
                region_codes.append(region_of[row[region_at]])
                industry_codes.append(industry_of[row[industry_at]])
                judgment_codes.append(judgment)
                text_ids.append(texts[comment, (row[translated_at] or None
                                                if translated_at is not None else None)])
    corpus = _corpus(months, regions, industries, judgments, texts,
                     month_codes, region_codes, industry_codes, judgment_codes, text_ids)
    return SurveyLoad(_in_month_order(corpus), errors, skipped_empty)


def _csv_cells(rows: Iterable[Sequence[str]]) -> list[str]:
    """Each row of cells as ``csv.writer`` writes it inside a longer row,
    without a line end."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    cells = []
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((*row, ""))  # so that a lone empty cell is not quoted
        cells.append(buffer.getvalue()[:-3])  # less ",\r\n"
    return cells


def write_survey(records: Corpus | Sequence[SurveyRecord], path: str | Path) -> None:
    """Write records in the canonical CSV format (round-trip safe), atomically.

    Each distinct cell is encoded once by ``csv.writer`` and the rows are
    joined from those cells; a list of ``SurveyRecord``s is converted to a
    ``Corpus`` first.
    """
    corpus = records if isinstance(records, Corpus) else Corpus.from_records(records)
    header = list(SURVEY_COLUMNS)
    if any(t is not None for t in corpus.translations):
        header.append(TRANSLATED_COLUMN)
        texts = _csv_cells(zip(corpus.comments, (t or "" for t in corpus.translations)))
    else:
        texts = _csv_cells(zip(corpus.comments))
    months = _csv_cells((str(m),) for m in corpus.months)
    regions = _csv_cells(zip(corpus.regions))
    industries = _csv_cells(zip(corpus.industries))
    judgments = _csv_cells((j.value,) for j in corpus.judgments)
    with atomic_open(Path(path), newline="") as fh:
        fh.write(_csv_cells([header])[0] + "\r\n")
        fh.writelines(f"{months[m]},{regions[r]},{industries[i]},{judgments[j]},{texts[t]}\r\n"
                      for m, r, i, j, t in zip(corpus.month_codes, corpus.region_codes,
                                               corpus.industry_codes, corpus.judgment_codes,
                                               corpus.text_ids))


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
        """Year-on-year growth in percent, at each month that has a level a year before."""
        return dict(self._yoy)

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
    with path.open(newline="", encoding="utf-8-sig") as fh:
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
