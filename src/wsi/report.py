"""Rendering of evaluation outputs: significance tables, charts, summaries.

All renderers are pure functions of their inputs: fixed float formatting
with a period decimal separator, no timestamps, byte-identical output on
identical input.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Mapping, Sequence

from .corpus import Corpus, Judgment, MonthKey
from .econometrics import GrangerResult
from .index import IndexPoint


class ChartError(ValueError):
    """Chart input cannot produce a meaningful plot."""


def format_3dp(value: float) -> str:
    """Fixed three-decimal rendering, rounding half-up, locale independent."""
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _row_cells(result: GrangerResult) -> tuple[str, str, str]:
    return (
        str(result.lag),
        format_3dp(result.f_stat),
        format_3dp(result.p_value) + result.stars,
    )


def render_granger_table(results: Sequence[GrangerResult], format: str = "latex") -> str:
    """One model's lag table as markdown or latex text.

    Rows carry the lag, the F statistic to three decimals, and the p-value
    to three decimals with significance stars appended (p < 0.10 one star,
    p < 0.05 two, p < 0.01 three).
    """
    if not results:
        raise ValueError("no results to render")
    ordered = sorted(results, key=lambda r: r.lag)
    if format == "markdown":
        lines = ["| Lag | F-stat | p-value |", "|---:|---:|:---|"]
        lines.extend("| " + " | ".join(_row_cells(r)) + " |" for r in ordered)
        return "\n".join(lines) + "\n"
    if format == "latex":
        lines = [r"\begin{tabular}{rrl}", r"\toprule", r"Lag & F-stat & p-value \\", r"\midrule"]
        lines.extend(" & ".join(_row_cells(r)) + r" \\" for r in ordered)
        lines.extend([r"\bottomrule", r"\end{tabular}"])
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {format}")


def render_granger_row(result: GrangerResult) -> str:
    """Single latex row, e.g. ``1 & 18.390 & 0.000***``."""
    return " & ".join(_row_cells(result))


def render_granger_grid(sweeps: Mapping[str, Sequence[GrangerResult]],
                        title: str, format: str = "latex") -> str:
    """Comparison grid across models: per-model sub-tables under bold headers, four to a row."""
    if not sweeps:
        raise ValueError("no sweeps to render")
    backends = list(sweeps)
    if format == "markdown":
        parts = [f"## {title}", ""]
        for backend in backends:
            parts.append(f"### {backend}")
            parts.append("")
            parts.append(render_granger_table(sweeps[backend], "markdown"))
        return "\n".join(parts)
    if format == "latex":
        lines = [r"\begin{table*}[t]", r"\centering", rf"\caption{{{title}}}"]
        lines.append(r"\resizebox{\textwidth}{!}{%")
        per_row = 4
        lines.append(r"\begin{tabular}{" + "c" * min(per_row, len(backends)) + "}")
        for start in range(0, len(backends), per_row):
            chunk = backends[start: start + per_row]
            # an id may hold "_", which LaTeX takes in text mode only as "\_"
            heads = [r"\textbf{" + b.replace("_", r"\_") + "}" for b in chunk]
            lines.append(" &\n".join(heads) + r" \\")
            subtables = [render_granger_table(sweeps[b], "latex").rstrip() for b in chunk]
            lines.append(" &\n".join(subtables) + (r" \\\\" if start + per_row < len(backends) else r" \\"))
        lines.extend([r"\end{tabular}", "}", r"\end{table*}"])
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {format}")


GRANGER_CSV_HEADER = "backend,index_kind,lag,f_stat,p_value,stars"


def granger_csv_rows(backend: str, index_kind: str,
                     results: Sequence[GrangerResult]) -> list[str]:
    rows = [GRANGER_CSV_HEADER]
    for r in sorted(results, key=lambda r: r.lag):
        rows.append(f"{backend},{index_kind},{r.lag},{r.f_stat!r},{r.p_value!r},{r.stars}")
    return rows


# Chart geometry (SVG user units).
_WIDTH, _HEIGHT = 880, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 64, 48, 64
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM

_SERIES_STYLE = (
    ("standard", "#1f77b4"),
    ("weighted", "#ff7f0e"),
    ("yoy", "#2ca02c"),
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_series_chart(series: Sequence[IndexPoint], yoy: Mapping[MonthKey, float],
                        title: str = "Wage sentiment vs wage growth") -> str:
    """Self-contained dual-axis SVG: WSI lines (left axis, fixed [-100, 100])
    against year-on-year wage growth (right axis, auto-scaled with 10% pad).

    The x-domain is the overlap of the index series and the growth series;
    fewer than two overlapping months is an error.
    """
    series_by_month = {p.month: p for p in series}
    months = sorted(set(series_by_month) & set(yoy))
    if not months:
        raise ChartError("no overlap between index series and wage growth")
    if len(months) < 2:
        raise ChartError("overlap shorter than 2 months; nothing to plot")

    lo = min(yoy[m] for m in months)
    hi = max(yoy[m] for m in months)
    span = hi - lo
    pad = span * 0.10 if span > 0 else 1.0
    ylo, yhi = lo - pad, hi + pad

    def x_at(i: int) -> float:
        return _LEFT + _PLOT_W * i / (len(months) - 1)

    def y_wsi(value: float) -> float:
        return _TOP + _PLOT_H * (100.0 - value) / 200.0

    def y_yoy(value: float) -> float:
        return _TOP + _PLOT_H * (yhi - value) / (yhi - ylo)

    def polyline(points: list[tuple[float, float]], name: str, color: str) -> str:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        return (f'<polyline class="{name}" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{coords}" />')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white" />',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#333333" stroke-width="1" />',
    ]
    # Left axis: fixed WSI ticks.
    for tick in (-100, -50, 0, 50, 100):
        y = y_wsi(tick)
        parts.append(f'<line x1="{_LEFT - 4}" y1="{_fmt(y)}" x2="{_LEFT}" y2="{_fmt(y)}" '
                     f'stroke="#333333" stroke-width="1" />')
        parts.append(f'<text x="{_LEFT - 8}" y="{_fmt(y + 4)}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif">{tick}</text>')
    # Right axis: growth ticks at padded bounds and midpoint.
    for tick in (ylo, (ylo + yhi) / 2.0, yhi):
        y = y_yoy(tick)
        parts.append(f'<line x1="{_LEFT + _PLOT_W}" y1="{_fmt(y)}" '
                     f'x2="{_LEFT + _PLOT_W + 4}" y2="{_fmt(y)}" '
                     f'stroke="#333333" stroke-width="1" />')
        parts.append(f'<text x="{_LEFT + _PLOT_W + 8}" y="{_fmt(y + 4)}" font-size="11" '
                     f'text-anchor="start" font-family="sans-serif">{_fmt(tick)}</text>')
    # Month ticks, about eight across the span.
    step = max(1, (len(months) - 1) // 7)
    for i in range(0, len(months), step):
        x = x_at(i)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_TOP + _PLOT_H}" x2="{_fmt(x)}" '
                     f'y2="{_TOP + _PLOT_H + 4}" stroke="#333333" stroke-width="1" />')
        parts.append(f'<text x="{_fmt(x)}" y="{_TOP + _PLOT_H + 18}" font-size="10" '
                     f'text-anchor="middle" font-family="sans-serif">{months[i]}</text>')
    # Zero line for the WSI scale.
    zero_y = y_wsi(0.0)
    parts.append(f'<line x1="{_LEFT}" y1="{_fmt(zero_y)}" x2="{_LEFT + _PLOT_W}" '
                 f'y2="{_fmt(zero_y)}" stroke="#bbbbbb" stroke-width="1" '
                 f'stroke-dasharray="4 3" />')

    standard_pts = [(x_at(i), y_wsi(series_by_month[m].wsi_standard)) for i, m in enumerate(months)]
    weighted_pts = [(x_at(i), y_wsi(series_by_month[m].wsi_weighted)) for i, m in enumerate(months)]
    yoy_pts = [(x_at(i), y_yoy(yoy[m])) for i, m in enumerate(months)]
    for points, (name, color) in zip((standard_pts, weighted_pts, yoy_pts), _SERIES_STYLE):
        parts.append(polyline(points, name, color))

    legend_x = _LEFT
    for offset, (name, color) in zip((0, 150, 300), _SERIES_STYLE):
        parts.append(f'<line x1="{legend_x + offset}" y1="20" x2="{legend_x + offset + 24}" '
                     f'y2="20" stroke="{color}" stroke-width="2" />')
        parts.append(f'<text x="{legend_x + offset + 30}" y="24" font-size="12" '
                     f'font-family="sans-serif">{name}</text>')
    parts.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" font-size="12" '
                 f'text-anchor="middle" font-family="sans-serif">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_JUDGMENT_ORDER = [j.value for j in Judgment]


@dataclass
class CorpusSummary:
    by_judgment: dict[str, int]
    by_region: dict[str, int]
    by_month: dict[MonthKey, int]

    def judgment_csv(self) -> str:
        lines = ["judgment,count"]
        lines.extend(f"{j},{self.by_judgment[j]}" for j in _JUDGMENT_ORDER if j in self.by_judgment)
        return "\n".join(lines) + "\n"

    def region_csv(self) -> str:
        lines = ["region,count"]
        lines.extend(f"{r},{self.by_region[r]}" for r in sorted(self.by_region))
        return "\n".join(lines) + "\n"

    def month_csv(self) -> str:
        lines = ["yyyymm,count"]
        lines.extend(f"{m},{self.by_month[m]}" for m in sorted(self.by_month))
        return "\n".join(lines) + "\n"


def summarize_corpus(corpus: Corpus) -> CorpusSummary:
    """Counts by judgment, region, and month, from the record codes."""
    def tally(table: Sequence, codes: Sequence[int]) -> dict:
        return {table[code]: n for code, n in Counter(codes).items()}

    by_judgment = tally(corpus.judgments, corpus.judgment_codes)
    return CorpusSummary(by_judgment={j.value: n for j, n in by_judgment.items()},
                         by_region=tally(corpus.regions, corpus.region_codes),
                         by_month=tally(corpus.months, corpus.month_codes))


@dataclass
class ReportBundle:
    """Everything one evaluation run produced, per backend."""

    run_id: str
    metadata: dict
    series: dict[str, list[IndexPoint]]
    sweeps: dict[tuple[str, str], list[GrangerResult]]
    failures: dict[str, dict]

    def validate(self) -> None:
        for backend in self.series:
            has_sweep = any(b == backend for b, _ in self.sweeps)
            has_failure = any(key == backend or key.startswith(f"{backend}_")
                              for key in self.failures)
            if not has_sweep and not has_failure:
                raise ValueError(f"backend {backend} has a series but no sweep")
        for backend, _ in self.sweeps:
            if backend not in self.series:
                raise ValueError(f"backend {backend} has a sweep but no series")
