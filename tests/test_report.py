import random
import re

import pytest

from wsi.corpus import Corpus, Judgment, MonthKey
from wsi.econometrics import GrangerResult, significance_stars
from wsi.index import IndexPoint, MonthlyCounts
from wsi.report import (
    ChartError,
    ReportBundle,
    format_3dp,
    granger_csv_rows,
    render_granger_grid,
    render_granger_row,
    render_granger_table,
    render_series_chart,
    summarize_corpus,
)

from conftest import make_record


def result(lag, f, p):
    return GrangerResult(lag=lag, f_stat=f, p_value=p, df_num=lag,
                         df_den=100, stars=significance_stars(p))


class TestRowGrammar:
    def test_reference_row_with_three_stars(self):
        assert render_granger_row(result(1, 18.390, 0.0001)) == "1 & 18.390 & 0.000***"

    def test_reference_row_without_stars(self):
        assert render_granger_row(result(5, 0.870, 0.502)) == "5 & 0.870 & 0.502"

    def test_star_boundary_at_ten_percent(self):
        assert render_granger_row(result(2, 1.0, 0.09999)).endswith("0.100*")
        assert render_granger_row(result(2, 1.0, 0.10000)).endswith("0.100")

    def test_stars_follow_raw_p_not_rounded(self):
        # 0.0495 rounds to 0.050 but keeps two stars (p < 0.05)
        assert render_granger_row(result(3, 2.0, 0.0495)) == "3 & 2.000 & 0.050**"


class TestFormat3dp:
    def test_trailing_zeros_kept(self):
        assert format_3dp(18.39) == "18.390"
        assert format_3dp(0.0) == "0.000"

    def test_half_up_rounding(self):
        assert format_3dp(0.0005) == "0.001"
        assert format_3dp(1.2345) == "1.235"
        assert format_3dp(2.6665) == "2.667"

    def test_period_decimal_separator(self):
        assert "." in format_3dp(1234.5678)
        assert "," not in format_3dp(1234.5678)

    def test_infinite_statistic(self):
        assert format_3dp(float("inf")) == "inf"


class TestTableFormats:
    def setup_method(self):
        self.results = [result(1, 18.390, 0.0001), result(2, 5.704, 0.004),
                        result(3, 2.195, 0.089)]

    def test_latex_structure(self):
        text = render_granger_table(self.results, "latex")
        assert text.startswith("\\begin{tabular}{rrl}\n\\toprule\n"
                               "Lag & F-stat & p-value \\\\\n\\midrule")
        assert "1 & 18.390 & 0.000*** \\\\" in text
        assert "2 & 5.704 & 0.004*** \\\\" in text
        assert "3 & 2.195 & 0.089* \\\\" in text
        assert text.rstrip().endswith("\\bottomrule\n\\end{tabular}")

    def test_markdown_structure(self):
        text = render_granger_table(self.results, "markdown")
        assert text.splitlines()[0] == "| Lag | F-stat | p-value |"
        assert "| 1 | 18.390 | 0.000*** |" in text

    def test_rows_sorted_by_lag(self):
        text = render_granger_table(list(reversed(self.results)), "markdown")
        lines = text.strip().splitlines()[2:]
        assert [line.split(" | ")[0] for line in lines] == ["| 1", "| 2", "| 3"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_granger_table(self.results, "html")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_granger_table([], "latex")

    def test_stars_agree_with_result_field(self):
        for r in self.results:
            assert render_granger_row(r).endswith(r.stars) or not r.stars

    def test_grid_contains_each_backend(self):
        sweeps = {"modelA": self.results, "modelB": self.results}
        tex = render_granger_grid(sweeps, "Comparison", "latex")
        assert "\\textbf{modelA}" in tex and "\\textbf{modelB}" in tex
        assert tex.count("\\begin{tabular}{rrl}") == 2
        md = render_granger_grid(sweeps, "Comparison", "markdown")
        assert "### modelA" in md and "### modelB" in md

    def test_grid_escapes_underscores_in_latex_headers(self):
        sweeps = {"lex_base": self.results, "mock": self.results}
        tex = render_granger_grid(sweeps, "Comparison", "latex")
        assert "\\textbf{lex\\_base}" in tex
        assert re.search(r"(?<!\\)_", tex) is None
        assert "### lex_base" in render_granger_grid(sweeps, "Comparison", "markdown")

    def test_csv_export_rows(self):
        rows = granger_csv_rows("modelA", "standard", self.results)
        assert rows[0] == "backend,index_kind,lag,f_stat,p_value,stars"
        assert rows[1].startswith("modelA,standard,1,18.39,")
        assert rows[1].endswith("***")


def synthetic_points(n=24, start=MonthKey(2020, 1), seed=3):
    rng = random.Random(seed)
    points = []
    for i in range(n):
        month = start.plus(i)
        counts = MonthlyCounts(month=month, alpha=10 + i, beta=5, gamma=5, excluded=1)
        points.append(IndexPoint(
            month=month,
            wsi_standard=rng.uniform(-50, 50),
            wsi_weighted=rng.uniform(-50, 50),
            counts=counts,
        ))
    return points


class TestSeriesChart:
    def test_structure(self):
        points = synthetic_points()
        yoy = {p.month: 1.0 + 0.1 * i for i, p in enumerate(points)}
        svg = render_series_chart(points, yoy)
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == 3
        for name in ("standard", "weighted", "yoy"):
            assert f'class="{name}"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_byte_determinism(self):
        points = synthetic_points()
        yoy = {p.month: 0.5 * i for i, p in enumerate(points)}
        assert render_series_chart(points, yoy) == render_series_chart(points, yoy)

    def test_single_month_rejected(self):
        points = synthetic_points(1)
        with pytest.raises(ChartError):
            render_series_chart(points, {points[0].month: 1.0})

    def test_empty_overlap_rejected(self):
        points = synthetic_points(5)
        yoy = {MonthKey(1990, 1).plus(i): 1.0 for i in range(5)}
        with pytest.raises(ChartError):
            render_series_chart(points, yoy)

    def test_flat_growth_still_renders(self):
        points = synthetic_points(6)
        yoy = {p.month: 2.0 for p in points}
        svg = render_series_chart(points, yoy)
        assert svg.count("<polyline") == 3


class TestSummarizeCorpus:
    def test_judgment_counts(self):
        records = [make_record(judgment=Judgment.GOOD)] * 3 + [
            make_record(judgment=Judgment.BAD)] * 2
        summary = summarize_corpus(Corpus.from_records(records))
        assert summary.by_judgment == {"Good": 3, "Bad": 2}
        assert summary.judgment_csv() == "judgment,count\nGood,3\nBad,2\n"

    def test_empty_corpus(self):
        summary = summarize_corpus(Corpus.from_records([]))
        assert summary.judgment_csv() == "judgment,count\n"
        assert summary.region_csv() == "region,count\n"
        assert summary.month_csv() == "yyyymm,count\n"

    def test_counts_match_brute_force_tally(self):
        rng = random.Random(8)
        judgments = list(Judgment)
        records = [
            make_record(
                month=MonthKey(2020, rng.randint(1, 12)),
                region=rng.choice(["Kanto", "Tokai", "Kansai"]),
                judgment=rng.choice(judgments),
            )
            for _ in range(500)
        ]
        summary = summarize_corpus(Corpus.from_records(records))
        assert sum(summary.by_judgment.values()) == 500
        assert sum(summary.by_region.values()) == 500
        assert sum(summary.by_month.values()) == 500
        for region in ("Kanto", "Tokai", "Kansai"):
            assert summary.by_region[region] == sum(
                1 for r in records if r.region == region)
        for j in judgments:
            expected = sum(1 for r in records if r.judgment is j)
            assert summary.by_judgment.get(j.value, 0) == expected


class TestReportBundle:
    def test_validate_requires_sweep_or_failure(self):
        points = synthetic_points(3)
        bundle = ReportBundle(
            run_id="x", metadata={}, series={"m": points}, sweeps={}, failures={})
        with pytest.raises(ValueError):
            bundle.validate()
        bundle.failures["m"] = {"reason": "too short"}
        bundle.validate()

    def test_validate_accepts_per_kind_failure_keys(self):
        points = synthetic_points(3)
        bundle = ReportBundle(
            run_id="x", metadata={}, series={"m": points}, sweeps={},
            failures={"m_standard": {"reason": "too short"},
                      "m_weighted": {"reason": "too short"}})
        bundle.validate()
