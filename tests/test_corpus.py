import csv
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wsi.corpus import (
    SURVEY_COLUMNS,
    TRANSLATED_COLUMN,
    Corpus,
    Judgment,
    LoadError,
    MonthKey,
    RowError,
    SurveyLoad,
    SurveyRecord,
    group_by_month,
    load_surveys,
    load_wages,
    month_range,
    resolve_judgment,
    write_survey,
    write_wages,
    WageSeries,
)

from conftest import make_record


months = st.builds(MonthKey, st.integers(1900, 2100), st.integers(1, 12))


class TestMonthKey:
    def test_parse_compact_and_dashed(self):
        assert MonthKey.parse("200001") == MonthKey(2000, 1)
        assert MonthKey.parse("2000-01") == MonthKey(2000, 1)
        assert MonthKey.parse(" 2024-12 ") == MonthKey(2024, 12)
        assert MonthKey.parse("9999-12") == MonthKey(9999, 12)

    # a five-digit year: ``str`` writes four year digits, so it would not read back
    @pytest.mark.parametrize("bad", ["2000-13", "200013", "2000", "abc", "2000-0", "",
                                     "12000-01", "10000-12"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            MonthKey.parse(bad)

    def test_ordering_is_lexicographic(self):
        assert MonthKey(2019, 12) < MonthKey(2020, 1) < MonthKey(2020, 2)

    def test_minus_crosses_year_boundary(self):
        assert MonthKey(2020, 1).minus(1) == MonthKey(2019, 12)
        assert MonthKey(2020, 3).minus(12) == MonthKey(2019, 3)
        assert MonthKey(2020, 1).minus(25) == MonthKey(2017, 12)

    @given(months, st.integers(0, 500))
    def test_plus_minus_roundtrip(self, month, k):
        assert month.plus(k).minus(k) == month

    @given(months, st.integers(1, 500))
    def test_minus_moves_strictly_back(self, month, k):
        assert month.minus(k) < month

    def test_str_is_canonical(self):
        assert str(MonthKey(2020, 3)) == "202003"

    def test_month_range(self):
        span = month_range(MonthKey(2019, 11), MonthKey(2020, 2))
        assert [str(m) for m in span] == ["201911", "201912", "202001", "202002"]


def _write_csv(path, rows, header="yyyymm,region,industry,judgment,comment"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


class TestLoadSurvey:
    def test_three_well_formed_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, [
            "202002,Kanto,retail,Good,sales rose",
            "202001,Tokai,food service,Bad,bonus was cut",
            "202001,Kansai,transport,Unchanged,no change in pay",
        ])
        load = load_surveys([path])
        assert len(load.records) == 3
        assert not load.errors and load.skipped_empty == 0
        assert [str(r.month) for r in load.records] == ["202001", "202001", "202002"]
        # input order preserved within the month
        assert load.records[0].region == "Tokai"

    def test_invalid_month_rejects_row_only(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, [
            "202001,Kanto,retail,Good,fine",
            "2000-13,Kanto,retail,Good,bad month",
            "202002,Kanto,retail,Good,also fine",
        ])
        load = load_surveys([path])
        assert len(load.records) == 2
        assert len(load.errors) == 1
        assert load.errors[0].reason == "invalid month"
        assert load.errors[0].line == 3

    def test_five_digit_year_rejects_row_only(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, [
            "2020-01,Kanto,retail,Good,fine",
            "12020-01,Kanto,retail,Good,five-digit year",
        ])
        load = load_surveys([path])
        assert [str(m) for m in load.corpus.months] == ["202001"]
        assert load.errors == [RowError(str(path), 3, "invalid month")]

    def test_five_digit_year_fails_the_wage_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("yyyymm,level\n12020-01,100\n12020-02,101\n")
        with pytest.raises(LoadError, match="w.csv:2: invalid month: '12020-01'"):
            load_wages(path)

    def test_unknown_judgment_rejects_row(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, ["202001,Kanto,retail,Stellar,fine"])
        load = load_surveys([path])
        assert not load.records
        assert load.errors[0].reason == "unknown judgment"

    def test_judgment_label_variants(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, [
            "202001,Kanto,retail,slightly_bad,a",
            "202001,Kanto,retail,SLIGHTLY BAD,b",
            "202001,Kanto,retail,yaya warui,c",
        ])
        load = load_surveys([path])
        assert [r.judgment for r in load.records] == [Judgment.SLIGHTLY_BAD] * 3

    def test_empty_comment_skipped_with_count(self, tmp_path):
        path = tmp_path / "a.csv"
        _write_csv(path, [
            "202001,Kanto,retail,Good,   ",
            "202001,Kanto,retail,Good,real comment",
        ])
        load = load_surveys([path])
        assert len(load.records) == 1
        assert load.skipped_empty == 1

    def test_missing_file_is_hard_error(self, tmp_path):
        with pytest.raises(LoadError):
            load_surveys([tmp_path / "nope.csv"])

    def test_missing_column_is_hard_error(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("yyyymm,region\n202001,Kanto\n")
        with pytest.raises(LoadError):
            load_surveys([path])

    def test_concatenated_files_match_line_count_oracle(self, tmp_path):
        rng = random.Random(42)
        paths = []
        expected = 0
        for i in range(25):
            rows = []
            for j in range(rng.randint(1, 40)):
                rows.append(f"20{10 + i // 12:02d}{i % 12 + 1:02d},R{j % 3},ind,Good,comment {i} {j}")
            path = tmp_path / f"f{i:03d}.csv"
            _write_csv(path, rows)
            # oracle: raw line count minus the header line
            expected += len(path.read_text().strip().splitlines()) - 1
            paths.append(path)
        load = load_surveys(paths)
        assert len(load.records) == expected

    def test_round_trip(self, tmp_path):
        records = [
            make_record(MonthKey(2020, 1), "pay went up, happily", translated="PAY WENT UP"),
            make_record(MonthKey(2020, 2), 'she said "bonus"', judgment=Judgment.GOOD),
        ]
        path = tmp_path / "out.csv"
        write_survey(records, path)
        reloaded = load_surveys([path])
        assert reloaded.records == records


def _dictreader_load_survey(path):
    """Reference: ``load_surveys([path])`` on ``csv.DictReader``, one parse per row."""
    month_col, region_col, industry_col, judgment_col, comment_col = SURVEY_COLUMNS
    path = Path(path)
    records, errors, skipped_empty = [], [], 0
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise LoadError(f"empty survey file: {path}")
        required = [month_col, region_col, industry_col, judgment_col, comment_col]
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise LoadError(f"{path}: missing columns {missing}")
        has_translated = TRANSLATED_COLUMN in reader.fieldnames
        for lineno, row in enumerate(reader, start=2):
            try:
                month = MonthKey.parse(row[month_col] or "")
            except ValueError:
                errors.append(RowError(str(path), lineno, "invalid month"))
                continue
            judgment = resolve_judgment(row[judgment_col] or "")
            if judgment is None:
                errors.append(RowError(str(path), lineno, "unknown judgment"))
                continue
            comment = (row[comment_col] or "").strip()
            if not comment:
                skipped_empty += 1
                continue
            translated = row.get(TRANSLATED_COLUMN) if has_translated else None
            if translated is not None:
                translated = translated or None
            records.append(SurveyRecord(
                month=month, region=(row[region_col] or "").strip(),
                industry=(row[industry_col] or "").strip(), judgment=judgment,
                comment=comment, comment_translated=translated))
    records.sort(key=lambda r: r.month)
    return SurveyLoad(Corpus.from_records(records), errors, skipped_empty)


def _outcome(load, path):
    """Records, errors and skip count of ``load(path)``, or the LoadError it raised."""
    try:
        result = load(path)
    except LoadError as exc:
        return ("LoadError", str(exc))
    return (result.records, result.errors, result.skipped_empty)


def _csv_text(rows):
    """``rows`` as csv.writer writes them; an empty row is a blank line."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


COLUMNS = ["yyyymm", "region", "industry", "judgment", "comment", "comment_translated", "note"]
CELLS = st.one_of(
    st.sampled_from(["202001", "2020-02", " 202003 ", "201912", "202013", "20201", "2020-1x",
                     "", "abc"]),
    st.sampled_from(["Good", "bad", "Slightly_Bad", "yaya warui", " UNCHANGED ", "Stellar"]),
    st.text(alphabet=st.sampled_from(list('ab ,"-\n\r\t')), max_size=8),
)


class TestFastRowParser:
    """``load_surveys`` reads exactly what a ``csv.DictReader`` reads."""

    @given(header=st.lists(st.sampled_from(COLUMNS), max_size=9),
           rows=st.lists(st.lists(CELLS, max_size=9), max_size=12))
    def test_matches_dictreader_reference(self, tmp_path_factory, header, rows):
        path = tmp_path_factory.mktemp("survey") / "s.csv"
        path.write_text(_csv_text([header] + rows), encoding="utf-8")
        outcome = _outcome(load_surveys, [path])
        assert outcome == _outcome(_dictreader_load_survey, path)
        if outcome[0] != "LoadError":
            merged = sorted(outcome[0] * 2, key=lambda r: r.month)
            assert load_surveys([path, path]).records == merged

    @pytest.mark.parametrize("text", [
        # blank lines anywhere: skipped, not numbered
        "yyyymm,region,industry,judgment,comment\n\n202001,K,r,Good,a\n\n\n2020x,K,r,Good,b\n",
        # a short row reads its missing fields as empty, a long row drops the extra ones
        "yyyymm,region,industry,judgment,comment\n202001,K,r,Good\n202001,K,r,Good,a,x,y\n"
        "202001,K\n202002\n",
        # a duplicated column name reads its last column, or empty past the row's end
        "yyyymm,comment,region,industry,judgment,comment\n202001,first,K,r,Good,last\n"
        "202001,first,K,r,Good\n",
        # quoted fields span lines and count as one row
        'yyyymm,region,industry,judgment,comment\n202001,K,r,Good,"two\nlines"\n'
        '202001,"K\n",r,Good,"a, ""quoted"" comma"\n2020-13,K,r,Good,bad month\n',
        # bad months, unknown labels and empty comments, each with its line number
        "yyyymm,region,industry,judgment,comment\n2020-13,K,r,Good,a\n202001,K,r,Stellar,b\n"
        "202001,K,r,Good,   \n,K,r,Good,c\n202001,K,r,,d\n202001,K,r,yaya yoi,e\n",
        # an empty comment_translated reads as untranslated; a filled one is kept
        "yyyymm,region,industry,judgment,comment,comment_translated\n"
        "202001,K,r,Good,a,\n202001,K,r,Good,b,B\n202001,K,r,Good,c\n",
        # header problems stay hard errors with the same messages
        "",
        "\nyyyymm,region,industry,judgment,comment\n202001,K,r,Good,a\n",
        "yyyymm,region,judgment\n202001,K,Good\n",
    ], ids=["blank-lines", "short-and-long-rows", "duplicated-header", "quoted-newlines",
            "row-errors", "empty-translation", "empty-file", "blank-header", "missing-columns"])
    def test_fixed_cases_match_dictreader_reference(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(load_surveys, [path]) == _outcome(_dictreader_load_survey, path)

    def test_fixed_cases_read_what_they_say(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("yyyymm,comment,region,industry,judgment,comment,comment_translated\n"
                        "\n202001,first,K,r,Good,last,\n202001,first,K,r,Good\n"
                        "2020-13,x,K,r,Good,y\n", encoding="utf-8")
        load = load_surveys([path])
        assert [(r.comment, r.comment_translated) for r in load.records] == [("last", None)]
        assert load.skipped_empty == 1
        assert load.errors == [RowError(str(path), 4, "invalid month")]


class TestWages:
    def test_yoy_trivials(self, tmp_path):
        rows = ["yyyymm,level"]
        start = MonthKey(2019, 1)
        for i in range(13):
            level = 100.0 if i < 12 else 102.0
            rows.append(f"{start.plus(i)},{level}")
        path = tmp_path / "w.csv"
        path.write_text("\n".join(rows) + "\n")
        series = load_wages(path)
        assert series.yoy_map[MonthKey(2020, 1)] == pytest.approx(2.0)
        assert MonthKey(2019, 12) not in series.yoy_map

    def test_flat_series_has_zero_growth(self):
        levels = {MonthKey(2019, 1).plus(i): 100.0 for i in range(13)}
        assert WageSeries(levels).yoy_map[MonthKey(2020, 1)] == 0.0

    def test_short_series_has_empty_yoy(self):
        levels = {MonthKey(2020, 1).plus(i): 100.0 + i for i in range(12)}
        assert WageSeries(levels).yoy_map == {}

    def test_gap_is_hard_error_naming_month(self):
        levels = {MonthKey(2020, 1): 100.0, MonthKey(2020, 3): 101.0}
        with pytest.raises(LoadError, match="202002"):
            WageSeries(levels)

    def test_non_positive_level_is_hard_error(self):
        with pytest.raises(LoadError, match="non-positive"):
            WageSeries({MonthKey(2020, 1): 0.0})

    @pytest.mark.parametrize("level", ["inf", "1e309", "-inf", "nan"])
    def test_non_finite_level_is_hard_error(self, tmp_path, level):
        path = tmp_path / "w.csv"
        path.write_text(f"yyyymm,level\n202001,100\n202002,{level}\n")
        with pytest.raises(LoadError, match="non-finite wage level at 202002"):
            load_wages(path)

    def test_duplicate_month_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("yyyymm,level\n202001,100\n202001,101\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_wages(path)

    def test_yoy_matches_brute_force_recompute(self):
        rng = random.Random(7)
        start = MonthKey(2000, 1)
        levels = {start.plus(i): 80.0 + 40.0 * rng.random() for i in range(60)}
        yoy = WageSeries(levels).yoy_map
        # independent spreadsheet-style recomputation
        for i in range(12, 60):
            t = start.plus(i)
            expected = (levels[t] / levels[t.minus(12)] - 1.0) * 100.0
            assert yoy[t] == pytest.approx(expected, abs=1e-12)
        assert len(yoy) == 48

    @given(st.floats(0.01, 1000.0))
    def test_yoy_invariant_under_uniform_scaling(self, c):
        rng = random.Random(3)
        start = MonthKey(2000, 1)
        levels = {start.plus(i): 90.0 + 20.0 * rng.random() for i in range(26)}
        base = WageSeries(levels)
        scaled = WageSeries({m: v * c for m, v in levels.items()}).yoy_map
        for m, g in base.yoy_map.items():
            assert scaled[m] == pytest.approx(g, abs=1e-12)

    def test_write_wages_round_trip(self, tmp_path):
        levels = {MonthKey(2020, 1).plus(i): 100.0 + 0.37 * i for i in range(15)}
        path = tmp_path / "w.csv"
        write_wages(levels, path)
        assert load_wages(path).levels == pytest.approx(levels)


class _Unprintable:
    def __str__(self):
        raise RuntimeError("interrupted")


def write_survey_reference(records, path):
    """The row-by-row writer ``write_survey`` must agree with, byte for byte."""
    include_translated = any(r.comment_translated is not None for r in records)
    header = [*SURVEY_COLUMNS, TRANSLATED_COLUMN] if include_translated else SURVEY_COLUMNS
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            row = [str(r.month), r.region, r.industry, r.judgment.value, r.comment]
            if include_translated:
                row.append(r.comment_translated or "")
            writer.writerow(row)


# commas, quotes, CR/LF and leading or trailing spaces, the cells csv quotes
FIELDS = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t-é')), max_size=8)
RECORDS = st.builds(SurveyRecord, months, FIELDS, FIELDS, st.sampled_from(list(Judgment)),
                    FIELDS, st.one_of(st.none(), st.just(""), FIELDS))


class TestWriteSurvey:
    @given(records=st.lists(RECORDS, max_size=20), translated=st.booleans())
    def test_matches_the_row_by_row_reference(self, tmp_path_factory, records, translated):
        if not translated:  # no comment_translated column at all
            records = [SurveyRecord(r.month, r.region, r.industry, r.judgment, r.comment)
                       for r in records]
        root = tmp_path_factory.mktemp("write")
        write_survey(records, root / "columns.csv")
        write_survey_reference(records, root / "reference.csv")
        assert (root / "columns.csv").read_bytes() == (root / "reference.csv").read_bytes()
        write_survey(Corpus.from_records(records), root / "corpus.csv")
        assert (root / "corpus.csv").read_bytes() == (root / "reference.csv").read_bytes()

    @given(header=st.lists(st.sampled_from(COLUMNS), max_size=9),
           rows=st.lists(st.lists(CELLS, max_size=9), max_size=12))
    def test_load_then_write_round_trip(self, tmp_path_factory, header, rows):
        root = tmp_path_factory.mktemp("round")
        (root / "in.csv").write_text(_csv_text([header] + rows), encoding="utf-8")
        try:
            load = load_surveys([root / "in.csv"])
        except LoadError:
            return
        write_survey(load.corpus, root / "out.csv")
        write_survey_reference(load.records, root / "reference.csv")
        assert (root / "out.csv").read_bytes() == (root / "reference.csv").read_bytes()
        assert load_surveys([root / "out.csv"]).records == load.records

    def test_one_comment_with_two_loaded_translations_keeps_both(self, tmp_path):
        path = tmp_path / "s.csv"
        _write_csv(path, ["202001,K,r,Good,x,one", "202001,K,r,Good,x,two",
                          "202001,K,r,Good,x,one"], header=",".join(
                              [*SURVEY_COLUMNS, TRANSLATED_COLUMN]))
        corpus = load_surveys([path]).corpus
        assert corpus.comments == ["x", "x"] and corpus.translations == ["one", "two"]
        assert corpus.text_ids == [0, 1, 0]
        write_survey(corpus, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == path.read_bytes().replace(b"\n", b"\r\n")


class TestByteOrderMark:
    def test_survey_with_a_bom_loads_as_without(self, tmp_path):
        text = ("yyyymm,region,industry,judgment,comment,comment_translated\n"
                "202002,Kanto,retail,Good,賃上げ,wage rise\n202001,Tokai,food,Bad,cut,\n")
        (tmp_path / "plain.csv").write_bytes(text.encode("utf-8"))
        (tmp_path / "bom.csv").write_bytes(text.encode("utf-8-sig"))
        plain = load_surveys([tmp_path / "plain.csv"])
        with_bom = load_surveys([tmp_path / "bom.csv"])
        assert with_bom.records == plain.records and len(plain.records) == 2
        assert (with_bom.errors, with_bom.skipped_empty) == ([], 0)

    def test_wages_with_a_bom_load_as_without(self, tmp_path):
        text = "yyyymm,level\n202001,100.0\n202002,101.5\n"
        (tmp_path / "plain.csv").write_bytes(text.encode("utf-8"))
        (tmp_path / "bom.csv").write_bytes(text.encode("utf-8-sig"))
        assert load_wages(tmp_path / "bom.csv") == load_wages(tmp_path / "plain.csv")


class TestCorpus:
    def test_records_are_sorted_by_month_with_text_ids_by_first_appearance(self, tmp_path):
        _write_csv(tmp_path / "b.csv", ["202002,K,r,Good,late", "202001,K,r,Good,early"])
        _write_csv(tmp_path / "a.csv", ["202001,T,r,Bad,late", "202003,K,r,Good,early"])
        corpus = load_surveys([tmp_path / "b.csv", tmp_path / "a.csv"]).corpus
        assert [(str(r.month), r.comment) for r in corpus.records()] == [
            ("202001", "early"), ("202001", "late"), ("202002", "late"), ("202003", "early")]
        assert corpus.comments == ["early", "late"] and corpus.text_ids == [0, 1, 1, 0]
        assert [(str(m), (s.start, s.stop)) for m, s in corpus.month_slices()] == [
            ("202001", (0, 2)), ("202002", (2, 3)), ("202003", (3, 4))]

    def test_month_slices_need_month_order(self):
        corpus = Corpus.from_records([make_record(MonthKey(2020, 2)),
                                      make_record(MonthKey(2020, 1))])
        with pytest.raises(ValueError, match="month order"):
            corpus.month_slices()

    def test_a_rejected_rows_month_has_no_slice(self, tmp_path):
        _write_csv(tmp_path / "a.csv", ["202001,K,r,Stellar,x", "202002,K,r,Good,y"])
        corpus = load_surveys([tmp_path / "a.csv"]).corpus
        assert [str(m) for m, _ in corpus.month_slices()] == ["202002"]


class TestInterruptedWrites:
    """A write that fails part-way keeps the previous file and leaves no temp file."""

    def test_write_survey(self, tmp_path):
        path = tmp_path / "stages" / "records.csv"
        write_survey([make_record(comment="the old file")], path)
        old = path.read_bytes()
        records = [make_record(comment=f"row {i}") for i in range(500)]
        records.append(make_record(month=_Unprintable()))
        with pytest.raises(RuntimeError, match="interrupted"):
            write_survey(records, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in path.parent.iterdir()) == ["records.csv"]

    def test_write_wages(self, tmp_path):
        path = tmp_path / "stages" / "wages.csv"
        write_wages({MonthKey(2020, 1): 100.0}, path)
        old = path.read_bytes()
        levels = {MonthKey(2020, 1).plus(i): 100.0 + i for i in range(500)}
        levels[MonthKey(2030, 1)] = "not a level"
        with pytest.raises(ValueError):
            write_wages(levels, path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in path.parent.iterdir()) == ["wages.csv"]


def group_by_month_reference(records):
    """The plain dict partition ``group_by_month`` must agree with."""
    groups = {}
    for record in records:
        groups.setdefault(record.month, []).append(record)
    return {m: groups[m] for m in sorted(groups)}


class TestGroupByMonth:
    @given(st.lists(st.integers(0, 5), max_size=60), st.randoms(use_true_random=False))
    def test_matches_the_dict_reference_in_any_order(self, month_offsets, rng):
        records = [make_record(MonthKey(2020, 1).plus(k), f"comment {i}")
                   for i, k in enumerate(month_offsets)]
        for order in (sorted(records, key=lambda r: r.month),
                      rng.sample(records, len(records))):
            assert list(group_by_month(order).items()) == \
                list(group_by_month_reference(order).items())

    def test_empty(self):
        assert group_by_month([]) == {}

    def test_two_months_partition(self):
        records = [
            make_record(MonthKey(2020, 1), "a"),
            make_record(MonthKey(2020, 2), "b"),
            make_record(MonthKey(2020, 1), "c"),
        ]
        groups = group_by_month(records)
        assert [str(m) for m in groups] == ["202001", "202002"]
        assert sum(len(v) for v in groups.values()) == len(records)
        assert [r.comment for r in groups[MonthKey(2020, 1)]] == ["a", "c"]

    def test_shuffled_input_same_group_membership(self):
        rng = random.Random(5)
        records = [
            make_record(MonthKey(2020, 1 + i % 4), f"comment {i}") for i in range(40)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        a = group_by_month(records)
        b = group_by_month(shuffled)
        assert set(a) == set(b)
        for month in a:
            assert sorted(r.comment for r in a[month]) == sorted(r.comment for r in b[month])
