"""Golden bytes: a fixed small corpus must keep its run id and artifacts.

The corpus is built from arithmetic alone (no random generator), so the
inputs have the same bytes on every platform. Ingest, keyword classify and
index run on it, and the run id plus the sha256 of every artifact those
stages write are pinned. The lexicon and Granger files are left out: their
last bits depend on the BLAS build.
"""

import hashlib

from wsi.pipeline import BackendConfig, RunConfig, StagedRun, compute_run_id
from wsi.pipeline import stage_classify, stage_index, stage_ingest

TEMPLATES = (
    "wages were raised at the plant",
    "the winter bonus was cut, again",
    'staff said "pay is flat" this month',
    "  customers came back, sales rose  ",
    "part-time salaries increased\nafter the new contract",
    "賃上げの動きが広がっている",
    "overtime pay reduced; hiring paused",
    "no comment on wages",
)
REGIONS = ("Kanto", "Tokai", " Kansai ", "Kyushu, south")
INDUSTRIES = ("retail", "food service", "transport")
JUDGMENTS = ("Good", "bad", "Slightly_Bad", "yaya warui", " UNCHANGED ", "Excellent")
MONTHS = [f"{2018 + i // 12}{i % 12 + 1:02d}" for i in range(30)]


def _cell(text):
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _rows(month_index, per_month):
    for i in range(per_month):
        k = month_index * 7 + i * 3
        yield [MONTHS[month_index], REGIONS[k % len(REGIONS)],
               INDUSTRIES[(k // 2) % len(INDUSTRIES)], JUDGMENTS[(k // 3) % len(JUDGMENTS)],
               TEMPLATES[(k + month_index // 5) % len(TEMPLATES)]]


def write_inputs(root):
    """Three survey files (months out of order across them, one carrying
    ``comment_translated``, with rejected and empty rows) and a wage file."""
    surveys = root / "surveys"
    surveys.mkdir(parents=True)
    header = "yyyymm,region,industry,judgment,comment"
    late = [header] + [",".join(map(_cell, row)) for m in range(15, 30) for row in _rows(m, 9)]
    late += ["2020-13,Kanto,retail,Good,bad month", "201901,Kanto,retail,Stellar,unknown label",
             "201902,Kanto,retail,Good,   "]
    early = [header] + [",".join(map(_cell, row)) for m in range(0, 10) for row in _rows(m, 8)]
    translated = [header + ",comment_translated"]
    for m in range(10, 15):
        for j, row in enumerate(_rows(m, 10)):
            translated.append(",".join(map(_cell, row + [f"translated {j}" if j % 3 else ""])))
    translated.append("201811,Tokai,retail,Good,wages were raised at the plant,other words")
    for name, lines in (("a_late.csv", late), ("b_early.csv", early), ("c_mid.csv", translated)):
        (surveys / name).write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    wages = ["yyyymm,level"]
    level = 100.0
    for i in range(42):
        level *= 1.0 + ((i * 37) % 11 - 3) / 1000.0
        wages.append(f"{2017 + i // 12}{i % 12 + 1:02d},{level!r}")
    (root / "wages.csv").write_text("\n".join(wages) + "\n", encoding="utf-8")


GOLDEN_RUN_ID = "fde35cbefd71a31a"
GOLDEN = {
    "series/mock.csv": "9e5bfafb1a24f6e7dbc565834060682ffb49f21533ce92b6f417ac47f6abf462",
    "stages/classified/mock.csv":
        "a041521cd09db05d2a8c670b651d7d723007b6526485ae11e96ed4f657d7433f",
    "stages/classify.json": "aabe63232b2b5be5a145c48f1e9b7dcc8b2c94e4ffecbaf7383fa4a258be6d21",
    "stages/index.json": "a0f263ba1e792fdaea3b1dad40bf3e4d9b6f05820fd2693f81d51e767c2f4779",
    "stages/ingest.json": "2f18a48ecd8172426693396dd72338147d0d52754caff02e962f09bf2b760ea4",
    "stages/records.csv": "29461bc67f8836010d3a2faef37ed8240c1519feed8f45f133de6579f07ea218",
    "stages/wages.csv": "f0b9f5c6ffab933615f4ee1eebf8304667d31363303cfa4b233d74fd096cd56f",
    "summary/judgment.csv": "0b07e75faf659caeabcd099b4e3dd94116cb7c284dc3e013dc7228ae4202ebe1",
    "summary/month.csv": "a1098554acffe87091d86eaaa50ebbaf3e76b533972e3e5e3ef3f6feae6e2eb2",
    "summary/region.csv": "3b905bbee63ffc5bbfdc9fedd5e4bbaa5916dffd09e464fa8e49889f9ac54aa2",
}


def test_ingest_classify_index_keep_their_bytes(tmp_path):
    write_inputs(tmp_path / "data")
    config = RunConfig(
        survey_paths=[str(tmp_path / "data" / "surveys")],
        wage_path=str(tmp_path / "data" / "wages.csv"),
        backends=[BackendConfig(backend_id="mock", kind="keyword")],
        max_lag=4, output_dir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"),
        seed=3)
    staged = StagedRun(config, compute_run_id(config))
    stage_ingest(config, staged=staged)
    stage_classify(config, staged=staged)
    stage_index(config, staged=staged)
    digests = {str(p.relative_to(staged.out)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(staged.out.rglob("*")) if p.is_file()}
    assert staged.run_id == GOLDEN_RUN_ID
    assert digests == GOLDEN
