"""Golden bytes: a fixed small corpus must keep its run id and artifacts.

The corpus is built from arithmetic alone (no random generator), so the
inputs have the same bytes on every platform. Ingest, keyword classify and
index run on it, and the run id plus the sha256 of every artifact those
stages write are pinned. The lexicon and Granger files are left out: their
last bits depend on the BLAS build.

The files ``wsi synth`` writes are pinned too: numpy's generator streams
are the same on every platform, so a change to how the generator draws
shows here as a changed digest.
"""

import hashlib

import pytest

from wsi.pipeline import BackendConfig, RunConfig, StagedRun, compute_run_id
from wsi.pipeline import stage_classify, stage_index, stage_ingest
from wsi.synthetic import SyntheticSpec, generate_synthetic

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


# ``wsi synth``'s files, as ``sha256sum`` lists them, for two (spec, seed)
# pairs: the CI demo's and a small one. They pin the generator's draws.
SYNTH_GOLDEN = {
    (36, 20, 1): """\
22e532dc14953491dba61dc0c0fd9c8e741ba19a4bf801c32cdc0763ae28d8f4  surveys/200001.csv
0010a0955726aec2eb7bea3fce3a12c89499eaa9fbbf7fdc113e0e00612e8828  surveys/200002.csv
9527532fbb317e4c1040c3c327b975c9f032231c881addf2c3d28fcdf518399a  surveys/200003.csv
e783050acdfd45c1feb6244bdd7d1f13413f22608f36dd25a308c3163caec441  surveys/200004.csv
60ba13b2e31beb57cf66bcf5d99c553261e25361d88261a79575cb6d19b528c9  surveys/200005.csv
c282eb3f1dda4701cb8bb6dbf905d2f37b42c2a315e75535c36abf7dd730b600  surveys/200006.csv
abff54615f7c2e47126511486cc6e2c5266acf78529c5065bbabbc88c2934680  surveys/200007.csv
5da813bf2de5c8450f4ef9024f741f3d6799f9a168b5d8646f33c21b6816b11c  surveys/200008.csv
0935b5b8f62d3ae9cce419a0bfb90bcfdc2b554488287ac4c1c433ca845fee1b  surveys/200009.csv
313c88899349b0ad4abcda7b1c8825422b9f9e8e285d66236d6ec8cbd7f3b548  surveys/200010.csv
de7d901c064b0cd2807f53dc9ceb96b4c9f6dd05d2b6b21021b515787aaa7551  surveys/200011.csv
81e3e40b609a51e09898f83fb983326d2bc4f84d9bedf340b7b5c93012a841e7  surveys/200012.csv
e01dadb5ce321beef3c5d2cb797c81b2beede28d52e9e5de7b2f79a52a68b4b5  surveys/200101.csv
530a0b59b7263374cd2c760b04027dc5eed20221caef7a7f6dd701126472a823  surveys/200102.csv
138346a8f2d84a175e051ab6c44423fc468ffabf5122ff44a2a1572be3e22c92  surveys/200103.csv
5bc893167b5009bedd3ad6c301d50029c23b79d57dac0646ef13e93fe676aecb  surveys/200104.csv
b6650d4f6c7db623dfb525830ab24476c62988c639f5994bb59cc6daea971947  surveys/200105.csv
bab3e4726aa0ce19ea1d036afbf2caffa3c08b983e9e425432278ffba5ce3954  surveys/200106.csv
659751c8002703885b6f1d7cf0b5ea03151d2dd0728fa89ae593e02e503ece81  surveys/200107.csv
97f9ef9d0d158f935adc455371eeba4b1e81beccd06304162e575c3cbea79041  surveys/200108.csv
f0615c08348b059ab15bf6e22bb2d26c026f28beb7a43b513e4dd9be3ab723af  surveys/200109.csv
cf40e43852cf2a7961a59c97da7632bfc78d4e702ea0000c168e68daa9b1ecec  surveys/200110.csv
9014aeb24dabbab74030536fe7d92884ada3ea950575828bfc44ce0bdf6d9b0d  surveys/200111.csv
575f091dd0effefc12b7734451d858d259be5440404c7ef2259814bedf6f87b8  surveys/200112.csv
21849d1a5edf214e24096e5302a3f9164c68e09130889fdd62541b68684b20c8  surveys/200201.csv
6ae70836c7d731c8cd2c82ed3d3ef343714c52a2f23e06f7a760ce6c06cd4417  surveys/200202.csv
debfefdc57a1f6f5c3cfb67ed2d38e418c55d4b6aff369542a13d507f098e9f1  surveys/200203.csv
47782389662596e5b48e586a4b7881658e9e79c64298e846e550f56cd7a4d206  surveys/200204.csv
07f8b0f391e35d5f7839a5c2e0d169ff18fcd5f7f8055248626ffbea7bfe7534  surveys/200205.csv
2add52b9ddf930c9f146efe35ea02330d60bfda259be739e0863947bdd9a8f81  surveys/200206.csv
b930588c3901bf1225b675bafdf541466655e2419027d5eb5fc564e313aa3af5  surveys/200207.csv
6a334e795db4e88719eae89eaa8343bff6e29cb1cba372c988980c234514cc76  surveys/200208.csv
d87290eae49bb97d6dd6462e6698349aec74a8bd6ecb4b0af022549732e2ec1b  surveys/200209.csv
7f4596443bbfd5696c5da1524a5f4ef5c965880143a360b3a63938b68eddda2c  surveys/200210.csv
28fdbe18a59f1b14176b614523e0b2450e7cc022481875f2b93e3b06d273d849  surveys/200211.csv
6b3002fdd09bf4b2998b8e0aa228f41dc61936ff177e91c0dfe35b2f5ef0729a  surveys/200212.csv
20c4962a16e5937a7dfbc0ea4ad8c17d3ddcdf2695240eab8ff79ffdb8cf3134  wages.csv
""",
    (14, 3, 0): """\
e73a94c2d7726442e8aa1b53ca30465d3d92dd169a734a47f1314d9cf5078203  surveys/200001.csv
7230d8b0d1513e61eeceb8514bc0d462f5778c50f09984fa8e10e5597c047bea  surveys/200002.csv
ea4b17fe9bb5feccc4a8bb19381e1c7de480022321a5ad82f7eeaccb5cbddfb4  surveys/200003.csv
131227cea9dd144c257680ab5cd0ed7f63bf5c8354dbf131060fcf34360e92dc  surveys/200004.csv
14b69a63c3cfd051834a406a6aa5037b6f08c6430f1457e309e5e60a0ab9b419  surveys/200005.csv
493302c67558338612bfa1df8ab48d13cbd81fb73a281cde6ba02c585a4fd1f7  surveys/200006.csv
8bd4edc7c7947913aaa44d3a49e4ffe3c999b3280d7387b9be2d50a3cbdfb1b6  surveys/200007.csv
85d6d56f9c1dbfb18df5bfbcee8a5ae52417286dd0da6cbe42c7ff770137c175  surveys/200008.csv
558dc397f36d5d3c7a6f719c71ad72ac6d92f29738855af1c63942bc2af5839e  surveys/200009.csv
3bdb49e216a02bcff3067f9c26b04d2c9dadce93c52d4606b87981bf283bb5b0  surveys/200010.csv
0cbe19eba67bfd8a41533908f454c81bfaf8088b1987b81bbe17c4a8bf85db24  surveys/200011.csv
4175a4ec196b3fd144ca169f6369cedf47f3963af50683e8084b5fbc55f1cfd6  surveys/200012.csv
b88dd93cd29b8da4d01f172992e372aaa23118b94538c1bd4b2b4061668952e7  surveys/200101.csv
a44da179811991590b10ca54daec8f51c3a1304243bcebe7901bc5392eb7625b  surveys/200102.csv
3b8482fbb53d1ae0b7888a0a0108ef0b0a39ba2ab4fc620f1d616c5608617d98  wages.csv
""",
}


@pytest.mark.parametrize("months, comments_per_month, seed", sorted(SYNTH_GOLDEN))
def test_synth_keeps_its_bytes(tmp_path, months, comments_per_month, seed):
    spec = SyntheticSpec(months=months, comments_per_month=comments_per_month)
    generate_synthetic(spec, seed, tmp_path)
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  "
                      f"{p.relative_to(tmp_path).as_posix()}\n"
                      for p in sorted(tmp_path.rglob("*")) if p.is_file())
    assert listing == SYNTH_GOLDEN[months, comments_per_month, seed]
