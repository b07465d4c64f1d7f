"""The benchmark's tracer (perfbench/tracing.py) wraps wsi names by import
path. Installing it fails on a name a refactor removed, which would
otherwise surface only when someone runs the benchmark with ``--trace 1``."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_every_wrapped_name_exists_and_is_restored(tracing):
    import wsi.lexicon
    import wsi.pipeline

    before = (wsi.pipeline.rolling_lexicons, wsi.lexicon.monthly_term_counts,
              wsi.lexicon.tokenize, wsi.lexicon.LexiconBackend.classify_batch)
    tracer = tracing.Tracer(run_id="contract")
    try:
        tracing.install(tracer)
        assert wsi.pipeline.rolling_lexicons is not before[0]
    finally:
        tracer.close()
    assert (wsi.pipeline.rolling_lexicons, wsi.lexicon.monthly_term_counts,
            wsi.lexicon.tokenize, wsi.lexicon.LexiconBackend.classify_batch) == before


def test_a_traced_run_feeds_the_ingest_metrics(tracing, tmp_path):
    """The per-layer ingest metrics read the loader, writer, translator and
    summary through the names the tracer wraps, once per run. The translator
    is a remote one: an identity run calls no translator at all."""
    import json

    from wsi.pipeline import BackendConfig, RunConfig, run
    from wsi.synthetic import SyntheticSpec, generate_synthetic

    from conftest import WIRE_STUB

    generate_synthetic(SyntheticSpec(months=30, comments_per_month=20), 4, tmp_path / "data")
    config = RunConfig(survey_paths=[str(tmp_path / "data" / "surveys")],
                       wage_path=str(tmp_path / "data" / "wages.csv"),
                       backends=[BackendConfig(backend_id="mock", kind="keyword")],
                       translation_backend=f"cmd:{sys.executable} {WIRE_STUB}",
                       max_lag=4, output_dir=str(tmp_path / "out"),
                       cache_dir=str(tmp_path / "cache"))
    tracer = tracing.Tracer(run_id="contract")
    tracing.install(tracer)
    try:
        result = run(config)
    finally:
        tracer.close()
    ingest = json.loads((result.out_dir / "stages" / "ingest.json").read_text())
    assert ingest["records"] == 30 * 20
    assert tracer.calls["corpus.load_surveys"] == 1
    assert tracer.values["corpus.records_in"] == ingest["records"]
    assert tracer.values["corpus.rows_rejected"] == 0
    for name in ("corpus.write_survey", "translate.translate_all", "report.summarize_corpus"):
        assert tracer.calls[name] == 1, name
