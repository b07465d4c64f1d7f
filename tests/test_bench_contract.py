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


def test_a_traced_lexicon_run_feeds_the_lexicon_metrics(tracing, tmp_path):
    """The per-layer lexicon metrics read the rolling lexicons, the term
    counts, the tokenizer and the baseline's classify_batch through the
    names the tracer wraps. A call that bypassed one of those module
    globals would read as zero time in that layer, not as an error."""
    from wsi.lexicon import LexiconPolicy
    from wsi.pipeline import BackendConfig, RunConfig, run
    from wsi.synthetic import SyntheticSpec, generate_synthetic

    generate_synthetic(SyntheticSpec(months=30, comments_per_month=20), 4, tmp_path / "data")
    config = RunConfig(survey_paths=[str(tmp_path / "data" / "surveys")],
                       wage_path=str(tmp_path / "data" / "wages.csv"),
                       backends=[BackendConfig(backend_id="lex", kind="lexicon")],
                       lexicon=LexiconPolicy(window="rolling:6", min_mean_frequency=1.0),
                       max_lag=4, output_dir=str(tmp_path / "out"),
                       cache_dir=str(tmp_path / "cache"))
    tracer = tracing.Tracer(run_id="contract")
    tracing.install(tracer)
    try:
        result = run(config)
    finally:
        tracer.close()
    assert (result.out_dir / "stages" / "lexicon_audit.csv").read_text().count("\n") > 1
    assert tracer.calls["lexicon.rolling_lexicons"] == 1
    assert tracer.calls["lexicon.term_counts"] == 1
    assert tracer.calls["lexicon.tokenize"] > 0
    assert tracer.calls["lexicon.backend_classify"] == 1


def test_a_traced_remote_run_reads_each_text_once_and_a_warm_one_calls_no_wire(
        tracing, tmp_path):
    """A ``subprocess`` classifier under the tracer, cold and then warm. The
    tracer wraps the remote client's ``classify_batch`` under two names,
    ``classify.RemoteClassifier`` and ``pipeline.CachedRemoteClassifier``:
    the one call per run is recorded under both, and both are restored."""
    import csv

    import wsi.classify
    from wsi.pipeline import BackendConfig, RunConfig, run
    from wsi.synthetic import SyntheticSpec, generate_synthetic

    from conftest import WIRE_STUB

    generate_synthetic(SyntheticSpec(months=24, comments_per_month=20), 4, tmp_path / "data")
    distinct = set()
    for path in sorted((tmp_path / "data" / "surveys").glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            distinct.update(row["comment"] for row in csv.DictReader(fh))
    backend = BackendConfig(backend_id="child", kind="subprocess", model_id="m",
                            endpoint=f"cmd:{sys.executable} {WIRE_STUB}")
    config = RunConfig(survey_paths=[str(tmp_path / "data" / "surveys")],
                       wage_path=str(tmp_path / "data" / "wages.csv"), backends=[backend],
                       max_lag=4, output_dir=str(tmp_path / "out"),
                       cache_dir=str(tmp_path / "cache"))
    original = wsi.classify.RemoteClassifier.__dict__["classify_batch"]
    tracers, results = [], []
    for phase in ("cold", "warm"):
        tracer = tracing.Tracer(run_id=phase)
        tracing.install(tracer)
        try:
            results.append(run(config))
        finally:
            tracer.close()
        tracers.append(tracer)
        assert wsi.classify.RemoteClassifier.__dict__["classify_batch"] is original
        assert tracer.calls["classify.classify_batch"] == 2, phase  # one call, two names
        assert tracer.calls["pipeline.cache_get"] == len(distinct), phase
    cold, warm = tracers
    assert results[0].stats["wire_calls"]["child"] > 0
    assert cold.calls["pipeline.cache_put"] == len(distinct)
    assert warm.hits["pipeline.cache_get"] == len(distinct)
    assert warm.calls["classify.wire"] == 0 and warm.calls["pipeline.cache_put"] == 0
    assert results[1].stats["wire_calls"] == {"child": 0}
