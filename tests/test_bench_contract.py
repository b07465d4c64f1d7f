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
