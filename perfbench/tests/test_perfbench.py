"""Tests of the benchmark itself: generator, stub, tracing and its metric tables.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_wsi()

from wsi.corpus import load_surveys  # noqa: E402
from wsi.pipeline import expand_survey_paths  # noqa: E402

BENCHMARK_JSON = workloads.REPO_ROOT / "BENCHMARK.json"


def distinct_text_share(workload, seed, out: Path) -> float:
    survey_dir, _ = workloads.generate(workload, seed, out)
    records = load_surveys(expand_survey_paths([str(survey_dir)])).records
    return len({r.comment for r in records}) / len(records)


def test_generator_is_byte_identical_per_seed(tmp_path):
    workload = workloads.WORKLOADS["remote-warm"]
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    first = run.tree_digest(tmp_path / "a")
    assert len(first) == workload.months + 1
    assert first == run.tree_digest(tmp_path / "b")
    assert first != run.tree_digest(tmp_path / "c")


@pytest.mark.parametrize("name", ["lexicon-wide", "remote-warm"])
def test_vocabulary_extension_makes_comments_nearly_unique(tmp_path, name):
    assert distinct_text_share(workloads.WORKLOADS[name], 3, tmp_path) > 0.99


def test_keyword_scale_comments_are_highly_duplicated(tmp_path):
    assert distinct_text_share(workloads.WORKLOADS["keyword-scale"], 3, tmp_path) < 0.01


@pytest.fixture
def remote_setup(tmp_path):
    setup = run.Setup(workloads.WORKLOADS["remote-warm"], 5, tmp_path / "setup", parallelism=2)
    yield setup
    setup.close()


def test_injected_failures_all_recover(tmp_path, remote_setup):
    rep, _, metrics = run.traced_rep(remote_setup, tmp_path / "rep", remote_setup.expected(),
                                     cold=True)
    assert rep.cache_dir != remote_setup.cache_dir
    assert remote_setup.stub.stats()["injected"] > 0
    assert metrics["classify.retries"] > 0
    assert metrics["classify.fallbacks"] > 0
    assert metrics["translate.retries"] > 0
    assert metrics["pipeline.failed_share"] == 0
    assert metrics["classify.failed"] == metrics["translate.failed"] == 0
    assert abs(metrics["pipeline.stage_sum_gap"]) <= run.MAX_STAGE_GAP


def test_traced_warm_workload_reports_its_cold_path(tmp_path, remote_setup):
    _, layers = run.measure_traced(remote_setup, tmp_path / "work", 0, remote_setup.expected(),
                                   tmp_path / "trace.json")
    assert set(layers) == set(tracing.LAYER_METRICS)
    assert layers["classify.wire_calls"] == layers["translate.backend_calls"] == 0
    assert layers["pipeline.cache_hit_ratio"] == layers["translate.cache_hit_ratio"] == 1
    assert layers["cold.classify.wire_calls"] > 0
    assert layers["cold.translate.backend_calls"] > 0
    assert layers["cold.pipeline.cache_puts"] > 0
    assert layers["cold.run_s"] > 0


def test_tracer_restores_every_wrapped_name():
    import wsi.lexicon
    import wsi.pipeline

    before = (wsi.pipeline.stage_ingest, wsi.lexicon.tokenize,
              wsi.pipeline.ClassificationCache.__dict__["get"])
    tracer = tracing.Tracer("test")
    try:
        tracing.install(tracer)
        assert wsi.pipeline.stage_ingest is not before[0]
    finally:
        tracer.close()
    assert (wsi.pipeline.stage_ingest, wsi.lexicon.tokenize,
            wsi.pipeline.ClassificationCache.__dict__["get"]) == before


def test_stub_answers_with_its_rules_and_fails_by_arrival_order():
    responder = stub.Responder()
    bodies = [[f"a raise for team {i}", "a pay cut", "weather"] for i in range(stub.FLAKY_EVERY)]
    answers = [responder.answer({"model": stub.PRIMARY_MODEL, "comments": b}) for b in bodies]
    assert answers[0] is None  # the first body always needs the fallback model
    assert answers[-1] is None  # the FLAKY_EVERY-th body fails its first attempt
    assert all(a is not None for a in answers[1:-1])
    assert answers[1]["probabilities"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    assert responder.answer({"model": stub.PRIMARY_MODEL, "comments": bodies[-1]}) is not None
    assert responder.answer({"model": stub.PRIMARY_MODEL, "comments": bodies[0]}) is None
    assert responder.answer({"model": stub.FALLBACK_MODEL, "comments": bodies[0]}) is not None
    responder.reset()
    assert responder.stats() == {"requests": 0, "injected": 0, "distinct_bodies": 0}


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS


def test_child_watch_skips_children_that_already_exited(tmp_path, monkeypatch):
    monkeypatch.setenv(stub.CHILD_LOG_ENV, "")  # restored after the test
    reaped = subprocess.Popen([sys.executable, "-c", "pass"])
    reaped.wait()
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    os.waitid(os.P_PID, exited.pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped
    running = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    log = tmp_path / "children.log"
    watch = run.ChildWatch(log)
    log.write_text(f"{reaped.pid}\n{exited.pid}\n{running.pid}\n")
    assert watch.finish() == 3
    for proc in (exited, running):
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)  # finish reaped both


def test_lexicon_reference_matches_the_pipeline(tmp_path):
    setup = run.Setup(workloads.WORKLOADS["lexicon-wide"], 4, tmp_path / "setup", parallelism=2)
    expected = setup.expected()
    rep = run.one_rep(setup, tmp_path / "rep", expected)  # verify() raises on a mismatch
    assert rep.failed == 0
    header, *lines = (rep.run_dir / "stages" / "lexicon_audit.csv").read_text(
        encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines]
    as_of, polarity = rows[0][:2]
    group = [r for r in rows if r[:2] == [as_of, polarity]]
    assert len(group) == reference.MAX_TERMS

    def error(rows):
        text = "\n".join([header] + [",".join(r) for r in rows])
        with pytest.raises(ValueError) as exc:
            expected.lexicon.expected_series(text)
        return str(exc.value)

    shifted = [r[:4] + [repr(float(r[4]) + 1e-6)] if r is rows[0] else r for r in rows]
    assert "reference" in error(shifted)
    renamed = [r[:3] + ["notaterm"] + r[4:] if r is rows[0] else r for r in rows]
    assert "reference" in error(renamed)
    # Drop the top term and move the others up: the last one kept now ranks
    # below the term left out.
    rest = [r for r in rows if r is not rows[0]]
    moved = [r[:2] + [str(int(r[2]) - 1)] + r[3:] if r[:2] == [as_of, polarity] else r
             for r in rest]
    assert "eligible" in error(moved)


def test_missing_program_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(workloads.REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "remote-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
