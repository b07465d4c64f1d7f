import csv
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsi.corpus import MonthKey
from wsi.pipeline import (
    BackendConfig,
    ClassificationCache,
    ConfigError,
    RunConfig,
    StagedRun,
    StageError,
    compute_run_id,
    run,
    run_dir,
    stage_classify,
    stage_granger,
    stage_index,
    stage_ingest,
    stage_report,
)
from wsi.classify import (DEFAULT_KEYWORD_RULES, Classified, ClassProbabilities,
                          TransportError)
from wsi.synthetic import SyntheticSpec, generate_synthetic

from conftest import WIRE_STUB, cache_rows


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def small_corpus(tmp_path):
    spec = SyntheticSpec(months=40, comments_per_month=40, lead_months=2)
    generate_synthetic(spec, seed=5, out_dir=tmp_path / "data")
    return tmp_path


def config_for(base, backends=None, **kw):
    defaults = dict(
        survey_paths=[str(base / "data" / "surveys")],
        wage_path=str(base / "data" / "wages.csv"),
        backends=backends or [BackendConfig(backend_id="mock", kind="keyword")],
        output_dir=str(base / "out"),
        cache_dir=str(base / "cache"),
        seed=5,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def per_record(classified):
    """Each record's (month, u, v, w, label, failed), in order."""
    rows = []
    for month, codes in classified.month_segments():
        rows.extend((month, classified.u[c], classified.v[c], classified.w[c],
                     classified.label[c], classified.failed[c]) for c in codes.tolist())
    return rows


def cache_key(comment, endpoint, model_id, prompt_version):
    return ClassificationCache.digest((comment, endpoint, model_id, prompt_version))


class TestCacheKey:
    def test_stable(self):
        assert cache_key("text", "e", "model", "v1") == cache_key("text", "e", "model", "v1")

    def test_any_input_change_changes_key(self):
        base = cache_key("text", "e", "model", "v1")
        assert cache_key("text2", "e", "model", "v1") != base
        assert cache_key("text", "e2", "model", "v1") != base
        assert cache_key("text", "e", "model2", "v1") != base
        assert cache_key("text", "e", "model", "v2") != base

    def test_no_collisions_over_100k_inputs(self):
        seen = set()
        for i in range(100_000):
            seen.add(cache_key(f"comment number {i}", "e", "m", "v1"))
        assert len(seen) == 100_000

    def test_classification_cache_round_trip(self, tmp_path):
        cache = ClassificationCache(tmp_path)
        probs = ClassProbabilities(0.5, 0.25, 0.25)
        endpoint = "http://localhost:1/"
        cache.put("a comment", endpoint, "model-x", probs)
        assert cache.get("a comment", endpoint, "model-x") == probs
        assert cache.get("a comment", endpoint, "other-model") is None
        assert cache.get("a comment", "cmd:other-endpoint", "model-x") is None
        cache.close()
        # the key is [comment, endpoint as the transport reads it, model,
        # prompt version]; the cache file, the entry's digest and its value
        # bytes are pinned so a format change shows here
        digest = "e8eebdb2f69e77f76e66fd12e4e257cc4a9a70018d443d47485d99e37734a4a8"
        assert [p.name for p in tmp_path.iterdir()] == ["classify.sqlite"]
        assert cache_rows(tmp_path / "classify.sqlite") == {
            digest: '{"u": 0.5, "v": 0.25, "w": 0.25}'}

    def test_fallback_answer_is_cached_under_the_fallback_model(self, tmp_path):
        from wsi.classify import RemoteClassifier

        calls = []

        def transport(payload):
            calls.append(payload["model"])
            if payload["model"] == "primary":
                raise TransportError("primary is down")
            return {"probabilities": [[0.0, 1.0, 0.0]] * len(payload["comments"])}

        def classifier(fallback):
            backend = BackendConfig(backend_id="remote", kind="http", endpoint="http://unused/",
                                    model_id="primary", fallback_model_id=fallback,
                                    max_retries=0)
            return RemoteClassifier(backend, cache, transport=transport)

        cache = ClassificationCache(tmp_path)
        cold = classifier("backup").classify_batch(["a comment"])
        assert cold.failed == [False] and cold.wire_calls == 2
        assert cache.get("a comment", "http://unused/", "primary") is None
        assert cache.get("a comment", "http://unused/", "backup") == \
            ClassProbabilities(0.0, 1.0, 0.0)

        calls.clear()
        warm = classifier("backup").classify_batch(["a comment"])
        assert warm.probs == cold.probs and warm.wire_calls == 0 and calls == []

        # without that fallback, the primary model is asked, not served its answer
        alone = classifier(None).classify_batch(["a comment"])
        assert alone.failed == [True] and calls == ["primary"]


class TestRunSmoke:
    def test_tiny_fixture_run_under_five_seconds(self, small_corpus):
        started = time.perf_counter()
        result = run(config_for(small_corpus))
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0
        out = result.out_dir
        for expected in (
            "series/mock.csv",
            "granger/mock_standard.csv",
            "granger/mock_weighted.csv",
            "charts/mock.svg",
            "tables/granger.md",
            "tables/granger.tex",
            "manifest.json",
            "summary/judgment.csv",
        ):
            assert (out / expected).exists(), expected
        assert not (out / "FAILED").exists()
        result.bundle.validate()

    def test_manifest_is_deterministic_json(self, small_corpus):
        result = run(config_for(small_corpus))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["run_id"] == result.bundle.run_id
        assert manifest["config_digest"]
        assert "mock" in manifest["classify"]

    def test_identity_translation_reports_no_translation_calls(self, small_corpus):
        stats = run(config_for(small_corpus, translation_batch_size=7)).stats
        assert stats["translation_calls"] == 0
        assert stats["translation_failed"] == 0

    def test_identity_translation_takes_each_comment_off_the_wire_path(
            self, small_corpus, monkeypatch):
        import wsi.pipeline as pipeline

        def no_call(*args, **kwargs):
            raise AssertionError("identity translation called translate_all")

        monkeypatch.setattr(pipeline, "translate_all", no_call)
        ingest = stage_ingest(config_for(small_corpus))
        assert ingest.corpus.translations == ingest.corpus.comments
        assert (ingest.translation_calls, ingest.stats["translation_failed"]) == (0, 0)
        assert not (small_corpus / "cache").exists()  # no cache opened

    def test_run_id_ignores_execution_knobs(self, small_corpus):
        a = config_for(small_corpus, classify_parallelism=1)
        b = config_for(small_corpus, classify_parallelism=8,
                       output_dir=str(small_corpus / "elsewhere"))
        assert compute_run_id(a) == compute_run_id(b)

    def test_run_id_tracks_semantic_config(self, small_corpus):
        a = config_for(small_corpus)
        b = config_for(small_corpus, max_lag=12)
        assert compute_run_id(a) != compute_run_id(b)


class TestWireBackendCaching:
    def backend(self, wire_server, **kw):
        defaults = dict(backend_id="remote", kind="http", endpoint=wire_server.url,
                        model_id="remote-model", batch_size=16)
        defaults.update(kw)
        return BackendConfig(**defaults)

    def make_wire_corpus(self, tmp_path):
        """Survey comments that the wire handler's up/down/flat rules classify."""
        surveys = tmp_path / "data" / "surveys"
        surveys.mkdir(parents=True)
        start = MonthKey(2018, 1)
        months = [start.plus(i) for i in range(30)]
        for i, month in enumerate(months):
            rows = ["yyyymm,region,industry,judgment,comment"]
            for j in range(12):
                direction = "up" if (i + j) % 3 == 0 else "down" if (i + j) % 3 == 1 else "flat"
                rows.append(f"{month},Kanto,retail,Good,signal {direction} case {i} {j}")
            (surveys / f"{month}.csv").write_text("\n".join(rows) + "\n")
        wage_rows = ["yyyymm,level"]
        for i, month in enumerate(months):
            wage_rows.append(f"{month},{100.0 + i * 0.3 + (i % 5) * 0.1}")
        (tmp_path / "data" / "wages.csv").write_text("\n".join(wage_rows) + "\n")

    def test_warm_cache_rerun_makes_zero_wire_calls_and_identical_tree(
            self, tmp_path, wire_server):
        self.make_wire_corpus(tmp_path)
        config = config_for(tmp_path, backends=[self.backend(wire_server)])
        cold = run(config)
        assert cold.stats["wire_calls"]["remote"] > 0
        cold_tree = tree_bytes(cold.out_dir)

        warm = run(config)
        assert warm.stats["wire_calls"]["remote"] == 0
        assert tree_bytes(warm.out_dir) == cold_tree

    def test_cold_and_warm_bundles_equal(self, tmp_path, wire_server):
        self.make_wire_corpus(tmp_path)
        config = config_for(tmp_path, backends=[self.backend(wire_server)])
        cold = run(config)
        warm = run(config)
        assert cold.bundle == warm.bundle

    def test_a_reply_that_is_not_utf8_fails_its_comments_not_the_run(
            self, tmp_path, raw_server):
        self.make_wire_corpus(tmp_path)
        raw_server.reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe"
        backends = [BackendConfig(backend_id="remote", kind="http", endpoint=raw_server.url,
                                  model_id="m1", fallback_model_id="m2", batch_size=100,
                                  max_retries=1),
                    BackendConfig(backend_id="mock", kind="keyword")]
        result = run(config_for(tmp_path, backends=backends))
        assert result.stats["classify"]["remote"]["failed_comments"] == 360
        # 360 distinct comments in 4 batches, each tried twice on both models
        assert result.stats["wire_calls"]["remote"] == 16
        assert not (result.out_dir / "FAILED").exists()

    def poison_two_comments(self, tmp_path):
        """Two comments in one month that the HTTP wire server fails with a 500."""
        month_file = tmp_path / "data" / "surveys" / "201804.csv"
        lines = month_file.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",poison pill one"
        lines[2] = lines[2].rsplit(",", 1)[0] + ",poison pill two"
        month_file.write_text("\n".join(lines) + "\n")

    def test_classification_failures_reduce_n_and_are_itemized(
            self, tmp_path, wire_server):
        self.make_wire_corpus(tmp_path)
        # batch_size=1 isolates the failures
        self.poison_two_comments(tmp_path)

        config = config_for(
            tmp_path,
            backends=[self.backend(wire_server, batch_size=1, max_retries=0)])
        result = run(config)
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["classify"]["remote"]["failed_comments"] == 2

        series_rows = (result.out_dir / "series" / "remote.csv").read_text().splitlines()
        by_month = {row.split(",")[0]: row.split(",") for row in series_rows[1:]}
        poisoned = by_month["201804"]
        clean = by_month["201805"]
        # excluded column picks up exactly the 2 failures; n drops by 2
        assert int(poisoned[6]) == 2
        assert int(poisoned[7]) == int(clean[7]) - 2

    def test_backends_naming_one_model_do_not_share_cache_entries(
            self, tmp_path, wire_server):
        self.make_wire_corpus(tmp_path)
        self.poison_two_comments(tmp_path)  # the child answers them, the server fails them
        shared_cache = str(tmp_path / "shared-cache")
        child = BackendConfig(backend_id="child", kind="subprocess", model_id="m1",
                              endpoint=f"{sys.executable} {WIRE_STUB}")
        run(config_for(tmp_path, backends=[child], cache_dir=shared_cache,
                       output_dir=str(tmp_path / "out-child")))

        remote = [self.backend(wire_server, model_id="m1", batch_size=1, max_retries=0)]
        shared = run(config_for(tmp_path, backends=remote, cache_dir=shared_cache,
                                output_dir=str(tmp_path / "out-shared")))
        fresh = run(config_for(tmp_path, backends=remote, cache_dir=str(tmp_path / "empty"),
                               output_dir=str(tmp_path / "out-fresh")))
        assert fresh.stats["classify"]["remote"]["failed_comments"] == 2
        assert tree_bytes(shared.out_dir) == tree_bytes(fresh.out_dir)

    def test_spellings_of_one_endpoint_share_cache_entries(self, tmp_path):
        self.make_wire_corpus(tmp_path)
        command = f"{sys.executable} {WIRE_STUB}"

        def run_with(endpoint):
            backend = BackendConfig(backend_id="child", kind="subprocess", model_id="m",
                                    endpoint=endpoint)
            return run(config_for(tmp_path, backends=[backend]))

        cold = run_with(f"cmd:{command}")
        warm = run_with(command)
        assert cold.stats["wire_calls"]["child"] > 0
        assert warm.stats["wire_calls"]["child"] == 0
        # the manifest names the endpoint as configured; the results match
        assert tree_bytes(warm.out_dir / "series") == tree_bytes(cold.out_dir / "series")

        cache = ClassificationCache(tmp_path / "cache")
        probs = ClassProbabilities(0.5, 0.25, 0.25)
        cache.put("a comment", "http://h/", "m", probs)
        assert cache.get("a comment", "http://h", "m") == probs
        assert cache.get("a comment", "http://h:81", "m") is None

    def test_subprocess_backend_child_is_stopped_after_classify(
            self, tmp_path, recorded_children):
        self.make_wire_corpus(tmp_path)
        backend = BackendConfig(backend_id="child", kind="subprocess", model_id="m",
                                endpoint=f"{sys.executable} {WIRE_STUB}")
        result = run(config_for(tmp_path, backends=[backend], classify_parallelism=4))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["classify"]["child"]["failed_comments"] == 0
        assert "child" in result.bundle.series
        assert_all_stopped(recorded_children)


def fail_by_digest(modulus, residue):
    """A server rule failing a comment list by the digest of its contents."""
    def fails(comments):
        return hashlib.sha256(json.dumps(comments).encode()).digest()[0] % modulus == residue
    return fails


class TestWireBatchPlan:
    """Each distinct text is classified once per run, in batches that
    depend only on the corpus and the batch size, not on parallelism."""

    def make_repeating_corpus(self, base, months=24, per_month=15, pool=40):
        """Every month draws its comments from one pool of texts."""
        surveys = base / "data" / "surveys"
        surveys.mkdir(parents=True)
        start = MonthKey(2018, 1)
        wage_rows = ["yyyymm,level"]
        for i in range(months):
            month = start.plus(i)
            rows = ["yyyymm,region,industry,judgment,comment"]
            for j in range(per_month):
                k = (i * 7 + j) % pool
                direction = ("up", "down", "flat", "steady")[k % 4]
                rows.append(f"{month},Kanto,retail,Good,pay went {direction} case {k}")
            (surveys / f"{month}.csv").write_text("\n".join(rows) + "\n")
            wage_rows.append(f"{month},{100.0 + i * 0.3 + (i % 5) * 0.1}")
        (base / "data" / "wages.csv").write_text("\n".join(wage_rows) + "\n")

    def run_at(self, base, wire_server, parallelism, name, **backend):
        fields = dict(backend_id="remote", kind="http", endpoint=wire_server.url,
                      model_id="m1", fallback_model_id="m2", batch_size=7, max_retries=0)
        fields.update(backend)
        return run(config_for(base, backends=[BackendConfig(**fields)],
                              classify_parallelism=parallelism,
                              output_dir=str(base / name / "out"),
                              cache_dir=str(base / name / "cache")))

    def assert_parallelism_blind(self, base, wire_server, name, **backend):
        serial = self.run_at(base, wire_server, 1, f"{name}-p1", **backend)
        parallel = [self.run_at(base, wire_server, 8, f"{name}-p8-{i}", **backend)
                    for i in range(2)]
        for result in parallel:
            assert result.stats["wire_calls"] == serial.stats["wire_calls"]
            assert tree_bytes(result.out_dir) == tree_bytes(serial.out_dir)
        return serial

    def test_content_failing_server_writes_one_tree_at_any_parallelism(
            self, tmp_path, wire_server):
        self.make_repeating_corpus(tmp_path)
        wire_server.set_fail_batch(fail_by_digest(3, 0))
        serial = self.assert_parallelism_blind(tmp_path, wire_server, "digest")
        assert serial.stats["classify"]["remote"]["failed_comments"] > 0
        # 40 distinct texts in batches of 7: 6 batches, each asked of m1 and,
        # when m1 fails it, of m2
        assert 6 <= serial.stats["wire_calls"]["remote"] <= 12

    @settings(max_examples=8, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(modulus=st.integers(2, 5), residue=st.integers(0, 4), batch_size=st.integers(1, 12))
    def test_any_content_rule_and_batch_size_give_one_tree(
            self, tmp_path_factory, wire_server, modulus, residue, batch_size):
        base = tmp_path_factory.mktemp("plan")
        self.make_repeating_corpus(base, months=16, per_month=10, pool=25)
        wire_server.set_fail_batch(fail_by_digest(modulus, residue % modulus))
        self.assert_parallelism_blind(base, wire_server, "rule", batch_size=batch_size)

    def test_cold_run_sends_each_text_once_per_model(self, tmp_path, wire_server):
        self.make_repeating_corpus(tmp_path)
        backend = BackendConfig(backend_id="remote", kind="http", endpoint=wire_server.url,
                                model_id="m1", batch_size=4)
        run(config_for(tmp_path, backends=[backend], classify_parallelism=8,
                       translation_backend=wire_server.url, translation_parallelism=8,
                       translation_batch_size=4))
        sent: dict[str, list[str]] = {}
        for body in wire_server.requests:
            if "comments" in body:
                sent.setdefault(body["model"], []).extend(body["comments"])
            else:
                sent.setdefault("translator", []).extend(body["texts"])
        assert set(sent) == {"m1", "translator"}
        for texts in sent.values():
            assert len(texts) == len(set(texts)) == 40

    def test_translation_and_classify_parallelism_give_one_tree(self, tmp_path, wire_server):
        self.make_repeating_corpus(tmp_path)
        (tmp_path / "data" / "surveys" / "translated.csv").write_text(
            "yyyymm,region,industry,judgment,comment,comment_translated\n"
            "201801,Kanto,retail,Good,pay went up case 1,loaded\n"
            "201802,Kanto,retail,Good,pay went up case 1,\n", encoding="utf-8")
        backends = [BackendConfig(backend_id="remote", kind="http", endpoint=wire_server.url,
                                  batch_size=4),
                    BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="lex", kind="lexicon")]
        trees = []
        for parallelism in (1, 8):
            result = run(config_for(
                tmp_path, backends=backends, translation_backend=wire_server.url,
                translation_parallelism=parallelism, translation_batch_size=3,
                classify_parallelism=parallelism,
                output_dir=str(tmp_path / f"p{parallelism}" / "out"),
                cache_dir=str(tmp_path / f"p{parallelism}" / "cache")))
            trees.append(tree_bytes(result.out_dir))
        assert trees[0] == trees[1]
        assert b"PAY WENT UP CASE 1" in trees[0]["stages/records.csv"]

    def test_keyword_backend_classifies_each_distinct_text_once(
            self, small_corpus, monkeypatch):
        from wsi.classify import KeywordClassifier
        from wsi.corpus import load_surveys

        seen = []
        classify_one = KeywordClassifier.classify_one

        def counting(self, comment):
            seen.append(comment)
            return classify_one(self, comment)

        monkeypatch.setattr(KeywordClassifier, "classify_one", counting)
        result = run(config_for(small_corpus, classify_parallelism=8))
        records = load_surveys([result.out_dir / "stages" / "records.csv"]).records
        distinct = {r.text for r in records}
        assert len(distinct) < len(records)
        assert sorted(seen) == sorted(distinct)


@pytest.fixture
def recorded_children(monkeypatch):
    """Every child process started through ``subprocess.Popen``."""
    import subprocess

    children = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return children


def assert_all_stopped(children):
    assert children
    assert all(child.poll() is not None for child in children)
    assert all(child.stdin.closed and child.stdout.closed for child in children)


def test_cmd_translator_child_is_stopped_after_ingest(small_corpus, recorded_children):
    config = config_for(small_corpus, translation_backend=f"cmd:{sys.executable} {WIRE_STUB}",
                        translation_parallelism=2)
    result = run(config)
    assert json.loads((result.out_dir / "stages" / "ingest.json").read_text())[
        "translation_failed"] == 0
    assert_all_stopped(recorded_children)


def test_blank_translations_are_itemized_and_stages_write_the_run_tree(small_corpus):
    """A translator answering "" or null for some comments: those records
    are counted as untranslated, the run finishes, and the stage-by-stage
    rerun into a second output directory writes the same tree."""
    from test_translate import BLANKING_TRANSLATOR

    script = small_corpus / "blanking.py"
    script.write_text(BLANKING_TRANSLATOR)
    child = BackendConfig(backend_id="child", kind="subprocess",
                          endpoint=f"cmd:{sys.executable} {WIRE_STUB}", max_retries=0)
    config = config_for(small_corpus, backends=[child, BackendConfig(backend_id="mock")],
                        translation_backend=f"cmd:exec {sys.executable} {script}",
                        translation_batch_size=1, translation_parallelism=8)
    result = run(config)
    records = (result.out_dir / "stages" / "records.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(records.splitlines()))
    blanked = [r for r in rows if "bonus" in r["comment"] or "cut" in r["comment"]]
    assert blanked and all(r["comment_translated"] == "" for r in blanked)
    assert result.stats["translation_failed"] == len(blanked)
    assert "None" not in records
    staged = config_for(small_corpus, backends=config.backends,
                        translation_backend=config.translation_backend,
                        translation_batch_size=1, translation_parallelism=8,
                        output_dir=str(small_corpus / "staged"))
    for stage in (stage_ingest, stage_classify, stage_index, stage_granger, stage_report):
        stage(staged)
    assert tree_bytes(run_dir(staged)) == tree_bytes(result.out_dir)


def test_translation_endpoint_is_a_url_or_a_command(small_corpus):
    from wsi.translate import RemoteTranslator
    from wsi.wire import HttpTransport, SubprocessTransport

    def translator(endpoint):
        return RemoteTranslator(config_for(small_corpus,
                                           translation_backend=endpoint).translation_backend)

    for url in ("http://localhost:1/", "https://translate.example/v1"):
        assert isinstance(translator(url).transport, HttpTransport)
        assert translator(url).transport.url == url
    assert isinstance(translator("cmd:tr a-z A-Z").transport, SubprocessTransport)
    assert translator("cmd:tr a-z A-Z").transport.command == "tr a-z A-Z"
    for bad in ("http:https://translate.example", "ftp://host/", "deepl"):
        with pytest.raises(ConfigError):
            translator(bad)


class TestTwoBackends:
    def test_two_series_two_sweeps_one_comparison_table(self, small_corpus):
        backends = [
            BackendConfig(backend_id="mock", kind="keyword"),
            BackendConfig(backend_id="baseline", kind="lexicon"),
        ]
        result = run(config_for(small_corpus, backends=backends))
        out = result.out_dir
        assert (out / "series" / "mock.csv").exists()
        assert (out / "series" / "baseline.csv").exists()
        assert set(result.bundle.series) == {"mock", "baseline"}
        sweep_backends = {b for b, _ in result.bundle.sweeps}
        assert sweep_backends == {"mock", "baseline"}
        table = (out / "tables" / "granger.tex").read_text()
        assert "\\textbf{mock}" in table and "\\textbf{baseline}" in table
        # lexicon audit artifacts ship alongside
        assert (out / "stages" / "lexicon_audit.csv").exists()
        assert (out / "stages" / "lexicon_wordcounts.csv").exists()

    def test_restricted_fits_are_shared_within_one_response_span_only(
            self, small_corpus, monkeypatch):
        """The lexicon series start later than the keyword ones, so their
        pairs cover another span of wage growth. Each (span, lag) restricted
        model is fitted once, shared by both index kinds, and every sweep
        equals an unshared one."""
        import wsi.econometrics
        from wsi.econometrics import AlignedPair, granger_sweep
        from wsi.report import granger_csv_rows

        fits = []
        real_fit = wsi.econometrics._residual_ss
        monkeypatch.setattr(wsi.econometrics, "_residual_ss",
                            lambda x, y: fits.append((x.tobytes(), y.tobytes())) or real_fit(x, y))
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        staged = StagedRun(config, compute_run_id(config))
        for stage in (stage_ingest, stage_classify, stage_index, stage_granger):
            stage(config, staged=staged)
        monkeypatch.setattr(wsi.econometrics, "_residual_ss", real_fit)

        yoy = staged.get_wages().yoy_map
        lags, span_lags = 0, {}
        for backend_id, series in staged.get_series().items():
            for kind in ("standard", "weighted"):
                pair = AlignedPair.from_series(getattr(series, f"{kind}_by_month")(), yoy)
                results = granger_sweep(pair, config.max_lag)
                csv_text = "\n".join(granger_csv_rows(backend_id, kind, results)) + "\n"
                assert (staged.out / "granger" / f"{backend_id}_{kind}.csv").read_text() == csv_text
                lags += len(results)
                span_lags[pair.months] = len(results)
        assert len(span_lags) == 2
        # one unrestricted fit per pair and lag, one restricted fit per span and lag
        assert len(fits) == lags + sum(span_lags.values())
        assert len(set(fits)) == len(fits)

    def test_lexicon_tokenizes_each_text_once_and_word_counts_agree(
            self, small_corpus, monkeypatch):
        import wsi.lexicon
        from wsi.corpus import group_by_month, load_surveys

        calls = []
        real_tokenize = wsi.lexicon.tokenize

        def counting_tokenize(text, *args):
            calls.append(text)
            return real_tokenize(text, *args)

        monkeypatch.setattr(wsi.lexicon, "tokenize", counting_tokenize)
        backends = [BackendConfig(backend_id="baseline", kind="lexicon")]
        out = run(config_for(small_corpus, backends=backends)).out_dir
        grouped = group_by_month(load_surveys([out / "stages" / "records.csv"]).records)
        assert sorted(calls) == sorted({r.text for rs in grouped.values() for r in rs})

        terms = {}
        for line in (out / "stages" / "lexicon_audit.csv").read_text().splitlines()[1:]:
            as_of, polarity, _, term, _ = line.split(",")
            terms.setdefault((as_of, polarity), set()).add(term)
        rows = (out / "stages" / "lexicon_wordcounts.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            as_of, p_total, n_total, _ = row.split(",")
            tokens = [t for r in grouped[MonthKey.parse(as_of)] for t in real_tokenize(r.text)]
            assert int(p_total) == sum(t in terms.get((as_of, "positive"), ()) for t in tokens)
            assert int(n_total) == sum(t in terms.get((as_of, "negative"), ()) for t in tokens)

    def test_lexicon_series_starts_after_warmup(self, small_corpus):
        backends = [BackendConfig(backend_id="baseline", kind="lexicon")]
        result = run(config_for(small_corpus, backends=backends))
        rows = (result.out_dir / "series" / "baseline.csv").read_text().splitlines()
        first_month = rows[1].split(",")[0]
        # growth defined from month 13; window of >= 2 months ends at as_of - 2
        assert first_month == str(MonthKey(2000, 1).plus(12 + 3))

    def test_infeasible_backend_recorded_as_failure_not_abort(self, tmp_path):
        # 14 months: growth exists only from month 13, so no lexicon window
        # is ever feasible; the keyword backend must still complete.
        spec = SyntheticSpec(months=14, comments_per_month=30, lead_months=0)
        generate_synthetic(spec, seed=2, out_dir=tmp_path / "data")
        backends = [
            BackendConfig(backend_id="mock", kind="keyword"),
            BackendConfig(backend_id="baseline", kind="lexicon"),
        ]
        result = run(config_for(tmp_path, backends=backends, max_lag=2))
        assert "mock" in result.bundle.series
        assert "baseline" not in result.bundle.series
        assert "baseline" in result.bundle.failures
        result.bundle.validate()
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert manifest["failures"]["baseline"] == "no classifiable months"

    def test_stage_mode_tolerates_recorded_index_failure(self, tmp_path):
        spec = SyntheticSpec(months=14, comments_per_month=30, lead_months=0)
        generate_synthetic(spec, seed=2, out_dir=tmp_path / "data")
        backends = [
            BackendConfig(backend_id="mock", kind="keyword"),
            BackendConfig(backend_id="baseline", kind="lexicon"),
        ]
        config = config_for(tmp_path, backends=backends, max_lag=2)
        stage_ingest(config)
        stage_classify(config)
        stage_index(config)
        # granger from disk must skip the failed backend, not abort
        sweeps, failures = stage_granger(config)
        assert all(backend != "baseline" for backend, _ in sweeps)
        stage_report(config).validate()


    def test_an_all_unrelated_middle_month_fails_only_its_backends_sweeps(self, small_corpus):
        """Gap policy: a month whose comments one backend all excludes is a
        gap in that backend's series, and both its Granger sweeps fail,
        naming the month before the gap; the other backend keeps its sweeps."""
        gap_file = sorted((small_corpus / "data" / "surveys").glob("*.csv"))[20]
        with open(gap_file, newline="") as fh:
            header, *rows = csv.reader(fh)
        with open(gap_file, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header, *(row[:-1] + ["the pay was as usual"] for row in rows)])
        gap = MonthKey.parse(rows[0][0])
        # "pay" is neutral under the default rules and unrelated without them
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="gappy", kind="keyword",
                                  rules=DEFAULT_KEYWORD_RULES[:2])]
        out = run(config_for(small_corpus, backends=backends)).out_dir
        index = json.loads((out / "stages" / "index.json").read_text())
        assert index["series"]["gappy"]["skipped_months"] == [str(gap)]
        assert index["series"]["mock"]["skipped_months"] == []
        granger = json.loads((out / "stages" / "granger.json").read_text())
        cause = f"common span not contiguous: gap after {gap.minus(1)}"
        assert granger["failures"] == {"gappy_standard": cause, "gappy_weighted": cause}
        assert set(granger["sweeps"]) == {"mock_standard", "mock_weighted"}


class TestStageSequencing:
    def test_stage_by_stage_matches_full_run(self, small_corpus):
        config = config_for(small_corpus)
        full = run(config)
        full_tree = tree_bytes(full.out_dir)

        import shutil

        shutil.rmtree(full.out_dir)
        stage_ingest(config)
        stage_classify(config)
        stage_index(config)
        stage_granger(config)
        stage_report(config)
        assert tree_bytes(run_dir(config)) == full_tree

    def test_classified_comments_read_back_equal_and_shared(self, small_corpus):
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        stage_ingest(config)
        classified, _ = stage_classify(config)
        staged = StagedRun(config, compute_run_id(config))
        for backend_id, answers in classified.items():
            read = staged.get_classified(backend_id)
            assert per_record(read) == per_record(answers)
            # one answer per distinct classification
            assert len({row[1:] for row in per_record(read)}) == len(read.u) < len(read)

    def test_stages_take_the_config_and_a_staged_run_only(self):
        import inspect

        def params(f):
            return [(p.name, p.kind.name, p.default)
                    for p in inspect.signature(f).parameters.values()]

        config = ("config", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty)
        staged = ("staged", "KEYWORD_ONLY", None)
        for stage in (stage_ingest, stage_index, stage_granger, stage_report):
            assert params(stage) == [config, staged], stage.__name__
        assert params(stage_classify) == [
            config, ("only_backend", "POSITIONAL_OR_KEYWORD", None), staged]

    def test_classify_without_ingest_fails_loud(self, small_corpus):
        config = config_for(small_corpus)
        with pytest.raises(StageError, match="ingest"):
            stage_classify(config)

    def test_bad_wage_path_aborts_with_stage_and_marker(self, small_corpus):
        config = config_for(small_corpus)
        config.wage_path = str(small_corpus / "data" / "missing.csv")
        with pytest.raises(StageError) as err:
            stage_ingest(config)
        assert err.value.stage == "ingest"
        # run_id needs readable inputs, so the marker lands via run_dir of a
        # valid config; here the failure happens before run_dir resolution.
        assert "not found" in err.value.cause

    def test_failed_marker_written_inside_run_dir(self, small_corpus):
        config = config_for(small_corpus)
        run(config)  # materialize stages
        # poison the classified comments so a later stage fails
        staged = run_dir(config) / "stages" / "classified" / "mock.csv"
        staged.write_text("yyyymm,region\n")
        with pytest.raises(StageError):
            stage_index(config)
        assert (run_dir(config) / "FAILED").exists()

    @pytest.mark.parametrize("tail", [
        "1.0,0.0,0.0,Bogus,0",
        "1.0,0.0,0.0,increase,0",
        "0.0,0.0,0.0,Unrelated,7",
        "1.0,0.0,0.0,Increase,1",  # failed, so Unrelated
        "0.0,1.0,0.0,Increase,0",  # not the triple's hard label
        "0.6,0.6,0.0,Neutral,0",  # sums to 1.2
        "1.5,0.0,0.0,Increase,0",
        "1.0,0.0,0.0,Increase",
    ], ids=["unknown_label", "lowercase_label", "failed_flag_7", "failed_not_unrelated",
            "label_not_argmax", "sum_not_one", "out_of_range", "four_fields"])
    def test_a_bad_classified_answer_fails_index_with_its_line(self, small_corpus, tail):
        config = config_for(small_corpus)
        out = run(config).out_dir
        path = out / "stages" / "classified" / "mock.csv"
        lines = path.read_text().splitlines()
        month, ordinal, _ = lines[4].split(",", 2)
        lines[4] = f"{month},{ordinal},{tail}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError, match=r"mock\.csv:5: bad answer") as err:
            stage_index(config)
        assert err.value.stage == "index"

    def test_classified_months_out_of_order_fail_index(self, small_corpus):
        config = config_for(small_corpus)
        out = run(config).out_dir
        path = out / "stages" / "classified" / "mock.csv"
        header, *rows = path.read_text().splitlines()
        first = [row for row in rows if row.startswith(rows[0][:7])]
        swapped = [*rows[len(first):2 * len(first)], *first, *rows[2 * len(first):]]
        path.write_text("\n".join([header, *swapped]) + "\n")
        with pytest.raises(StageError, match=rf"mock\.csv:{len(first) + 2}: month "
                                             rf"{rows[0][:6]} out of order"):
            stage_index(config)

    def test_out_of_order_classified_ordinal_fails_index(self, small_corpus):
        config = config_for(small_corpus)
        out = run(config).out_dir
        path = out / "stages" / "classified" / "mock.csv"
        header, first, second, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, second, first, *rest]) + "\n")
        with pytest.raises(StageError, match="mock.csv:2: ordinal 1 out of order") as err:
            stage_index(config)
        assert err.value.stage == "index"
        assert (out / "FAILED").read_text().startswith("stage: index\n")


def canonical_classified(answers, months, codes):
    """The ``Classified`` of ``answers`` ((triple, failed) pairs) and the
    per-record ``codes`` into them, split into ``months`` segments, with
    its table in the form the reader builds: one row per distinct answer,
    in order of first use."""
    order = list(dict.fromkeys(c for month in codes for c in month))
    rows = [answers[c] for c in order]
    renumber = {c: i for i, c in enumerate(order)}
    return Classified.from_answers(
        [ClassProbabilities(*triple) for triple, _ in rows], [failed for _, failed in rows],
        [renumber[c] for month in codes for c in month], months,
        [0, *itertools.accumulate(map(len, codes))])


answer_triples = st.one_of(
    st.tuples(st.floats(0.001, 1), st.floats(0.001, 1), st.floats(0.001, 1)).map(
        lambda t: tuple(x / sum(t) for x in t)),
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0),
                     (0.5, 0.5, 0.0), (1 / 3, 1 / 3, 1 / 3), (-0.0, 0.0, 1.0)]))
answers = st.tuples(answer_triples, st.booleans()).map(
    lambda a: ((0.0, 0.0, 0.0), True) if a[1] else a)


class TestClassifiedCsvRoundTrip:
    @given(st.lists(answers, min_size=1, max_size=8,
                    unique_by=lambda a: (tuple(map(repr, a[0])), a[1])),
           st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
           st.data())
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_write_then_read_gives_the_codes_the_table_and_the_bytes(
            self, tmp_path, answers, offsets, data):
        from wsi.pipeline import _classified_csv, _read_classified_csv

        months = [MonthKey(1999, 12).plus(k * 13) for k in sorted(offsets)]
        codes = [data.draw(st.lists(st.integers(0, len(answers) - 1), min_size=1, max_size=12))
                 for _ in months]
        written = canonical_classified(answers, months, codes)
        text = _classified_csv(written)
        path = tmp_path / "classified.csv"
        path.write_text(text)
        read = _read_classified_csv(path)
        for column in ("u", "v", "w", "label", "failed", "codes", "bounds"):
            expected, actual = getattr(written, column), getattr(read, column)
            assert actual.dtype == expected.dtype, column
            assert actual.tobytes() == expected.tobytes(), column
        assert read.months == months
        assert _classified_csv(read) == text


class TestStagedArtifacts:
    @pytest.mark.parametrize("stage, missing", [
        ("classify", "stages/records.csv"),
        ("index", "stages/classified/mock.csv"),
        ("granger", "stages/wages.csv"),
        ("report", "summary/month.csv"),
    ], ids=lambda value: Path(value).name)
    def test_missing_ingest_artifact_fails_the_stage_that_asked(
            self, small_corpus, stage, missing):
        config = config_for(small_corpus)
        out = run(config).out_dir
        (out / missing).unlink()
        stage_fn = {"classify": stage_classify, "index": stage_index,
                    "granger": stage_granger, "report": stage_report}[stage]
        # index reads no ingest artifact; it names the backend it lacks
        message = ("no classified comments for mock" if stage == "index"
                   else "ingest artifacts missing")
        with pytest.raises(StageError, match=message) as err:
            stage_fn(config)
        assert err.value.stage == stage
        assert (out / "FAILED").read_text().startswith(f"stage: {stage}\n")

    def test_stages_handed_results_in_memory_write_the_run_tree(self, small_corpus, monkeypatch):
        import wsi.pipeline

        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        out = run(config).out_dir
        expected = tree_bytes(out)
        for path in out.rglob("*"):
            if path.is_file():
                path.unlink()

        staged = StagedRun(config, compute_run_id(config))
        stage_ingest(config, staged=staged)
        # every later stage is served from memory, never from stages/
        monkeypatch.setattr(wsi.pipeline, "load_surveys", None)
        monkeypatch.setattr(wsi.pipeline, "load_wages", None)
        for backend in backends:
            classified, _ = stage_classify(config, only_backend=backend.backend_id,
                                           staged=staged)
            assert list(classified) == [backend.backend_id]
        series = stage_index(config, staged=staged)
        sweeps, failures = stage_granger(config, staged=staged)
        bundle = stage_report(config, staged=staged)
        assert (staged.series, staged.sweeps, staged.get_stats("granger")["failures"]) == (
            series, sweeps, failures)
        assert bundle.sweeps == sweeps
        assert tree_bytes(out) == expected

    def test_report_on_a_swept_staged_run_reuses_its_results(self, small_corpus, monkeypatch):
        import wsi.pipeline

        config = config_for(small_corpus)
        staged = StagedRun(config, compute_run_id(config))
        for stage in (stage_ingest, stage_classify, stage_index, stage_granger):
            stage(config, staged=staged)
        before = tree_bytes(staged.out)
        read = []
        real_read_json = wsi.pipeline._read_json
        monkeypatch.setattr(wsi.pipeline, "_read_json",
                            lambda path: read.append(path.name) or real_read_json(path))
        monkeypatch.setattr(wsi.pipeline, "build_series", None)
        monkeypatch.setattr(wsi.pipeline, "granger_sweep", None)
        stage_report(config, staged=staged).validate()
        assert read == []  # every stage's stats came from the StagedRun
        assert tree_bytes(staged.out).items() >= before.items()

    def test_run_reads_back_no_stage_json(self, small_corpus, monkeypatch):
        import wsi.pipeline

        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        first = run(config)
        before = tree_bytes(first.out_dir)
        read = []
        real_read_json = wsi.pipeline._read_json
        monkeypatch.setattr(wsi.pipeline, "_read_json",
                            lambda path: read.append(path.name) or real_read_json(path))
        # the second run finds every stage's JSON from the first on disk
        second = run(config)
        assert read == []
        assert second.stats["classify"] == first.stats["classify"]
        assert set(second.stats["classify"]) == {"mock", "baseline"}
        assert tree_bytes(second.out_dir) == before

    def test_get_series_of_a_finished_run_equals_the_index_stages(self, small_corpus):
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        finished = StagedRun(config, compute_run_id(config))
        for stage in (stage_ingest, stage_classify, stage_index, stage_granger, stage_report):
            stage(config, staged=finished)
        fresh = StagedRun(config, finished.run_id)
        assert fresh.get_series() == finished.series
        assert fresh.get_stats("index") == finished.get_stats("index")
        assert fresh.sweeps is None  # the series alone need no granger

    def test_granger_and_report_rebuild_a_garbled_series_and_lost_index_stats(
            self, small_corpus):
        config = config_for(small_corpus)
        result = run(config)
        out = result.out_dir
        expected = tree_bytes(out)
        (out / "series" / "mock.csv").write_text("yyyymm,garbage\n200001,x\n")
        (out / "stages" / "index.json").unlink()
        sweeps, failures = stage_granger(config)
        assert (sweeps, failures) == (result.bundle.sweeps, {})
        stage_report(config).validate()
        assert tree_bytes(out) == expected

    def test_granger_without_index_writes_the_tree_run_writes(self, small_corpus):
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        expected = tree_bytes(run(config_for(small_corpus, backends=backends)).out_dir)
        config = config_for(small_corpus, backends=backends,
                            output_dir=str(small_corpus / "staged"))
        stage_ingest(config)
        stage_classify(config)
        stage_granger(config)  # with no `wsi index` before it
        written = tree_bytes(run_dir(config))
        report_files = {"manifest.json", "charts", "tables"}
        assert written == {name: data for name, data in expected.items()
                           if name.split("/")[0] not in report_files}
        stage_report(config)
        assert tree_bytes(run_dir(config)) == expected

    def test_report_rerun_parses_no_records_and_keeps_the_tree(
            self, small_corpus, monkeypatch):
        import wsi.pipeline

        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        out = run(config).out_dir
        before = tree_bytes(out)

        calls = []
        real_load_surveys = wsi.pipeline.load_surveys

        def counting_load_surveys(paths, *args):
            calls.append(list(paths))
            return real_load_surveys(calls[-1], *args)

        monkeypatch.setattr(wsi.pipeline, "load_surveys", counting_load_surveys)
        stage_report(config).validate()
        assert calls == []
        assert tree_bytes(out) == before

    def test_index_and_report_rerun_without_records_keep_the_tree(self, small_corpus):
        backends = [BackendConfig(backend_id="mock", kind="keyword"),
                    BackendConfig(backend_id="baseline", kind="lexicon")]
        config = config_for(small_corpus, backends=backends)
        out = run(config).out_dir
        (out / "stages" / "records.csv").unlink()
        before = tree_bytes(out)
        stage_index(config)
        stage_report(config).validate()
        assert tree_bytes(out) == before


class TestConfig:
    def test_from_file_round_trip(self, small_corpus):
        raw = {
            "surveys": str(small_corpus / "data" / "surveys"),
            "wages": str(small_corpus / "data" / "wages.csv"),
            "backends": [
                {"id": "mock", "kind": "keyword"},
                {"id": "remote", "kind": "http", "endpoint": "http://localhost:1/",
                 "model": "m1", "fallback_model": "m2", "batch_size": 4},
            ],
            "normalization": "raw_sum",
            "max_lag": 12,
            "lexicon": {"window": "rolling:24", "smoothing": "none"},
            "seed": 9,
        }
        path = small_corpus / "config.json"
        path.write_text(json.dumps(raw))
        config = RunConfig.from_file(path)
        assert config.normalization == "raw_sum"
        assert config.max_lag == 12
        assert config.lexicon.window == "rolling:24"
        assert config.backends[1].fallback_model_id == "m2"
        assert config.seed == 9

    def test_validation(self, small_corpus):
        with pytest.raises(ConfigError):
            RunConfig(survey_paths=["x"], wage_path="y", backends=[])
        with pytest.raises(ConfigError):
            config_for(small_corpus, max_lag=0)
        with pytest.raises(ConfigError):
            config_for(small_corpus, normalization="median")
        with pytest.raises(ConfigError, match="translation.backend"):
            config_for(small_corpus, translation_backend="bogus")
        with pytest.raises(ConfigError):
            config_for(small_corpus, backends=[
                BackendConfig(backend_id="a", kind="keyword"),
                BackendConfig(backend_id="a", kind="keyword"),
            ])
        with pytest.raises(ConfigError):
            BackendConfig(backend_id="r", kind="http")  # endpoint required

    @pytest.mark.parametrize("key, value, kind", [
        ("classify_parallelism", 0, "http"),
        ("classify_parallelism", -3, "http"),
        ("translation.parallelism", 0, "http"),
        ("translation.batch_size", 0, "http"),
        ("backend.batch_size", 0, "keyword"),
        ("backend.batch_size", 0, "http"),
        ("backend.max_retries", -1, "http"),
        ("backend.timeout", 0, "http"),
        ("backend.timeout", float("nan"), "http"),
        ("backend.timeout", float("inf"), "http"),
    ])
    def test_execution_knob_out_of_range_fails_before_any_run_directory(
            self, small_corpus, key, value, kind):
        backend = {"id": "b", "kind": kind, "endpoint": "http://localhost:1/"}
        raw = {"surveys": str(small_corpus / "data" / "surveys"),
               "wages": str(small_corpus / "data" / "wages.csv"),
               "output_dir": str(small_corpus / "out"), "backends": [backend]}
        section, _, name = key.rpartition(".")
        if section == "backend":
            backend[name] = value
        elif section == "translation":
            raw["translation"] = {name: value}
        else:
            raw[name] = value
        with pytest.raises(ConfigError, match=name):
            run(RunConfig.from_dict(raw))
        assert not (small_corpus / "out").exists()

    def test_null_optional_backend_strings_stay_allowed(self):
        config = RunConfig.from_dict({"surveys": "s", "wages": "w.csv", "backends": [
            {"id": "r", "kind": "http", "endpoint": "http://localhost:1/",
             "model": None, "fallback_model": None}]})
        backend = config.backends[0]
        assert (backend.model_id, backend.fallback_model_id) == (None, None)

    def test_custom_keyword_rules_from_config(self, small_corpus):
        raw = {
            "surveys": str(small_corpus / "data" / "surveys"),
            "wages": str(small_corpus / "data" / "wages.csv"),
            "backends": [{
                "id": "custom", "kind": "keyword",
                "rules": [[["bonus"], [1.0, 0.0, 0.0]], [["cut"], [0.0, 1.0, 0.0]]],
            }],
        }
        config = RunConfig.from_dict(raw)
        assert config.backends[0].rules == ((("bonus",), (1.0, 0.0, 0.0)),
                                            (("cut",), (0.0, 1.0, 0.0)))

    @pytest.mark.parametrize("keyword", ["pay-cut", "pay cut", "", "賃上げ"])
    def test_keyword_that_is_not_one_token_rejected(self, keyword):
        """Comments split into lowercase [a-z0-9]+ runs, which such a keyword never is."""
        with pytest.raises(ConfigError, match=r"rules\[1\] must be .*one \[a-z0-9\]\+ token"):
            BackendConfig.from_dict({"id": "k", "kind": "keyword", "rules": [
                [["Raise", "pay2"], [1, 0, 0]], [["cut", keyword], [0, 1, 0]]]})

    def test_integer_rule_probabilities_write_float_answers(self, small_corpus):
        """The answer table holds float64, so a rule's [0, 1, 0] is written 0.0,1.0,0.0."""
        trees = []
        for i, triple in enumerate(([0.0, 1.0, 0.0], [0, 1, 0])):
            backends = [BackendConfig.from_dict(
                {"id": "custom", "kind": "keyword", "rules": [[["cut"], triple]]})]
            config = config_for(small_corpus, backends=backends,
                                output_dir=str(small_corpus / f"out{i}"))
            stage_ingest(config)
            stage_classify(config)
            trees.append(tree_bytes(run_dir(config))["stages/classified/custom.csv"])
        assert trees[0] == trees[1] and b",0.0,1.0,0.0,Decrease,0\n" in trees[0]


class TestNormalizationModes:
    def test_raw_sum_scales_with_month_size(self, small_corpus):
        per_comment = run(config_for(small_corpus, normalization="per_comment"))
        literal_config = config_for(small_corpus, normalization="raw_sum")
        literal = run(literal_config)
        pc_points = per_comment.bundle.series["mock"]
        lit_points = literal.bundle.series["mock"]
        for a, b in zip(pc_points, lit_points):
            assert b.wsi_weighted == pytest.approx(a.wsi_weighted * a.counts.total,
                                                   rel=1e-9)
