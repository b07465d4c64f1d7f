"""The content caches: one SQLite file per kind, shared between processes,
read as misses where damaged, and keyed by exactly what a wire answer
depends on."""

import gc
import json
import logging
import os
import signal
import sqlite3
import subprocess
import sys
import threading
from contextlib import closing, contextmanager
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wsi.pipeline as pipeline
import wsi.wire as wire
from wsi.classify import PROMPT_VERSION, ClassProbabilities, RemoteClassifier
from wsi.corpus import Corpus
from wsi.pipeline import BackendConfig, ClassificationCache, RunConfig, StagedRun, run
from wsi.synthetic import SyntheticSpec, generate_synthetic
from wsi.translate import RemoteTranslator, TranslationCache, translate_all
from wsi.wire import ContentCache, endpoint_identity

from conftest import WIRE_STUB, make_record

STUB = f"cmd:{sys.executable} {WIRE_STUB}"


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    base = tmp_path_factory.mktemp("data")
    generate_synthetic(SyntheticSpec(months=24, comments_per_month=20), seed=3, out_dir=base)
    return base


def stub_config(data, base) -> dict:
    """A run whose classifier and translator are both the child-process stub."""
    return {"surveys": str(data / "surveys"), "wages": str(data / "wages.csv"),
            "backends": [{"id": "child", "kind": "subprocess", "model": "m", "endpoint": STUB}],
            "translation": {"backend": STUB}, "max_lag": 4,
            "output_dir": str(base / "out"), "cache_dir": str(base / "cache")}


def test_a_row_that_is_not_json_or_lacks_a_probability_reads_as_a_miss(tmp_path):
    cache = ClassificationCache(tmp_path)
    probs = ClassProbabilities(0.5, 0.25, 0.25)
    damaged = {"not json": '{"u": 0.5, "v": 0.25', "no u": '{"v": 0.25, "w": 0.25}',
               "no w": '{"u": 0.5, "v": 0.25}', "a list": "[0.5, 0.25, 0.25]",
               "no triple": '{"u": 2, "v": 0, "w": 0}'}
    for comment in [*damaged, "kept"]:
        cache.put(comment, "http://h/", "m", probs)
    with closing(sqlite3.connect(cache.file)) as db, db:
        for comment, value in damaged.items():
            digest = ClassificationCache.digest((comment, "http://h", "m", PROMPT_VERSION))
            assert db.execute("UPDATE entries SET value = ? WHERE digest = ?",
                              (value, digest)).rowcount == 1
    assert [cache.get(comment, "http://h/", "m") for comment in damaged] == [None] * 5
    assert cache.get("kept", "http://h/", "m") == probs
    cache.close()


def test_a_cache_file_that_is_not_a_database_is_bypassed(data, tmp_path, caplog):
    cold = run(RunConfig.from_dict(stub_config(data, tmp_path / "cold")))
    cache_dir = tmp_path / "garbage" / "cache"
    cache_dir.mkdir(parents=True)
    garbage = b"these bytes are no SQLite database\n" * 50
    for kind in ("classify", "translate"):
        (cache_dir / f"{kind}.sqlite").write_bytes(garbage)
    with caplog.at_level(logging.WARNING, logger="wsi"):
        bypassed = run(RunConfig.from_dict(stub_config(data, tmp_path / "garbage")))
    warnings = [r.getMessage() for r in caplog.records if "not usable" in r.getMessage()]
    assert len(warnings) == 2  # one per file
    assert any("classify.sqlite" in w for w in warnings)
    assert any("translate.sqlite" in w for w in warnings)
    # every read missed, so the run asked the wire as the cold run did
    assert bypassed.stats == cold.stats and cold.stats["wire_calls"]["child"] > 0
    assert tree_bytes(bypassed.out_dir) == tree_bytes(cold.out_dir)
    # and nothing was written
    assert sorted(p.name for p in cache_dir.iterdir()) == ["classify.sqlite", "translate.sqlite"]
    assert all(p.read_bytes() == garbage for p in cache_dir.iterdir())


@contextmanager
def held_by_another_writer(cache_dir, monkeypatch):
    """Both cache files inside another connection's write transaction, and
    a busy timeout short enough for a test to wait out."""
    monkeypatch.setattr(wire, "BUSY_TIMEOUT_S", 0.2)
    holders = []
    try:
        for cache_cls in (ClassificationCache, TranslationCache):
            cache_cls(cache_dir).close()  # creates the file
            holders.append(sqlite3.connect(cache_dir / f"{cache_cls.kind}.sqlite",
                                           isolation_level=None))
            holders[-1].execute("BEGIN IMMEDIATE")
        yield "locked"
    finally:
        for holder in holders:
            holder.close()  # rolls the held transaction back


@contextmanager
def opened_read_only(cache_dir, monkeypatch):
    """Every cache connection opened with ``PRAGMA query_only=ON``."""
    open_cache = ContentCache.__init__

    def open_read_only(self, directory):
        open_cache(self, directory)
        self._db.execute("PRAGMA query_only=ON")

    with monkeypatch.context() as patch:
        patch.setattr(ContentCache, "__init__", open_read_only)
        yield "readonly"


@pytest.mark.parametrize("unwritable", [held_by_another_writer, opened_read_only],
                         ids=["locked", "read-only"])
def test_a_cache_that_cannot_be_written_fails_no_stage(data, tmp_path, monkeypatch, caplog,
                                                        unwritable):
    cold = run(RunConfig.from_dict(stub_config(data, tmp_path / "cold")))
    config = RunConfig.from_dict(stub_config(data, tmp_path / "unwritable"))
    with unwritable(tmp_path / "unwritable" / "cache", monkeypatch) as cause, \
            caplog.at_level(logging.WARNING, logger="wsi"):
        unstored = run(config)
    warnings = [r.getMessage() for r in caplog.records if "not written" in r.getMessage()]
    assert len(warnings) == 2  # one per cache file
    assert all(cause in w for w in warnings)
    assert any("classify.sqlite" in w for w in warnings)
    assert any("translate.sqlite" in w for w in warnings)
    assert unstored.stats == cold.stats and cold.stats["wire_calls"]["child"] > 0
    assert tree_bytes(unstored.out_dir) == tree_bytes(cold.out_dir)
    # nothing was stored, so the next run fetches and stores it all, and the one after is warm
    assert run(config).stats == cold.stats
    warm = run(config)
    assert warm.stats["translation_calls"] == 0 and warm.stats["wire_calls"] == {"child": 0}
    assert tree_bytes(warm.out_dir) == tree_bytes(cold.out_dir)


KILLED_WRITER = """
import sys, time
from wsi.wire import ContentCache

cache = ContentCache(sys.argv[1])
with cache.transaction():
    for i in range(50):
        cache.write(("committed", str(i)), '{"value": %d}' % i)
with cache.transaction():
    for i in range(50):
        cache.write(("pending", str(i)), '{"value": %d}' % i)
    print("inside", flush=True)
    time.sleep(60)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_writer_killed_inside_a_transaction_leaves_a_readable_cache(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", KILLED_WRITER, str(tmp_path)],
                             stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"inside\n"
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait()
        child.stdout.close()

    def value(entry):
        return entry["value"]

    cache = ContentCache(tmp_path)
    assert [cache.read(("committed", str(i)), value) for i in range(50)] == list(range(50))
    assert [cache.read(("pending", str(i)), value) for i in range(50)] == [None] * 50
    cache.write(("after", "0"), '{"value": 0}')
    assert cache.read(("after", "0"), value) == 0
    cache.close()
    assert [p.name for p in tmp_path.iterdir()] == ["content.sqlite"]  # no *.tmp, no WAL


def test_a_write_from_another_thread_fails_loudly(tmp_path):
    cache = ContentCache(tmp_path)
    errors = []

    def write():
        try:
            cache.write(("key",), "1")
        except sqlite3.ProgrammingError as exc:
            errors.append(exc)

    thread = threading.Thread(target=write)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and len(errors) == 1
    assert cache.read(("key",), int) is None
    cache.close()


def run_cli(config_path):
    return subprocess.Popen([sys.executable, "-m", "wsi.cli", "run", "--config", str(config_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finished_stats(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.split("\n", 1)[1])  # after the "run <id> complete" line


def test_two_processes_share_one_cache(data, tmp_path):
    shared = stub_config(data, tmp_path)
    paths = []
    for name in ("first", "second", "third"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({**shared, "output_dir": str(tmp_path / name)}))
    concurrent = [run_cli(path) for path in paths[:2]]
    for stats in map(finished_stats, concurrent):
        assert stats["translation_failed"] == 0
        assert stats["classify"]["child"]["failed_comments"] == 0
    third = finished_stats(run_cli(paths[2]))
    assert third["translation_calls"] == 0 and third["wire_calls"] == {"child": 0}
    trees = [tree_bytes(next((tmp_path / name).iterdir())) for name in ("first", "second", "third")]
    assert trees[0] == trees[1] == trees[2]
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [
        "classify.sqlite", "translate.sqlite"]


def open_connections():
    count = 0
    for obj in gc.get_objects():
        if isinstance(obj, sqlite3.Connection):
            try:
                obj.total_changes
            except sqlite3.ProgrammingError:  # closed
                continue
            count += 1
    return count


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
def test_warm_runs_in_one_process_leave_no_connection_or_file_open(data, tmp_path):
    config = RunConfig.from_dict(stub_config(data, tmp_path))
    run(config)  # fills the caches
    counts = []
    for _ in range(20):
        warm = run(config)
        assert warm.stats["translation_calls"] == 0 and warm.stats["wire_calls"] == {"child": 0}
        counts.append((len(os.listdir("/proc/self/fd")), open_connections()))
    assert counts == [counts[0]] * 20


# Every setting a remote classifier or the translation reads, from the
# settings table, and whether the wire's answer can depend on it: those
# must change the cache key, the others must not, so a warm rerun stays
# warm. "endpoint" and "translation_backend" change it with their
# endpoint identity; "backend_id" names the model when "model_id" is unset.
CACHE_KEY_SETTINGS = {
    "backend_id": None, "kind": False, "endpoint": None, "model_id": True,
    "fallback_model_id": True, "batch_size": False, "max_retries": False, "timeout": False,
    "translation_backend": None, "translation_source": True, "translation_target": True,
    "translation_parallelism": False, "translation_batch_size": False,
    "classify_parallelism": False,
}
KEYWORD_ONLY_SETTINGS = {"rules"}
VALUES = {
    "backend_id": st.sampled_from(["b1", "b2"]),
    "kind": st.sampled_from(["http", "subprocess"]),
    "endpoint": st.sampled_from(["http://h/", "http://h", "http://h:81/", "cmd:stub a",
                                 "stub a", "cmd:stub b"]),
    "model_id": st.sampled_from([None, "m1", "m2"]),
    "fallback_model_id": st.sampled_from([None, "f1", "f2"]),
    "batch_size": st.integers(1, 64),
    "max_retries": st.integers(0, 10),
    "timeout": st.floats(0.1, 3600.0),
    "translation_backend": st.sampled_from(["http://t/", "http://t", "http://t//", "cmd:tr a"]),
    "translation_source": st.sampled_from(["ja", "ko"]),
    "translation_target": st.sampled_from(["en", "de"]),
    "translation_parallelism": st.integers(1, 8),
    "translation_batch_size": st.integers(1, 100),
    "classify_parallelism": st.integers(1, 8),
    "prompt_version": st.sampled_from([PROMPT_VERSION, "v-next"]),
}


def test_the_key_table_names_every_setting_a_remote_run_reads():
    backend = {f.name for f in fields(BackendConfig)}
    translation = {f.name for f in fields(RunConfig)
                   if f.metadata.get("key", "").startswith("translation.")}
    assert backend | translation | {"classify_parallelism"} == \
        set(CACHE_KEY_SETTINGS) | KEYWORD_ONLY_SETTINGS
    assert set(VALUES) == set(CACHE_KEY_SETTINGS) | {"prompt_version"}


def changes_key(name, before, after):
    if name == "prompt_version":
        return True
    if name in ("endpoint", "translation_backend"):
        return endpoint_identity(before[name]) != endpoint_identity(after[name])
    if name == "backend_id":
        return before["model_id"] is None
    return CACHE_KEY_SETTINGS[name]


READ_KEYS = []


class KeyRecorder:
    """Mixed into a cache class: logs each key read, misses, stores nothing."""

    def read(self, key, decode):
        READ_KEYS.append(key)

    def write(self, key, text):
        pass


class FakeWire:
    """A transport answering both wire protocols in process."""

    def __init__(self, endpoint, timeout):
        pass

    def __call__(self, payload):
        if "comments" in payload:
            return {"probabilities": [[0.0, 0.0, 1.0]] * len(payload["comments"])}
        return {"translations": [text.upper() for text in payload["texts"]]}

    def close(self):
        pass


@pytest.fixture
def one_comment(tmp_path, monkeypatch):
    """A one-record corpus, with the stages' caches logging the keys they read."""
    (tmp_path / "surveys").mkdir()
    (tmp_path / "surveys" / "202001.csv").write_text(
        "yyyymm,region,industry,judgment,comment\n202001,Kanto,retail,Good,wages went up\n")
    (tmp_path / "wages.csv").write_text("yyyymm,level\n202001,100.0\n")
    monkeypatch.setattr(wire, "transport", FakeWire)
    monkeypatch.setattr(pipeline, "ClassificationCache",
                        type("Classify", (KeyRecorder, ClassificationCache), {}))
    monkeypatch.setattr(pipeline, "TranslationCache",
                        type("Translate", (KeyRecorder, TranslationCache), {}))
    return tmp_path


def keys_read(base, values):
    """The cache keys a run under ``values`` reads, translation then classification."""
    backend = BackendConfig(**{name: values[name] for name in
                               ("backend_id", "kind", "endpoint", "model_id",
                                "fallback_model_id", "batch_size", "max_retries", "timeout")})
    config = RunConfig(
        survey_paths=[str(base / "surveys")], wage_path=str(base / "wages.csv"),
        backends=[backend], output_dir=str(base / "out"), cache_dir=str(base / "cache"),
        **{name: values[name] for name in CACHE_KEY_SETTINGS if name in {
            f.name for f in fields(RunConfig)}})
    READ_KEYS.clear()
    with mock.patch.object(pipeline, "PROMPT_VERSION", values["prompt_version"]):
        staged = StagedRun(config, pipeline.compute_run_id(config))
        pipeline.stage_ingest(config, staged=staged)
        pipeline.stage_classify(config, staged=staged)
    return list(READ_KEYS)


@pytest.mark.parametrize("name", sorted(VALUES))
@settings(max_examples=10, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_the_cache_key_changes_exactly_with_what_the_wire_answer_depends_on(
        one_comment, name, draw):
    before = {key: draw.draw(values, label=key) for key, values in VALUES.items()}
    after = {**before, name: draw.draw(VALUES[name].filter(lambda v: v != before[name]),
                                       label=f"varied {name}")}
    keys = keys_read(one_comment, before)
    assert len(keys) >= 2  # translation, then classification
    assert (keys_read(one_comment, after) != keys) == changes_key(name, before, after)


def translate_comments(cache, comments):
    corpus = Corpus.from_records([make_record(comment=c) for c in comments])
    translator = RemoteTranslator("cmd:stub")
    try:
        return translate_all(corpus, translator, source="ja", target="en", batch_size=10,
                             cache=cache)
    finally:
        translator.close()


def classify_comments(cache, comments):
    backend = BackendConfig(backend_id="r", kind="subprocess", endpoint="cmd:stub")
    return pipeline.CachedRemoteClassifier(RemoteClassifier(backend), cache).classify_batch(
        comments)


def wire_calls(result):
    return result.backend_calls if hasattr(result, "backend_calls") else result.wire_calls


@pytest.mark.parametrize("cache_cls, stage", [
    (TranslationCache, translate_comments), (ClassificationCache, classify_comments)],
    ids=["translate", "classify"])
def test_a_warm_stage_reads_past_another_writer_and_a_cold_one_waits_for_it(
        tmp_path, monkeypatch, caplog, cache_cls, stage):
    monkeypatch.setattr(wire, "transport", FakeWire)
    monkeypatch.setattr(wire, "BUSY_TIMEOUT_S", 0.2)
    with closing(cache_cls(tmp_path)) as cache:
        stage(cache, ["a", "b"])
    file = tmp_path / f"{cache_cls.kind}.sqlite"
    with closing(sqlite3.connect(file, isolation_level=None)) as holder, \
            closing(cache_cls(tmp_path)) as cache:
        holder.execute("BEGIN IMMEDIATE")  # another process is writing
        warm = stage(cache, ["b", "a"])  # nothing to store, so no write lock wanted
        with caplog.at_level(logging.WARNING, logger="wsi"):
            cold = stage(cache, ["a", "c"])  # "c" waits for the other writer, then is not stored
        assert not cache._db.in_transaction
    warnings = [r.getMessage() for r in caplog.records if "not written" in r.getMessage()]
    assert len(warnings) == 1 and "locked" in warnings[0]
    if cache_cls is TranslationCache:
        assert (warm.backend_calls, warm.failed_indices) == (0, [])
        assert (cold.backend_calls, cold.failed_indices) == (1, [])
        assert cold.corpus.comments == ["a", "c"] and cold.corpus.translations == ["A", "C"]
    else:
        assert (warm.wire_calls, warm.failed) == (0, [False, False])
        assert (cold.wire_calls, cold.failed) == (1, [False, False])
    with closing(cache_cls(tmp_path)) as cache:  # the writer is gone: "c" is fetched and stored
        assert [wire_calls(stage(cache, ["c"])) for _ in range(2)] == [1, 0]
