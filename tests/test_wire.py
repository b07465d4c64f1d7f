import errno
import hashlib
import json
import shlex
import sqlite3
import subprocess
import sys
import time
from contextlib import closing, contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsi.wire import (ContentCache, HttpTransport, SubprocessTransport, TransportError,
                      fetch_cached, map_batches, retry)

from conftest import WIRE_STUB


def flaky(failures, value="ok"):
    calls = []

    def call():
        calls.append(None)
        if len(calls) <= failures:
            raise TransportError(f"failure {len(calls)}")
        return value

    return call, calls


def test_retry_backs_off_exponentially_and_counts_attempts():
    sleeps = []
    call, calls = flaky(failures=1)
    assert retry(call, max_retries=3, sleep=sleeps.append) == ("ok", 2)
    assert sleeps == [0.1]

    sleeps.clear()
    call, calls = flaky(failures=10)
    assert retry(call, max_retries=2, sleep=sleeps.append) == (None, 3)
    assert len(calls) == 3
    assert sleeps == [0.1, 0.2]


def test_retry_lets_other_errors_through():
    def call():
        raise KeyError("a bug, not a wire failure")

    with pytest.raises(KeyError):
        retry(call, max_retries=2, sleep=lambda s: None)


@pytest.mark.parametrize("parallelism", [1, 3, 8])
def test_map_batches_keeps_batch_order_whatever_finishes_first(parallelism):
    items = list(range(10))

    def call(batch):
        time.sleep(0.01 * (10 - batch[0]) / 10)  # later batches finish first
        return sum(batch)

    assert map_batches(items, 4, parallelism, call) == [
        ([0, 1, 2, 3], 6), ([4, 5, 6, 7], 22), ([8, 9], 17)]
    assert map_batches([], 4, parallelism, call) == []


@pytest.mark.parametrize("batch_size, parallelism", [(0, 1), (1, 0), (-2, 4)])
def test_map_batches_rejects_sizes_below_one(batch_size, parallelism):
    with pytest.raises(ValueError):
        map_batches([1, 2], batch_size, parallelism, len)


# any code point, lone surrogates included, with the ones JSON escapes drawn often
KEY_PARTS = st.text(st.one_of(st.characters(exclude_categories=()),
                              st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u65e5\ud800\udfff')))


@given(st.lists(KEY_PARTS, max_size=5).map(tuple))
def test_the_cache_digest_is_the_sha256_of_the_keys_json_list(key):
    expected = hashlib.sha256(json.dumps(list(key)).encode("utf-8")).hexdigest()
    assert ContentCache.digest(key) == expected


def test_content_cache_reads_a_damaged_entry_as_a_miss(tmp_path):
    cache = ContentCache(tmp_path)
    cache.write(("key", "1"), '{"value": 7}')
    assert cache.read(("key", "1"), lambda entry: entry["value"]) == 7
    assert cache.read(("key", "2"), lambda entry: entry["value"]) is None
    assert cache.read(("key", "1"), lambda entry: entry["other"]) is None
    with closing(sqlite3.connect(cache.file)) as db, db:
        db.execute("UPDATE entries SET value = ?", ('{"value": ',))
    assert cache.read(("key", "1"), lambda entry: entry["value"]) is None
    cache.close()
    assert [p.name for p in tmp_path.iterdir()] == ["content.sqlite"]


def test_child_that_never_reads_cannot_block_a_large_request():
    transport = SubprocessTransport(f"exec {sys.executable} -c 'import time; time.sleep(60)'",
                                    timeout=0.5)
    started = time.perf_counter()
    with pytest.raises(TransportError, match="did not answer"):
        transport({"texts": ["x" * 1000] * 200})  # more than a pipe buffer holds
    assert time.perf_counter() - started < 0.5 + 2.0
    assert transport._proc is None
    transport.close()


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe",
    b"not a status line\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
], ids=["body-not-utf8", "bad-status-line", "short-body"])
def test_a_malformed_http_reply_is_a_transport_error(raw_server, reply):
    raw_server.reply = reply
    with pytest.raises(TransportError, match="http call"):
        HttpTransport(raw_server.url, timeout=5.0)({"texts": ["x"]})


def test_a_child_reply_line_that_is_not_utf8_is_a_transport_error():
    child = "import sys\nsys.stdin.readline()\nsys.stdout.buffer.write(b'\\xff\\xfe\\n')\n"
    transport = SubprocessTransport(f"exec {sys.executable} -c {shlex.quote(child)}", 5.0)
    with pytest.raises(TransportError, match="malformed child process line"):
        transport({"texts": ["x"]})
    transport.close()


def failing_popen(monkeypatch, failures):
    """``subprocess.Popen`` raising EAGAIN on its first ``failures`` calls."""
    popen, starts = subprocess.Popen, []

    def start(*args, **kwargs):
        starts.append(None)
        if len(starts) <= failures:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", start)
    return starts


def test_a_child_that_cannot_start_fails_one_call_and_the_next_starts_one(monkeypatch):
    starts = failing_popen(monkeypatch, failures=1)
    transport = SubprocessTransport(f"{sys.executable} {WIRE_STUB}", 5.0)
    with pytest.raises(TransportError, match="Resource temporarily unavailable"):
        transport({"texts": ["x"]})
    assert transport._proc is None
    assert transport({"texts": ["x"]}) == {"translations": ["X"]}
    assert len(starts) == 2
    transport.close()


def test_a_classifier_child_that_never_starts_fails_its_comments_not_the_run(
        monkeypatch, tmp_path):
    from wsi.pipeline import BackendConfig, RunConfig, run
    from wsi.synthetic import SyntheticSpec, generate_synthetic

    generate_synthetic(SyntheticSpec(months=12, comments_per_month=10), 2, tmp_path / "data")
    starts = failing_popen(monkeypatch, failures=10**6)
    backend = BackendConfig(backend_id="child", kind="subprocess", model_id="m",
                            fallback_model_id="f", endpoint=f"{sys.executable} {WIRE_STUB}",
                            max_retries=0)
    result = run(RunConfig(survey_paths=[str(tmp_path / "data" / "surveys")],
                           wage_path=str(tmp_path / "data" / "wages.csv"), backends=[backend],
                           max_lag=2, output_dir=str(tmp_path / "out"),
                           cache_dir=str(tmp_path / "cache")))
    assert result.stats["classify"]["child"]["failed_comments"] == 12 * 10
    assert result.stats["wire_calls"] == {"child": len(starts)} and len(starts) >= 2
    rows = (result.out_dir / "stages" / "classified" / "child.csv").read_text().splitlines()
    assert len(rows) == 1 + 12 * 10 and all(row.endswith(",Unrelated,1") for row in rows[1:])


class RecordingCache:
    """A cache stand-in: ``entries`` to read, and the writes, each with
    whether it happened inside a transaction."""

    def __init__(self, entries):
        self.entries = entries
        self.reads, self.writes = [], []
        self.transactions = 0
        self.open = False

    @contextmanager
    def transaction(self):
        self.transactions += 1
        self.open = True
        yield
        self.open = False

    def read(self, text):
        self.reads.append(text)
        return self.entries.get(text)

    def write(self, text, answer):
        self.writes.append((text, answer, self.open))


@settings(max_examples=200)
@given(texts=st.lists(st.text(max_size=3), unique=True, max_size=30), data=st.data(),
       batch_size=st.integers(1, 6), parallelism=st.integers(1, 4))
def test_fetch_cached_fetches_the_misses_in_batches_and_stores_fresh_answers(
        texts, data, batch_size, parallelism):
    def flags(n, values=st.booleans()):
        return data.draw(st.lists(values, min_size=n, max_size=n))

    cached = flags(len(texts))
    cache = RecordingCache({t: f"cached {t}" for t, hit in zip(texts, cached) if hit})
    misses = [t for t, hit in zip(texts, cached) if not hit]
    batches = [misses[i: i + batch_size] for i in range(0, len(misses), batch_size)]
    failed, attempts = flags(len(batches)), flags(len(batches), st.integers(1, 3))
    fetched = []

    def fetch(batch):
        fetched.append(list(batch))
        k = misses.index(batch[0]) // batch_size
        return (None if failed[k] else [f"fetched {t}" for t in batch]), attempts[k]

    answers, calls = fetch_cached(texts, fetch, batch_size, parallelism, cache=cache,
                                  read=cache.read, write=cache.write)
    lost = {t for batch, f in zip(batches, failed) if f for t in batch}
    assert answers == [f"cached {t}" if hit else None if t in lost else f"fetched {t}"
                       for t, hit in zip(texts, cached)]
    assert cache.reads == texts
    assert sorted(fetched, key=lambda batch: misses.index(batch[0])) == batches
    fresh = [t for t in misses if t not in lost]
    assert cache.writes == [(t, f"fetched {t}", True) for t in fresh]
    assert cache.transactions == (1 if fresh else 0)
    assert calls == sum(attempts)
