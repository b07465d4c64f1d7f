import hashlib
import json
import sqlite3
import sys
import time
from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wsi.wire import ContentCache, SubprocessTransport, TransportError, map_batches, retry


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
