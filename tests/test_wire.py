import sys
import time

import pytest

from wsi.wire import ContentCache, SubprocessTransport, TransportError, retry


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
    assert retry(call, max_retries=3, base_delay=0.1, sleep=sleeps.append) == ("ok", 2)
    assert sleeps == [0.1]

    sleeps.clear()
    call, calls = flaky(failures=10)
    assert retry(call, max_retries=2, base_delay=0.1, sleep=sleeps.append) == (None, 3)
    assert len(calls) == 3
    assert sleeps == [0.1, 0.2]


def test_retry_lets_other_errors_through():
    def call():
        raise KeyError("a bug, not a wire failure")

    with pytest.raises(KeyError):
        retry(call, max_retries=2, base_delay=0.0)


def test_content_cache_reads_a_damaged_entry_as_a_miss(tmp_path):
    cache = ContentCache(tmp_path)
    cache.write(("key", 1), '{"value": 7}')
    assert cache.read(("key", 1), lambda entry: entry["value"]) == 7
    assert cache.read(("key", 2), lambda entry: entry["value"]) is None
    assert cache.read(("key", 1), lambda entry: entry["other"]) is None
    cache.path(("key", 1)).write_text('{"value": ', encoding="utf-8")
    assert cache.read(("key", 1), lambda entry: entry["value"]) is None
    assert not list(tmp_path.rglob("*.tmp"))


def test_child_that_never_reads_cannot_block_a_large_request():
    transport = SubprocessTransport(f"exec {sys.executable} -c 'import time; time.sleep(60)'",
                                    timeout=0.5)
    started = time.perf_counter()
    with pytest.raises(TransportError, match="did not answer"):
        transport({"texts": ["x" * 1000] * 200})  # more than a pipe buffer holds
    assert time.perf_counter() - started < 0.5 + 2.0
    assert transport._proc is None
    transport.close()
