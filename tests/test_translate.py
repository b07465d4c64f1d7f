import sys
import time

import pytest

from wsi.corpus import MonthKey
from wsi.translate import (
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    TranslationError,
    translate_all,
)

from conftest import WIRE_STUB, make_record


class CountingTranslator:
    backend_id = "counting"

    def __init__(self, fail_times=0, fail_always=False):
        self.calls = 0
        self.fail_times = fail_times
        self.fail_always = fail_always

    def translate(self, texts, source, target):
        self.calls += 1
        if self.fail_always or self.calls <= self.fail_times:
            raise TranslationError("induced failure")
        return [t.upper() for t in texts]


def records(n, prefix="comment"):
    return [make_record(MonthKey(2020, 1 + i % 3), f"{prefix} {i}") for i in range(n)]


def test_identity_backend_is_pure_annotation():
    inputs = records(5)
    report = translate_all(inputs, IdentityTranslator())
    assert [r.comment for r in report.records] == [r.comment for r in inputs]
    assert all(r.comment_translated == r.comment for r in report.records)
    assert report.failed_indices == []


def test_output_order_matches_input_order_any_parallelism():
    inputs = records(1000)
    serial = translate_all(inputs, CountingTranslator(), parallelism=1, batch_size=7)
    parallel = translate_all(inputs, CountingTranslator(), parallelism=8, batch_size=7)
    assert serial.records == parallel.records
    assert [r.comment_translated for r in serial.records] == [r.comment.upper() for r in inputs]


def test_warm_cache_with_offline_backend_makes_zero_calls(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator(fail_always=True)
    inputs = records(8)
    for r in inputs:
        cache.put(r.comment, backend.backend_id, "ja", "en", r.comment.upper())
    report = translate_all(inputs, backend, cache=cache, retry_base_delay=0.0)
    assert backend.calls == 0
    assert report.failed_indices == []
    assert report.cache_hits == len({r.comment for r in inputs})
    assert all(r.comment_translated == r.comment.upper() for r in report.records)


def test_persistent_failure_marks_untranslated_and_continues():
    backend = CountingTranslator(fail_always=True)
    inputs = records(4)
    report = translate_all(inputs, backend, max_retries=2, batch_size=2,
                           retry_base_delay=0.0)
    assert report.failed_indices == [0, 1, 2, 3]
    assert all(r.comment_translated is None for r in report.records)
    # 2 batches x (1 try + 2 retries)
    assert backend.calls == 6


def test_retry_then_success():
    backend = CountingTranslator(fail_times=2)
    report = translate_all(records(3), backend, max_retries=2, batch_size=50,
                           retry_base_delay=0.0)
    assert backend.calls == 3
    assert report.failed_indices == []


def test_duplicate_texts_translated_once():
    backend = CountingTranslator()
    inputs = [make_record(MonthKey(2020, 1), "same text") for _ in range(10)]
    report = translate_all(inputs, backend, batch_size=1)
    assert backend.calls == 1
    assert all(r.comment_translated == "SAME TEXT" for r in report.records)


def test_cache_round_trip_and_layout(tmp_path):
    cache = TranslationCache(tmp_path)
    cache.put("hello", "b1", "ja", "en", "HELLO")
    assert cache.get("hello", "b1", "ja", "en") == "HELLO"
    assert cache.get("hello", "other-backend", "ja", "en") is None
    assert cache.get("hello", "b1", "ja", "de") is None  # a changed target misses
    assert cache.get("hello", "b1", "ko", "en") is None  # so does a changed source
    digest = TranslationCache.digest(("hello", "b1", "ja", "en"))
    # one file per entry, in the classification cache's fan-out layout
    assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()] == [
        f"{digest[:2]}/{digest}.json"]


def test_changed_target_language_is_translated_again(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator()
    inputs = records(4)
    translate_all(inputs, backend, cache=cache, target="en")
    assert backend.calls == 1
    report = translate_all(inputs, backend, cache=cache, target="de")
    assert backend.calls == 2
    assert report.cache_hits == 0


def test_cache_fills_after_cold_run(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator()
    inputs = records(6)
    translate_all(inputs, backend, cache=cache)
    calls_after_cold = backend.calls
    report = translate_all(inputs, backend, cache=cache)
    assert backend.calls == calls_after_cold  # warm: no new calls
    assert report.cache_hits > 0


def test_subprocess_translator_round_trip():
    backend = RemoteTranslator(f"cmd:{sys.executable} {WIRE_STUB}")
    out = backend.translate(["hello there", "second text"], "ja", "en")
    assert out == ["HELLO THERE", "SECOND TEXT"]
    backend.close()


def test_subprocess_translator_close_ends_the_child():
    backend = RemoteTranslator(f"cmd:{sys.executable} {WIRE_STUB}")
    backend.translate(["hello"], "ja", "en")
    child = backend.transport._proc
    backend.close()
    assert child.returncode == 0  # saw end of input and exited on its own
    assert child.stdin.closed and child.stdout.closed
    backend.close()  # closing twice, or with no child started, does nothing
    RemoteTranslator(f"cmd:{sys.executable} {WIRE_STUB}").close()


def test_subprocess_translator_close_kills_a_child_that_ignores_eof(tmp_path):
    script = tmp_path / "stubborn.py"
    script.write_text(
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    texts = json.loads(line)['texts']\n"
        "    print(json.dumps({'translations': texts}), flush=True)\n"
        "time.sleep(60)\n"
    )
    backend = RemoteTranslator(f"cmd:exec {sys.executable} {script}", timeout=0.2)
    assert backend.translate(["hello"], "ja", "en") == ["hello"]
    child = backend.transport._proc
    started = time.perf_counter()
    backend.close()
    assert time.perf_counter() - started < 10.0
    assert child.returncode is not None and child.returncode < 0  # killed
    assert child.stdout.closed


def test_http_translator_round_trip(wire_server):
    backend = RemoteTranslator(wire_server.url)
    out = backend.translate(["hello", "world"], "ja", "en")
    assert out == ["HELLO", "WORLD"]
    assert wire_server.requests[-1]["source"] == "ja"


def test_http_translator_failure_raises(wire_server):
    wire_server.set_fail_all(True)
    backend = RemoteTranslator(wire_server.url)
    with pytest.raises(TranslationError):
        backend.translate(["hello"], "ja", "en")


def test_hung_cmd_translator_fails_within_its_timeout(tmp_path):
    script = tmp_path / "hung.py"
    script.write_text("import sys, time\nsys.stdin.readline()\ntime.sleep(60)\n")
    backend = RemoteTranslator(f"cmd:exec {sys.executable} {script}", timeout=0.5)
    cache = TranslationCache(tmp_path / "cache")
    inputs = records(3)
    started = time.perf_counter()
    report = translate_all(inputs, backend, cache=cache, max_retries=1, retry_base_delay=0.0)
    assert time.perf_counter() - started < 2 * 0.5 + 2.0  # two attempts, each timed out
    assert report.backend_calls == 2
    assert report.failed_indices == [0, 1, 2]
    assert all(r.comment_translated is None for r in report.records)
    assert not list((tmp_path / "cache").rglob("*.json"))
    assert backend.transport._proc is None  # the hung child was killed
    backend.close()


@pytest.mark.parametrize("reply", ["[1, 2]", '{"translations": ["one"]}'])
def test_malformed_translation_reply_is_a_failed_attempt(tmp_path, reply):
    script = tmp_path / "malformed.py"
    script.write_text(f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n")
    backend = RemoteTranslator(f"cmd:exec {sys.executable} {script}")
    with pytest.raises(TranslationError):
        backend.translate(["hello", "world"], "ja", "en")
    report = translate_all(records(2), backend, max_retries=0)
    assert report.failed_indices == [0, 1]
    backend.close()
