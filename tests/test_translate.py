import sys
import time

import pytest

from wsi.corpus import Corpus, MonthKey, load_surveys
from wsi.translate import (
    IdentityTranslator,
    RemoteTranslator,
    TranslationCache,
    TranslationError,
    translate_all,
)

from conftest import WIRE_STUB, cache_rows, make_record


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
    report = translate_all(Corpus.from_records(inputs), IdentityTranslator(), source="ja",
                           target="en", batch_size=50)
    assert [r.comment for r in report.corpus.records()] == [r.comment for r in inputs]
    assert all(r.comment_translated == r.comment for r in report.corpus.records())
    assert report.failed_indices == []
    assert report.backend_calls == 0  # answered in process, not a backend call


def test_output_order_matches_input_order_any_parallelism():
    inputs = records(1000)
    serial = translate_all(Corpus.from_records(inputs), CountingTranslator(), parallelism=1,
                           source="ja", target="en", batch_size=7)
    parallel = translate_all(Corpus.from_records(inputs), CountingTranslator(), parallelism=8,
                             source="ja", target="en", batch_size=7)
    assert serial.corpus.records() == parallel.corpus.records()
    assert [r.comment_translated for r in serial.corpus.records()] == [
        r.comment.upper() for r in inputs]


def test_warm_cache_with_offline_backend_makes_zero_calls(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator(fail_always=True)
    inputs = records(8)
    for r in inputs:
        cache.put(r.comment, backend.backend_id, "ja", "en", r.comment.upper())
    report = translate_all(Corpus.from_records(inputs), backend, source="ja", target="en",
                           batch_size=50, cache=cache, sleep=lambda s: None)
    assert backend.calls == 0
    assert (report.backend_calls, report.failed_indices) == (0, [])
    assert all(r.comment_translated == r.comment.upper() for r in report.corpus.records())


def test_persistent_failure_marks_untranslated_and_continues():
    backend = CountingTranslator(fail_always=True)
    inputs = records(4)
    report = translate_all(Corpus.from_records(inputs), backend, source="ja", target="en",
                           batch_size=2, max_retries=2, sleep=lambda s: None)
    assert report.failed_indices == [0, 1, 2, 3]
    assert all(r.comment_translated is None for r in report.corpus.records())
    # 2 batches x (1 try + 2 retries)
    assert backend.calls == 6


def test_retry_then_success():
    sleeps = []
    backend = CountingTranslator(fail_times=2)
    report = translate_all(Corpus.from_records(records(3)), backend, source="ja", target="en",
                           batch_size=50, max_retries=2, sleep=sleeps.append)
    assert report.backend_calls == backend.calls == 3
    assert report.failed_indices == []
    assert sleeps == [0.1, 0.2]  # wire.RETRY_BASE_DELAY, doubled


def test_duplicate_texts_translated_once():
    backend = CountingTranslator()
    inputs = [make_record(MonthKey(2020, 1), "same text") for _ in range(10)]
    report = translate_all(Corpus.from_records(inputs), backend, source="ja", target="en",
                           batch_size=1)
    assert backend.calls == 1
    assert all(r.comment_translated == "SAME TEXT" for r in report.corpus.records())


def test_cache_round_trip_and_layout(tmp_path):
    cache = TranslationCache(tmp_path)
    cache.put("hello", "b1", "ja", "en", "HELLO")
    assert cache.get("hello", "b1", "ja", "en") == "HELLO"
    assert cache.get("hello", "other-backend", "ja", "en") is None
    assert cache.get("hello", "b1", "ja", "de") is None  # a changed target misses
    assert cache.get("hello", "b1", "ko", "en") is None  # so does a changed source
    cache.close()
    digest = TranslationCache.digest(("hello", "b1", "ja", "en"))
    # one file for the kind, one row per entry, its value bytes pinned
    assert [p.name for p in tmp_path.iterdir()] == ["translate.sqlite"]
    assert cache_rows(tmp_path / "translate.sqlite") == {digest: (
        '{"backend": "b1", "source_sha256": '
        '"2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824", '
        '"translation": "HELLO"}')}


def test_changed_target_language_is_translated_again(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator()
    inputs = records(4)
    translate_all(Corpus.from_records(inputs), backend, source="ja", target="en", batch_size=50,
                  cache=cache)
    assert backend.calls == 1
    assert all(cache.get(r.comment, backend.backend_id, "ja", "de") is None for r in inputs)
    translate_all(Corpus.from_records(inputs), backend, source="ja", target="de",
                  batch_size=50, cache=cache)
    assert backend.calls == 2


def test_cache_fills_after_cold_run(tmp_path):
    cache = TranslationCache(tmp_path)
    backend = CountingTranslator()
    inputs = records(6)
    translate_all(Corpus.from_records(inputs), backend, source="ja", target="en", batch_size=50,
                  cache=cache)
    calls_after_cold = backend.calls
    report = translate_all(Corpus.from_records(inputs), backend, source="ja", target="en",
                           batch_size=50, cache=cache)
    assert backend.calls == calls_after_cold  # warm: no new calls
    assert report.backend_calls == 0


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
    report = translate_all(Corpus.from_records(inputs), backend, source="ja", target="en",
                           batch_size=50, cache=cache, max_retries=1, sleep=lambda s: None)
    assert time.perf_counter() - started < 2 * 0.5 + 2.0  # two attempts, each timed out
    assert report.backend_calls == 2
    assert report.failed_indices == [0, 1, 2]
    assert all(r.comment_translated is None for r in report.corpus.records())
    assert cache_rows(tmp_path / "cache" / "translate.sqlite") == {}
    assert backend.transport._proc is None  # the hung child was killed
    backend.close()


@pytest.mark.parametrize("reply", ["[1, 2]", '{"translations": ["one"]}'])
def test_malformed_translation_reply_is_a_failed_attempt(tmp_path, reply):
    script = tmp_path / "malformed.py"
    script.write_text(f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n")
    backend = RemoteTranslator(f"cmd:exec {sys.executable} {script}")
    with pytest.raises(TranslationError):
        backend.translate(["hello", "world"], "ja", "en")
    report = translate_all(Corpus.from_records(records(2)), backend, source="ja", target="en",
                           batch_size=50, max_retries=0)
    assert report.failed_indices == [0, 1]
    backend.close()


def test_failed_translation_keeps_each_rows_loaded_translation(tmp_path):
    """The text table's key is (comment, loaded translation): one comment
    loaded with two translations keeps both when translation fails."""
    path = tmp_path / "s.csv"
    path.write_text("yyyymm,region,industry,judgment,comment,comment_translated\n"
                    "202001,K,r,Good,x,one\n202001,K,r,Good,x,two\n202001,K,r,Good,y,\n",
                    encoding="utf-8")
    backend = CountingTranslator(fail_always=True)
    report = translate_all(load_surveys([path]).corpus, backend, source="ja", target="en",
                           batch_size=50, max_retries=0)
    assert report.failed_indices == [0, 1, 2]
    assert [r.comment_translated for r in report.corpus.records()] == ["one", "two", None]
    assert backend.calls == 1  # "x" and "y" in one batch


def test_translation_replaces_every_loaded_translation_of_a_comment(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("yyyymm,region,industry,judgment,comment,comment_translated\n"
                    "202001,K,r,Good,x,one\n202001,K,r,Good,x,two\n", encoding="utf-8")
    report = translate_all(load_surveys([path]).corpus, CountingTranslator(), source="ja",
                           target="en", batch_size=50)
    assert report.failed_indices == []
    assert [r.comment_translated for r in report.corpus.records()] == ["X", "X"]
