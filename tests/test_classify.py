import json
import math
import sys
import time

import pytest
from hypothesis import given, strategies as st

from wsi.classify import (
    BatchResult,
    ClassProbabilities,
    HardLabel,
    KeywordClassifier,
    RemoteClassifier,
    TransportError,
    UNRELATED,
    classify_month,
    classify_texts,
    default_keyword_classifier,
    normalize_triple,
    prompt_template,
)
from wsi.corpus import MonthKey
from wsi.pipeline import BackendConfig
from wsi.wire import SubprocessTransport

from conftest import WIRE_STUB, cache_rows, make_record


class TestClassProbabilities:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ClassProbabilities(1.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            ClassProbabilities(-0.1, 0.5, 0.6)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ClassProbabilities(0.5, 0.1, 0.1)

    def test_all_zero_is_unrelated(self):
        assert UNRELATED.is_unrelated()
        assert UNRELATED.hard_label() == HardLabel.UNRELATED

    def test_one_hot_neutral_is_a_neutral_wage_comment(self):
        probs = ClassProbabilities(0.0, 0.0, 1.0)
        assert not probs.is_unrelated()
        assert probs.hard_label() == HardLabel.NEUTRAL

    @pytest.mark.parametrize("triple,label", [
        ((1.0, 0.0, 0.0), HardLabel.INCREASE),
        ((0.0, 1.0, 0.0), HardLabel.DECREASE),
        ((0.2, 0.1, 0.7), HardLabel.NEUTRAL),
        ((0.5, 0.2, 0.3), HardLabel.INCREASE),
        ((0.4, 0.4, 0.2), HardLabel.NEUTRAL),   # balanced directional tie
        ((0.45, 0.1, 0.45), HardLabel.NEUTRAL),  # neutral wins its ties
        ((1 / 3, 1 / 3, 1 / 3), HardLabel.NEUTRAL),
    ])
    def test_hard_labels(self, triple, label):
        assert ClassProbabilities(*triple).hard_label() == label


class TestNormalize:
    def test_ratios_match_oracle(self):
        got = normalize_triple(0.69, 0.105, 0.2)
        total = 0.69 + 0.105 + 0.2
        assert got.u == pytest.approx(0.69 / total, abs=1e-12)
        assert got.v == pytest.approx(0.105 / total, abs=1e-12)
        assert got.w == pytest.approx(0.2 / total, abs=1e-12)
        assert abs(got.u + got.v + got.w - 1.0) <= 1e-6

    def test_all_zero_passes_through(self):
        assert normalize_triple(0.0, 0.0, 0.0) == UNRELATED

    def test_tiny_negative_clamped_real_negative_rejected(self):
        got = normalize_triple(-1e-12, 0.5, 0.5)
        assert got.u == 0.0
        with pytest.raises(ValueError):
            normalize_triple(-0.2, 0.6, 0.6)

    @pytest.mark.parametrize("triple, error", [
        ((math.nan, 1, 0), ValueError),
        ((math.inf, 1, 0), ValueError),
        ((0.5, -math.inf, 0), ValueError),
        (("a", 1, 0), TypeError),
        ((None, 1, 0), TypeError),
        ((True, 0, 0), TypeError),
    ])
    def test_non_finite_and_non_numeric_rejected(self, triple, error):
        with pytest.raises(error):
            normalize_triple(*triple)

    @given(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)).filter(
        lambda t: sum(t) > 1e-6))
    def test_idempotent(self, triple):
        once = normalize_triple(*triple)
        twice = normalize_triple(once.u, once.v, once.w)
        assert abs(once.u - twice.u) <= 1e-12
        assert abs(once.v - twice.v) <= 1e-12
        assert abs(once.w - twice.w) <= 1e-12


class TestKeywordClassifier:
    def test_spec_examples(self):
        mock = default_keyword_classifier()
        assert mock.classify_one("wages were raised this spring").as_tuple() == (1.0, 0.0, 0.0)
        assert mock.classify_one("the weather was pleasant").as_tuple() == (0.0, 0.0, 0.0)

    def test_rule_keyword_set(self):
        mock = KeywordClassifier([({"raise", "bonus"}, (1.0, 0.0, 0.0))])
        assert mock.classify_one("a bonus was paid").as_tuple() == (1.0, 0.0, 0.0)

    def test_first_rule_wins_in_declared_order(self):
        mock = KeywordClassifier([
            ({"cut"}, (0.0, 1.0, 0.0)),
            ({"raise"}, (1.0, 0.0, 0.0)),
        ])
        assert mock.classify_one("raise then cut").as_tuple() == (0.0, 1.0, 0.0)

    def test_matches_tokens_not_substrings(self):
        mock = KeywordClassifier([({"raise"}, (1.0, 0.0, 0.0))])
        assert mock.classify_one("the fundraiser went well") == UNRELATED


class FakeTransport:
    """Keyword responder with scriptable failures, counting every call."""

    def __init__(self, fail_models=(), fail_times=0):
        self.calls = 0
        self.payloads = []
        self.fail_models = set(fail_models)
        self.fail_times = fail_times

    def __call__(self, payload):
        self.calls += 1
        self.payloads.append(payload)
        if payload["model"] in self.fail_models:
            raise TransportError("induced failure")
        if self.calls <= self.fail_times:
            raise TransportError("transient failure")
        rows = []
        for comment in payload["comments"]:
            tokens = comment.lower().split()
            if "up" in tokens:
                rows.append([1.0, 0.0, 0.0])
            elif "down" in tokens:
                rows.append([0.0, 1.0, 0.0])
            elif "flat" in tokens:
                rows.append([0.0, 0.0, 1.0])
            else:
                rows.append([0.0, 0.0, 0.0])
        return {"probabilities": rows}


def spec(**kw):
    defaults = dict(backend_id="remote", kind="http", endpoint="http://unused/",
                    model_id="primary", batch_size=32, max_retries=2, timeout=5.0)
    defaults.update(kw)
    return BackendConfig(**defaults)


def remote(backend, transport=None):
    """A client for ``backend`` that retries without waiting."""
    return RemoteClassifier(backend, transport=transport, sleep=lambda s: None)


class TestClassifyBatch:
    def test_position_alignment_under_shuffle(self):
        import random

        texts = [f"item {i} {'up' if i % 3 == 0 else 'down' if i % 3 == 1 else 'flat'}"
                 for i in range(60)]
        random.Random(9).shuffle(texts)
        result = remote(spec(batch_size=7), transport=FakeTransport()).classify_batch(
            texts)
        for text, probs in zip(texts, result.probs):
            expected = {"up": (1.0, 0.0, 0.0), "down": (0.0, 1.0, 0.0),
                        "flat": (0.0, 0.0, 1.0)}[text.split()[2]]
            assert probs.as_tuple() == expected

    def test_wire_call_count_is_batch_ceiling(self):
        transport = FakeTransport()
        result = remote(spec(batch_size=2), transport=transport).classify_batch(
            ["up"] * 5)
        assert result.wire_calls == 3  # ceil(5 / 2)
        assert transport.calls == 3

    def test_batching_invariance(self):
        texts = [f"comment {i} {'up' if i % 2 else 'down'}" for i in range(21)]
        small = remote(spec(batch_size=1), transport=FakeTransport()).classify_batch(
            texts)
        large = remote(spec(batch_size=50), transport=FakeTransport()).classify_batch(
            texts)
        assert [p.as_tuple() for p in small.probs] == [p.as_tuple() for p in large.probs]

    def test_retry_bound_then_fallback_then_failure(self):
        transport = FakeTransport(fail_models={"primary", "backup"})
        result = remote(
            spec(model_id="primary", fallback_model_id="backup", max_retries=3),
            transport=transport,
        ).classify_batch(["up", "down"])
        # (max_retries + 1) attempts per model, both models, one batch
        assert transport.calls == 8
        models_tried = [p["model"] for p in transport.payloads]
        assert models_tried == ["primary"] * 4 + ["backup"] * 4
        assert result.failed == [True, True]
        assert all(p == UNRELATED for p in result.probs)

    def test_fallback_rescues_batch(self):
        transport = FakeTransport(fail_models={"primary"})
        result = remote(spec(model_id="primary", fallback_model_id="backup"),
                        transport=transport).classify_batch(["up"])
        assert result.failed == [False]
        assert result.probs[0].as_tuple() == (1.0, 0.0, 0.0)

    def test_model_defaults_to_the_backend_id(self):
        transport = FakeTransport()
        client = remote(spec(backend_id="gpt-x", model_id=None), transport=transport)
        assert client.backend_id == "gpt-x"
        client.classify_batch(["up"])
        assert [p["model"] for p in transport.payloads] == ["gpt-x"]

    def test_transient_failure_retried_to_success(self):
        sleeps = []
        transport = FakeTransport(fail_times=2)
        result = RemoteClassifier(spec(max_retries=2), transport=transport,
                                  sleep=sleeps.append).classify_batch(["up"])
        assert transport.calls == 3
        assert result.failed == [False]
        assert sleeps == [0.1, 0.2]  # wire.RETRY_BASE_DELAY, doubled

    def test_unrelated_mask_honoured(self):
        def transport(payload):
            return {"probabilities": [[0.5, 0.3, 0.2]], "unrelated": [True]}

        result = remote(spec(), transport=transport).classify_batch(["anything"])
        assert result.probs[0] == UNRELATED

    def test_malformed_response_counts_as_failure(self):
        def transport(payload):
            return {"probabilities": [[0.5, 0.5]]}  # wrong arity

        result = remote(spec(max_retries=0), transport=transport).classify_batch(
            ["text"])
        assert result.failed == [True]

    @pytest.mark.parametrize("body", [
        {"probabilities": [[-0.5, 1, 0], [1, 0, 0]]},
        {"probabilities": [[math.inf, 1, 0], [1, 0, 0]]},
        {"probabilities": [["a", 1, 0], [1, 0, 0]]},
        {"probabilities": [[0, 1, 0], [1, 0, 0]], "unrelated": 5},
        {"probabilities": [[math.nan, 1, 0], [1, 0, 0]]},
        [[0, 1, 0], [1, 0, 0]],
    ], ids=["negative", "inf", "string", "unrelated-not-a-list", "nan", "not-an-object"])
    def test_malformed_row_fails_the_attempt_and_is_not_cached(self, body, tmp_path):
        from wsi.pipeline import CachedRemoteClassifier, ClassificationCache

        def transport(payload):
            if payload["model"] == "primary":
                return json.loads(json.dumps(body))  # as it arrives off the wire
            return {"probabilities": [[0.0, 0.0, 1.0]] * len(payload["comments"])}

        texts = ["first comment", "second comment"]
        cache = ClassificationCache(tmp_path / "cache")
        failing = CachedRemoteClassifier(
            remote(spec(max_retries=1), transport=transport), cache)
        result = failing.classify_batch(texts)
        assert result.failed == [True, True]
        assert result.wire_calls == 2
        assert all(p == UNRELATED for p in result.probs)
        assert all(cache.get(t, "http://unused/", "primary") is None for t in texts)
        assert cache_rows(tmp_path / "cache" / "classify.sqlite") == {}

        rescued = remote(spec(fallback_model_id="backup", max_retries=1),
                         transport=transport).classify_batch(texts)
        assert rescued.failed == [False, False]
        assert rescued.wire_calls == 3  # two primary attempts, then the fallback
        assert [p.as_tuple() for p in rescued.probs] == [(0.0, 0.0, 1.0)] * 2

    def test_empty_and_blank_inputs_rejected(self):
        transport = FakeTransport()
        client = remote(spec(), transport=transport)
        assert client.classify_batch([]) == BatchResult([], [], 0)
        with pytest.raises(ValueError):
            client.classify_batch(["ok", ""])
        assert transport.calls == 0

    def test_parallel_chunks_keep_order(self):
        texts = [f"n{i} {'up' if i % 2 else 'down'}" for i in range(40)]
        serial = remote(spec(batch_size=5), transport=FakeTransport()).classify_batch(
            texts)
        parallel = remote(spec(batch_size=5), transport=FakeTransport()).classify_batch(
            texts, parallelism=8)
        assert [p.as_tuple() for p in serial.probs] == [p.as_tuple() for p in parallel.probs]


class TestClassifyMonth:
    def test_five_keyword_records_no_failures(self):
        records = [make_record(comment=f"wages were raised {i}") for i in range(5)]
        out = classify_month(records, default_keyword_classifier())
        assert len(out) == 5
        assert all(not c.failed for c in out)
        assert all(c.hard_label == HardLabel.INCREASE for c in out)

    def test_rejects_mixed_months(self):
        records = [make_record(MonthKey(2020, 1)), make_record(MonthKey(2020, 2))]
        with pytest.raises(ValueError):
            classify_month(records, default_keyword_classifier())

    def test_failed_items_annotated_and_unrelated(self):
        records = [make_record(comment="anything at all")]
        client = remote(spec(max_retries=0),
                        transport=FakeTransport(fail_models={"primary"}))
        out = classify_month(records, client)
        assert out[0].failed and out[0].hard_label == HardLabel.UNRELATED
        assert out[0].excluded

    def test_records_with_one_text_share_one_classified_comment(self):
        texts = ["wages were raised", "pay was cut", "wages were raised"]
        result, codes = classify_texts(texts, default_keyword_classifier())
        assert codes == [0, 1, 0]
        assert [p.hard_label() for p in result.probs] == [HardLabel.INCREASE, HardLabel.DECREASE]
        assert result.wire_calls == 0
        out = classify_month([make_record(comment=text) for text in texts],
                             default_keyword_classifier())
        assert out[0] is out[2] and out[0] is not out[1]

    def test_translated_text_is_classified(self):
        record = make_record(comment="genkyuu", translated="allowances were reduced")
        out = classify_month([record], default_keyword_classifier())
        # the translation, not the source text, drives the rule match
        assert out[0].hard_label == HardLabel.DECREASE


class TestWireTransports:
    def test_subprocess_round_trip(self):
        transport = SubprocessTransport(f"{sys.executable} {WIRE_STUB}", timeout=10.0)
        result = remote(spec(), transport=transport).classify_batch(
            ["prices went up", "hours went down", "nothing here"])
        assert [p.as_tuple() for p in result.probs] == [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)]
        transport.close()

    def test_subprocess_malformed_reply_fails_batch(self):
        transport = SubprocessTransport(f"{sys.executable} {WIRE_STUB}", timeout=10.0)
        result = remote(spec(model_id="always-fails", max_retries=0),
                        transport=transport).classify_batch(["whatever"])
        assert result.failed == [True]
        transport.close()

    def test_http_round_trip(self, wire_server):
        result = remote(spec(endpoint=wire_server.url)).classify_batch(
            ["went up today", "went down today"])
        assert [p.as_tuple() for p in result.probs] == [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
        assert wire_server.requests[-1]["labels"] == ["increase", "decrease", "neutral"]

    def test_http_down_marks_failures(self, wire_server):
        wire_server.set_fail_all(True)
        result = remote(spec(endpoint=wire_server.url, max_retries=1)).classify_batch(
            ["up"])
        assert result.failed == [True]
        assert result.wire_calls == 2


def test_prompt_template_ships_with_placeholder():
    template = prompt_template()
    assert "{comment}" in template


def test_retries_and_fallback_switch_are_logged(caplog):
    transport = FakeTransport(fail_models={"primary"})
    client = remote(spec(fallback_model_id="backup", max_retries=1),
                    transport=transport)
    with caplog.at_level("WARNING", logger="wsi"):
        result = client.classify_batch(["up", "down"])
    assert result.failed == [False, False]
    assert result.models == ["backup", "backup"]
    messages = [r.getMessage() for r in caplog.records if r.name == "wsi"]
    assert messages == [
        "wire attempt 1 of 2 failed: induced failure",
        "wire attempt 2 of 2 failed: induced failure",
        "model primary failed on a batch of 2 comments; switching to fallback model backup",
    ]


HUNG_CHILD = "import sys, time\nsys.stdin.readline()\ntime.sleep(60)\n"


def test_hung_subprocess_classifier_fails_within_its_timeout(tmp_path, monkeypatch):
    import subprocess

    from wsi.pipeline import BackendConfig, CachedRemoteClassifier, ClassificationCache

    children = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    script = tmp_path / "hung.py"
    script.write_text(HUNG_CHILD)
    backend = BackendConfig(backend_id="hung", kind="subprocess", model_id="m",
                            endpoint=f"exec {sys.executable} {script}",
                            timeout=0.5, max_retries=0)
    client = RemoteClassifier(backend)
    classifier = CachedRemoteClassifier(client, ClassificationCache(tmp_path / "cache"))
    records = [make_record(comment=f"wages went up {i}") for i in range(3)]
    for call in range(2):  # the second call starts a new child
        started = time.perf_counter()
        out = classify_month(records, classifier)
        assert time.perf_counter() - started < 0.5 + 2.0
        assert all(c.failed and c.excluded for c in out)
        assert len(children) == call + 1
        child = children[-1]
        assert child.returncode is not None  # killed and reaped
        assert child.stdin.closed and child.stdout.closed
    client.transport.close()
    classifier.cache.close()
    assert cache_rows(tmp_path / "cache" / "classify.sqlite") == {}
