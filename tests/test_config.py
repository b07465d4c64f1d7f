"""The settings table: run ids, semantic settings against execution knobs.

Run ids are pinned for the configs the project ships or documents, so a
change to how settings are read or digested cannot move an existing run to
a new ``out/<run-id>/``. The inputs are the golden corpus's, built from
arithmetic alone.
"""

import copy
import re
import shutil
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from test_golden import write_inputs
from wsi import __version__
from wsi.lexicon import LexiconPolicy
from wsi.pipeline import BackendConfig, ConfigError, RunConfig, compute_run_id


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The golden inputs, and a second copy of the same bytes elsewhere."""
    root = tmp_path_factory.mktemp("config")
    write_inputs(root / "data")
    shutil.copytree(root / "data", root / "copy")
    return {name: {"surveys": str(root / name / "surveys"),
                   "wages": str(root / name / "wages.csv")} for name in ("data", "copy")}


README_EXAMPLE = {
    "backends": [
        {"id": "mock", "kind": "keyword"},
        {"id": "baseline", "kind": "lexicon"},
        {"id": "gpt", "kind": "http", "endpoint": "http://localhost:8100/",
         "model": "gpt-x", "fallback_model": "gpt-x-mini",
         "batch_size": 32, "max_retries": 2, "timeout": 30.0},
    ],
    "normalization": "per_comment",
    "max_lag": 24,
    "lexicon": {"window": "expanding", "smoothing": "laplace",
                "min_mean_frequency": 5.0, "max_terms": 10},
    "translation": {"backend": "identity", "source": "ja", "target": "en",
                    "parallelism": 4, "batch_size": 50},
    "classify_parallelism": 4,
    "output_dir": "out",
    "cache_dir": ".wsi-cache",
    "seed": 0,
}
CI_CONFIG = {"backends": [{"id": "mock", "kind": "keyword"}], "max_lag": 6}
EVERY_KEY_SET = {  # each key away from its default
    "backends": [{
        "id": "gpt-x", "kind": "subprocess", "endpoint": "cmd:python stub.py",
        "model": "m1", "fallback_model": "m2", "batch_size": 8, "max_retries": 5,
        "timeout": 12.5,
        "rules": [[["raise", "bonus"], [1.0, 0.0, 0.0]], [["cut"], [0, 1, 0]]]}],
    "normalization": "raw_sum",
    "max_lag": 12,
    "lexicon": {"window": "rolling:6", "min_mean_frequency": 3, "max_terms": 7,
                "smoothing": "none"},
    "translation": {"backend": "http://localhost:8101/", "source": "ko", "target": "de",
                    "parallelism": 2, "batch_size": 10},
    "classify_parallelism": 3,
    "output_dir": "elsewhere",
    "cache_dir": "cache-elsewhere",
    "seed": 11,
}


@pytest.mark.parametrize("raw, run_id", [
    (README_EXAMPLE, "3fdbcfe84539650e"),
    (CI_CONFIG, "d936d00149fa7b8d"),
    (EVERY_KEY_SET, "7fdd11eb4d5e27d0"),
], ids=["readme", "ci", "every-key-set"])
def test_json_configs_keep_their_run_ids(inputs, raw, run_id):
    assert compute_run_id(RunConfig.from_dict({**inputs["data"], **raw})) == run_id


@pytest.mark.parametrize("backends, remote, run_id", [
    (["keyword"], False, "c046d014914d089b"),
    (["lexicon", "keyword"], False, "7a9ca975a1f31a17"),
    (["remote"], True, "6f49985b85dd243d"),
], ids=["keyword-scale", "lexicon-wide", "remote-warm"])
def test_benchmark_configs_keep_their_run_ids(inputs, backends, remote, run_id):
    """Built as the benchmark driver builds them; its translator command holds
    the interpreter's path, so a fixed command stands in for it here."""
    config = RunConfig(
        survey_paths=[inputs["data"]["surveys"]],
        wage_path=inputs["data"]["wages"],
        backends=[
            BackendConfig(backend_id="remote", kind="http", endpoint="http://127.0.0.1:1/",
                          model_id="stub-primary", fallback_model_id="stub-fallback",
                          batch_size=16)
            if kind == "remote" else BackendConfig(backend_id=kind, kind=kind)
            for kind in backends],
        translation_backend="cmd:exec python stub.py child" if remote else "identity",
        translation_parallelism=2,
        translation_batch_size=20,
        classify_parallelism=2,
        output_dir="bench-out",
        cache_dir="bench-cache",
        seed=1,
    )
    assert compute_run_id(config) == run_id


REMOTE_KINDS = ("http", "subprocess")
names = st.text("abcdefghij-_.0123456789", min_size=1, max_size=8)
optional_names = st.none() | names
keywords = st.lists(st.text("abcdef", min_size=1, max_size=5), min_size=1, max_size=3)
triples = st.sampled_from([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                           [0.5, 0.25, 0.25], [0.0, 0.0, 0.0]])
rules = st.none() | st.lists(st.tuples(keywords, triples).map(list), min_size=1, max_size=3)
ids = st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,8}", fullmatch=True)

# (section, key): valid values. Section "" is the top level and "backend" the
# one backend entry; None as a value removes the key.
SEMANTIC = {
    ("", "normalization"): st.sampled_from(["per_comment", "raw_sum"]),
    ("", "max_lag"): st.integers(1, 60),
    ("", "seed"): st.integers(0, 2**31),
    ("lexicon", "window"): st.just("expanding") | st.integers(2, 60).map("rolling:{}".format),
    ("lexicon", "min_mean_frequency"): st.floats(0, 100),
    ("lexicon", "max_terms"): st.integers(1, 50),
    ("lexicon", "smoothing"): st.sampled_from(["laplace", "none"]),
    ("translation", "backend"): st.sampled_from(
        ["identity", "http://localhost:1/", "https://example.org/t", "cmd:translate --fast"]),
    ("translation", "source"): names,
    ("translation", "target"): names,
    ("backend", "id"): ids,
    ("backend", "kind"): st.sampled_from(["keyword", "lexicon", *REMOTE_KINDS]),
    ("backend", "model"): optional_names,  # remote kinds only
    ("backend", "fallback_model"): optional_names,  # remote kinds only
    ("backend", "rules"): rules,
}
KNOBS = {
    ("", "surveys"): st.just("copy"),  # the same bytes under another path
    ("", "wages"): st.just("copy"),
    ("", "classify_parallelism"): st.integers(1, 16),
    ("", "output_dir"): names,
    ("", "cache_dir"): names,
    ("translation", "parallelism"): st.integers(1, 16),
    ("translation", "batch_size"): st.integers(1, 500),
    ("backend", "endpoint"): st.sampled_from(["http://localhost:1/", "cmd:cat", "cmd:tee"]),
    ("backend", "batch_size"): st.integers(1, 500),
    ("backend", "max_retries"): st.integers(0, 9),
    ("backend", "timeout"): st.floats(0.001, 86400),
}
REMOTE_ONLY = {("backend", "model"), ("backend", "fallback_model")}


def _section(raw, section):
    """The JSON object of ``raw`` that holds ``section``'s keys."""
    return raw if section == "" else raw["backends"][0] if section == "backend" else raw[section]


@st.composite
def base_configs(draw, row):
    """A valid JSON config with one backend and every other key drawn."""
    kinds = REMOTE_KINDS if row in REMOTE_ONLY else ["keyword", "lexicon", *REMOTE_KINDS]
    backend = {"id": draw(ids), "kind": draw(st.sampled_from(kinds)),
               "endpoint": draw(KNOBS[("backend", "endpoint")])}
    raw = {"backends": [backend], "lexicon": {}, "translation": {}}
    for (section, key), values in {**SEMANTIC, **KNOBS}.items():
        if section == "" and key in ("surveys", "wages") or (section, key) == ("backend", "kind"):
            continue
        value = draw(values)
        if value is None or draw(st.booleans()):
            continue  # some keys left at their defaults
        _section(raw, section)[key] = value
    return raw


def _changed(raw, row, value, inputs):
    section, key = row
    raw = copy.deepcopy(raw)
    target = _section(raw, section)
    if value is None:
        target.pop(key, None)
    elif key in ("surveys", "wages"):
        raw[key] = inputs[value][key]
    else:
        target[key] = value
    return raw


def _run_id(raw, inputs):
    return compute_run_id(RunConfig.from_dict({**inputs["data"], **raw}))


DEFAULTS = {"normalization": "per_comment", "max_lag": 24, "seed": 0, "window": "expanding",
            "min_mean_frequency": 5.0, "max_terms": 10, "smoothing": "laplace",
            "backend": "identity", "source": "ja", "target": "en"}


def _digested(row, raw):
    """What the run id sees of ``row``'s value in ``raw``."""
    section, key = row
    value = _section(raw, section).get(key, DEFAULTS.get(key) if section != "backend" else None)
    if key == "rules" and value is not None:
        return [[sorted(k), t] for k, t in value]
    return float(value) if key == "min_mean_frequency" else value


@settings(max_examples=150)
@given(data=st.data())
def test_a_semantic_setting_always_moves_the_run_id(inputs, data):
    row = data.draw(st.sampled_from(sorted(SEMANTIC)))
    raw = data.draw(base_configs(row))
    changed = _changed(raw, row, data.draw(SEMANTIC[row]), inputs)
    assume(_digested(row, changed) != _digested(row, raw))
    assert _run_id(changed, inputs) != _run_id(raw, inputs)


@settings(max_examples=150)
@given(data=st.data())
def test_an_execution_knob_never_moves_the_run_id(inputs, data):
    row = data.draw(st.sampled_from(sorted(KNOBS)))
    raw = data.draw(base_configs(row))
    changed = _changed(raw, row, data.draw(KNOBS[row]), inputs)
    assert _run_id(changed, inputs) == _run_id(raw, inputs)


def _table() -> dict:
    """(section, key): whether it is a knob, for each row of the settings table;
    the sections are named as SEMANTIC and KNOBS name them."""
    rows = {}
    for section, cls in (("", RunConfig), ("backend", BackendConfig), ("lexicon", LexiconPolicy)):
        for f in fields(cls):
            inner, _, key = f.metadata.get("key", f.name).rpartition(".")
            rows[(inner or section, key)] = f.metadata.get("knob", False)
    return rows


def test_every_row_is_a_semantic_setting_or_a_knob():
    table = _table()
    # the two rows that hold sections of their own, whose rows are listed
    assert table.pop(("", "backends")) is False and table.pop(("", "lexicon")) is False
    assert table == {**dict.fromkeys(SEMANTIC, False), **dict.fromkeys(KNOBS, True)}
    # 28 rows and the "translation" object: the 29 JSON keys of the schema
    assert len(table) + 3 == 29


def test_the_run_id_spells_every_semantic_row(inputs):
    config = RunConfig.from_dict({**inputs["data"], **EVERY_KEY_SET})
    assert config.identity_dict() == {
        "backends": [{"id": "gpt-x", "kind": "subprocess", "model": "m1", "fallback": "m2",
                      "rules": [[["bonus", "raise"], [1.0, 0.0, 0.0]], [["cut"], [0, 1, 0]]]}],
        "normalization": "raw_sum",
        "max_lag": 12,
        "lexicon": {"window": "rolling:6", "min_mean_frequency": 3.0, "max_terms": 7,
                    "smoothing": "none"},
        "translation": {"backend": "http://localhost:8101/", "source": "ko", "target": "de"},
        "seed": 11,
        "version": __version__,
    }
    # a keyword backend's identity has no models, and no rules when it has none
    keyword = RunConfig(survey_paths=[], wage_path="w",
                        backends=[BackendConfig(backend_id="k", kind="keyword", model_id="m")])
    assert keyword.identity_dict()["backends"] == [{"id": "k", "kind": "keyword"}]


def test_readme_lists_the_keys_in_the_run_id():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("The run id digests these keys")[1].split("\n\n")[0]
    prefix = {"": "", "backend": "backends[].", "lexicon": "lexicon.",
              "translation": "translation."}
    semantic = {prefix[section] + key for (section, key), knob in _table().items()
                if not knob and key not in ("backends", "lexicon")}
    assert set(re.findall(r"`([^`]+)`", paragraph)) == semantic


def test_a_direct_construction_runs_the_same_checks():
    with pytest.raises(ConfigError, match="id must be a name matching"):
        BackendConfig(backend_id="../x", kind="keyword")
    with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
        BackendConfig(backend_id="x", kind="keyword", batch_size=0)
    with pytest.raises(ConfigError, match="translation.parallelism must be >= 1"):
        RunConfig(survey_paths=[], wage_path="w", translation_parallelism=0,
                  backends=[BackendConfig(backend_id="x", kind="keyword")])
