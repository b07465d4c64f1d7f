import json
import subprocess
import sys

import pytest

from wsi import pipeline
from wsi.cli import main
from wsi.pipeline import RunConfig, StageError, run_dir


@pytest.fixture
def workspace(tmp_path):
    assert main(["synth", "--months", "30", "--lead", "2", "--seed", "5",
                 "--comments-per-month", "30",
                 "--out", str(tmp_path / "data")]) == 0
    config = {
        "surveys": str(tmp_path / "data" / "surveys"),
        "wages": str(tmp_path / "data" / "wages.csv"),
        "backends": [{"id": "mock", "kind": "keyword"}],
        "output_dir": str(tmp_path / "out"),
        "cache_dir": str(tmp_path / "cache"),
        "max_lag": 6,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path


def test_synth_writes_corpus(tmp_path, capsys):
    assert main(["synth", "--months", "8", "--seed", "1",
                 "--out", str(tmp_path / "s")]) == 0
    out = capsys.readouterr().out
    assert "8 survey files" in out
    assert (tmp_path / "s" / "wages.csv").exists()
    assert len(list((tmp_path / "s" / "surveys").glob("*.csv"))) == 8


def test_synth_past_december_9999_is_one_error_line_and_writes_nothing(tmp_path):
    proc = run_cli("synth", "--start", "999901", "--months", "24", "--out", str(tmp_path / "s"))
    assert_error_line(proc, "the last month, 1000012, is past 999912")
    assert not (tmp_path / "s").exists()


def test_stage_commands_in_sequence(workspace, capsys):
    tmp_path, config_path = workspace
    for command in ("ingest", "classify", "index", "granger", "report"):
        assert main([command, "--config", str(config_path)]) == 0
    out_root = run_dir(RunConfig.from_file(config_path))
    assert list((tmp_path / "out").iterdir()) == [out_root]
    assert (out_root / "manifest.json").exists()
    assert (out_root / "tables" / "granger.tex").exists()
    assert json.loads((out_root / "manifest.json").read_text())["config"]["max_lag"] == 6
    output = capsys.readouterr().out
    assert "mock" in output


def test_granger_takes_max_lag_from_the_config_only(workspace, capsys):
    tmp_path, config_path = workspace
    assert main(["ingest", "--config", str(config_path)]) == 0
    before = sorted((tmp_path / "out").iterdir())
    with pytest.raises(SystemExit) as exit_:
        main(["granger", "--config", str(config_path), "--max-lag", "4"])
    assert exit_.value.code != 0
    assert "--max-lag" in capsys.readouterr().err
    assert sorted((tmp_path / "out").iterdir()) == before


def test_classify_single_backend_filter(workspace, capsys):
    tmp_path, config_path = workspace
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["classify", "--config", str(config_path),
                 "--backend", "mock"]) == 0
    assert "mock:" in capsys.readouterr().out


def test_run_command_end_to_end(workspace, capsys):
    tmp_path, config_path = workspace
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "complete" in out


def test_stage_error_is_reported_not_raised(workspace, capsys):
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    config["wages"] = str(tmp_path / "missing.csv")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(config))
    assert main(["ingest", "--config", str(bad_path)]) == 1
    assert "error: stage ingest failed" in capsys.readouterr().err


def test_console_entry_point_installed(workspace):
    tmp_path, config_path = workspace
    proc = subprocess.run(
        [sys.executable, "-m", "wsi.cli", "run", "--config", str(config_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "complete" in proc.stdout


def test_run_into_a_pipe_whose_reader_has_exited_ends_cleanly(workspace):
    """``wsi run | head -1``: the run completes, exits 0, and prints no traceback."""
    import os

    tmp_path, config_path = workspace
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wsi.cli", "run", "--config", str(config_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    out = run_dir(RunConfig.from_file(config_path))
    assert (out / "manifest.json").exists() and not (out / "FAILED").exists()


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "wsi.cli", *args],
                          capture_output=True, text=True, timeout=120)


def assert_error_line(proc, message):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0], proc.stderr


BAD_SETTINGS = {  # case: (config section, the setting that replaces it)
    "rules_not_a_list": ("backends", {"kind": "keyword", "rules": 5}),
    "rules_short_triple": ("backends", {"kind": "keyword", "rules": [[["x"], [1, 0]]]}),
    "rules_keyword_not_a_string": ("backends", {
        "kind": "keyword", "rules": [[["x"], [1, 0, 0]], [[3], [0, 1, 0]]]}),
    "rules_bad_triple": ("backends", {"kind": "keyword", "rules": [[["x"], [0.5, 0.5, 0.5]]]}),
    # a bool is no probability, and a keyword that is not one token never fires
    "rules_bool_triple": ("backends", {
        "kind": "keyword", "rules": [[["raise"], [True, False, False]]]}),
    "rules_keyword_not_a_token": ("backends", {
        "kind": "keyword", "rules": [[["raise"], [1, 0, 0]], [["pay-cut"], [0, 1, 0]]]}),
    "rules_empty_keywords": ("backends", {"kind": "keyword", "rules": [[[], [1, 0, 0]]]}),
    "max_terms_negative": ("lexicon", {"max_terms": -1}),
    "max_terms_zero": ("lexicon", {"max_terms": 0}),
    "min_mean_frequency_nan": ("lexicon", {"min_mean_frequency": float("nan")}),
    "window_bogus": ("lexicon", {"window": "bogus"}),
    "smoothing_bogus": ("lexicon", {"smoothing": "bogus"}),
    "translator_bogus": ("translation", {"backend": "bogus"}),
    "timeout_inf": ("backends", {"kind": "http", "endpoint": "http://localhost:1/",
                                 "timeout": float("inf")}),
    # past the transports' own limits: the selector's (subprocess) and time_t's (http)
    "timeout_large_subprocess": ("backends", {"kind": "subprocess", "endpoint": "cmd:cat",
                                              "timeout": 1e7}),
    "timeout_large_http": ("backends", {"kind": "http", "endpoint": "http://localhost:1/",
                                        "timeout": 1e12}),
    # an integer key takes a JSON integer, a number key a JSON number, neither a bool
    "max_lag_string": ("", {"max_lag": "12"}),
    "max_lag_fraction": ("", {"max_lag": 2.5}),
    "max_lag_bool": ("", {"max_lag": True}),
    "seed_fraction": ("", {"seed": 1.9}),
    "batch_size_string": ("backends", {"kind": "keyword", "batch_size": "8"}),
    "timeout_string": ("backends", {"kind": "http", "endpoint": "http://localhost:1/",
                                    "timeout": "inf"}),
    "timeout_bool": ("backends", {"kind": "http", "endpoint": "http://localhost:1/",
                                  "timeout": True}),
    "min_mean_frequency_string": ("lexicon", {"min_mean_frequency": "nan"}),
    "min_mean_frequency_bool": ("lexicon", {"min_mean_frequency": False}),
    "translation_batch_size_bool": ("translation", {"batch_size": True}),
    # a key no setting has, at each level
    "unknown_top_level": ("", {"max_lags": 3}),
    "unknown_backend": ("backends", {"kind": "keyword", "batchsize": 0}),
    "unknown_lexicon": ("lexicon", {"windw": "rolling:2"}),
    "unknown_translation": ("translation", {"sorce": "ja"}),
    # wire.retry's backoff doubles, so the retries are bounded
    "max_retries_11": ("backends", {"kind": "keyword", "max_retries": 11}),
    "max_retries_1000": ("backends", {"kind": "keyword", "max_retries": 1000}),
    "max_retries_negative": ("backends", {"kind": "keyword", "max_retries": -1}),
}


@pytest.mark.parametrize("case, message", [
    ("parallelism", "classify_parallelism must be >= 1"),
    ("backend_without_id", 'backend entry has no "id"'),
    ("missing_file", "bad.json: [Errno 2] No such file or directory"),
    ("not_json", "bad.json: Expecting"),
    ("batch_size_text", "backend mock: batch_size must be an integer, got 'x'"),
    ("config_list", "the config must be a JSON object, got [{"),
    ("backend_text", "backends entry must be a JSON object, got 'mock'"),
    ("lexicon_list", "lexicon must be a JSON object, got []"),
    ("max_lag_null", "max_lag must be an integer, got None"),
    ("surveys_number", "surveys must be a path or a JSON list of paths, got 5"),
    ("wages_number", "wages must be a string, got 5"),
    ("output_dir_number", "output_dir must be a string, got 5"),
    ("cache_dir_number", "cache_dir must be a string, got 5"),
    ("endpoint_number", "backend mock: endpoint must be a string, got 5"),
    ("translator_number", "translation.backend must be a string, got 5"),
    ("rules_not_a_list", "backend mock: rules must be a JSON list, got 5"),
    ("rules_short_triple", "backend mock: rules[0] must be [[keyword, ...], [u, v, w]], "
                           "got [['x'], [1, 0]]"),
    ("rules_keyword_not_a_string",
     "backend mock: rules[1] must be [[keyword, ...], [u, v, w]], got [[3], [0, 1, 0]]"),
    ("rules_bad_triple", "backend mock: rules[0] must be [[keyword, ...], [u, v, w]], "
                         "got [['x'], [0.5, 0.5, 0.5]]"),
    ("rules_bool_triple", "backend mock: rules[0] must be [[keyword, ...], [u, v, w]], "
                          "got [['raise'], [True, False, False]]"),
    ("rules_keyword_not_a_token", "backend mock: rules[1] must be [[keyword, ...], [u, v, w]], "
                                  "got [['pay-cut'], [0, 1, 0]]"),
    ("rules_empty_keywords", "backend mock: rules[0] must be [[keyword, ...], [u, v, w]], "
                             "got [[], [1, 0, 0]]"),
    ("max_terms_negative", "lexicon.max_terms must be >= 1, got -1"),
    ("max_terms_zero", "lexicon.max_terms must be >= 1, got 0"),
    ("min_mean_frequency_nan", "lexicon.min_mean_frequency must be finite and >= 0, got nan"),
    ("window_bogus", "lexicon.window must be expanding or rolling:<width>, width >= 2, "
                     "got 'bogus'"),
    ("smoothing_bogus", "lexicon.smoothing must be laplace or none, got 'bogus'"),
    ("translator_bogus", "translation.backend must be identity, http(s)://<url> or "
                         "cmd:<command>, got 'bogus'"),
    ("timeout_inf",
     "backend mock: timeout must be positive and at most 86400 seconds, got inf"),
    ("timeout_large_subprocess",
     "backend mock: timeout must be positive and at most 86400 seconds, got 10000000.0"),
    ("timeout_large_http",
     "backend mock: timeout must be positive and at most 86400 seconds, "
     "got 1000000000000.0"),
    ("max_lag_string", "max_lag must be an integer, got '12'"),
    ("max_lag_fraction", "max_lag must be an integer, got 2.5"),
    ("max_lag_bool", "max_lag must be an integer, got True"),
    ("seed_fraction", "seed must be an integer, got 1.9"),
    ("batch_size_string", "backend mock: batch_size must be an integer, got '8'"),
    ("timeout_string", "backend mock: timeout must be a number, got 'inf'"),
    ("timeout_bool", "backend mock: timeout must be a number, got True"),
    ("min_mean_frequency_string", "lexicon.min_mean_frequency must be a number, got 'nan'"),
    ("min_mean_frequency_bool", "lexicon.min_mean_frequency must be a number, got False"),
    ("translation_batch_size_bool", "translation.batch_size must be an integer, got True"),
    ("unknown_top_level", "error: max_lags is not a known setting"),
    ("unknown_backend", "error: backend mock: batchsize is not a known setting"),
    ("unknown_lexicon", "error: lexicon.windw is not a known setting"),
    ("unknown_translation", "error: translation.sorce is not a known setting"),
    ("max_retries_11", "error: backend mock: max_retries must be at most 10, got 11"),
    ("max_retries_1000", "error: backend mock: max_retries must be at most 10, got 1000"),
    ("max_retries_negative", "error: backend mock: max_retries must be >= 0, got -1"),
    # a key given twice in one object, which json.loads would take the last of
    ("duplicate_top_level", "error: max_lag is given twice in one JSON object"),
    ("duplicate_backend", "error: kind is given twice in one JSON object"),
])
def test_config_error_is_reported_not_raised(workspace, case, message):
    """One ``error:`` line, exit 1, and no run directory."""
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    bad_path = tmp_path / "bad.json"
    if case == "parallelism":
        config["classify_parallelism"] = 0
        bad_path.write_text(json.dumps(config))
    elif case == "backend_without_id":
        config["backends"] = [{"kind": "keyword"}]
        bad_path.write_text(json.dumps(config))
    elif case == "not_json":
        bad_path.write_text(json.dumps(config)[:-1])
    elif case == "duplicate_top_level":
        bad_path.write_text(json.dumps(config)[:-1] + ', "max_lag": 24}')
    elif case == "duplicate_backend":
        bad_path.write_text(json.dumps(config).replace(
            '"kind": "keyword"', '"kind": "keyword", "kind": "lexicon"'))
    elif case == "batch_size_text":
        config["backends"][0]["batch_size"] = "x"
        bad_path.write_text(json.dumps(config))
    elif case == "config_list":
        bad_path.write_text(json.dumps([config]))
    elif case == "backend_text":
        config["backends"] = ["mock"]
        bad_path.write_text(json.dumps(config))
    elif case == "lexicon_list":
        config["lexicon"] = []
        bad_path.write_text(json.dumps(config))
    elif case == "max_lag_null":
        config["max_lag"] = None
        bad_path.write_text(json.dumps(config))
    elif case.endswith("_number"):
        key = case[:-len("_number")]
        if key == "endpoint":
            config["backends"] = [{"id": "mock", "kind": "http", "endpoint": 5}]
        elif key == "translator":
            config["translation"] = {"backend": 5}
        else:
            config[key] = 5
        bad_path.write_text(json.dumps(config))
    elif case in BAD_SETTINGS:
        section, setting = BAD_SETTINGS[case]
        if section == "backends":
            config["backends"] = [{"id": "mock", **setting}]
        elif section:
            config[section] = setting
        else:
            config.update(setting)
        bad_path.write_text(json.dumps(config))
    # "missing_file" leaves bad.json unwritten
    assert_error_line(run_cli("run", "--config", str(bad_path)), message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backend_id, message", [
    ("../x", "id must be a name matching [A-Za-z0-9][A-Za-z0-9._-]*, got '../x'"),
    ("../../../escaped", "id must be a name matching"),
    ("a/b", "id must be a name matching"),
    ("", "backend : id must be a name matching"),
    (["a"], "backend ['a']: id must be a string, got ['a']"),
    (5, "backend 5: id must be a string, got 5"),
])
def test_a_backend_id_that_is_no_plain_name_is_a_config_error(workspace, backend_id, message):
    """An id names the backend's files under out/<run-id>/, so it cannot
    lead outside it."""
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    config["backends"] = [{"id": backend_id, "kind": "keyword"}]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(config))
    before = sorted(tmp_path.rglob("*"))
    assert_error_line(run_cli("run", "--config", str(bad_path)), message)
    assert sorted(tmp_path.rglob("*")) == before
    assert not (tmp_path / "out").exists()


def test_classify_of_an_unknown_backend_fails_before_writing(workspace, capsys):
    tmp_path, config_path = workspace
    assert main(["ingest", "--config", str(config_path)]) == 0
    before = tree_bytes(tmp_path / "out")
    capsys.readouterr()
    assert main(["classify", "--config", str(config_path), "--backend", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no backend with id 'nope' is configured\n"
    assert tree_bytes(tmp_path / "out") == before


def test_failed_then_fixed_stage_leaves_the_tree_run_writes(workspace, capsys):
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["index", "--config", str(config_path)]) == 1  # before classify
    staged_dir = run_dir(RunConfig.from_file(config_path))
    assert (staged_dir / "FAILED").read_text().startswith("stage: index\n")
    for command in ("classify", "index", "granger", "report"):
        assert main([command, "--config", str(config_path)]) == 0
    assert not (staged_dir / "FAILED").exists()

    config["output_dir"] = str(tmp_path / "out-run")
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(run_path)]) == 0
    assert tree_bytes(staged_dir) == tree_bytes(run_dir(RunConfig.from_file(run_path)))


INGEST_MISSING = "ingest artifacts missing; run `wsi ingest` first"
CLASSIFY_MISSING = "no classified comments for mock; run `wsi classify` first"


@pytest.mark.parametrize("before, command, stage, cause", [
    ((), "classify", "classify", INGEST_MISSING),
    (("ingest",), "index", "index", CLASSIFY_MISSING),
    (("ingest",), "granger", "index", CLASSIFY_MISSING),  # granger runs index itself
    ((), "report", "report", INGEST_MISSING),
], ids=["classify_before_ingest", "index_before_classify", "granger_before_classify",
        "report_before_ingest"])
def test_a_stage_run_before_its_inputs_names_the_stage_that_failed(
        workspace, capsys, before, command, stage, cause):
    tmp_path, config_path = workspace
    for done in before:
        assert main([done, "--config", str(config_path)]) == 0
    config = RunConfig.from_file(config_path)
    marker = run_dir(config) / "FAILED"
    with pytest.raises(StageError) as err:
        getattr(pipeline, f"stage_{command}")(config)
    assert (err.value.stage, err.value.cause) == (stage, cause)
    assert marker.read_text() == f"stage: {stage}\ncause: {cause}\n"

    marker.unlink()
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error: ")] == [
        f"error: stage {stage} failed: {cause}"]
    assert marker.read_text() == f"stage: {stage}\ncause: {cause}\n"


@pytest.mark.parametrize("missing", ["surveys", "wages"])
def test_run_reports_missing_inputs_like_ingest(workspace, missing):
    tmp_path, config_path = workspace
    config = json.loads(config_path.read_text())
    config[missing] = str(tmp_path / "missing.csv")
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(config))
    assert_error_line(run_cli("run", "--config", str(bad_path)),
                      f"stage ingest failed: input file not found: {tmp_path / 'missing.csv'}")


@pytest.mark.parametrize("flag, value", [
    ("--start", "2000x1"), ("--months", "x"), ("--months", "0"),
    ("--comments-per-month", "0"), ("--lead", "-1"),
])
def test_synth_rejects_a_malformed_argument_with_usage(tmp_path, flag, value):
    proc = run_cli("synth", flag, value, "--out", str(tmp_path / "s"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: argument {flag}: invalid" in proc.stderr.splitlines()[-1]
    assert not (tmp_path / "s").exists()
