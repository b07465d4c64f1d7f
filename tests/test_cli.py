import json
import subprocess
import sys

import pytest

from wsi.cli import main
from wsi.pipeline import RunConfig, run_dir


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
