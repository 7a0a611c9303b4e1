"""CLI smoke tests for the façade-backed subcommands (run/sweep/report)."""

import json
import subprocess
import sys

import pytest

from repro import cli
from repro.api import CampaignSpec, Session
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_run_json_matches_python_api(capsys):
    code, out = run_cli(capsys, [
        "run", "--workload", "sha", "--structure", "RF",
        "--registers", "64", "--faults", "60", "--scale", "1", "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF,
        config=MicroarchConfig().with_register_file(64),
        scale=1, faults=60,
    )
    assert payload["run_id"] == spec.run_id()
    outcome = Session().run(spec)
    assert payload["merlin"]["avf"] == outcome.merlin.avf
    assert payload["merlin"]["counts"] == outcome.merlin.counts


def test_run_with_checkpoint_engine_matches_serial(capsys):
    argv = [
        "run", "--workload", "sha", "--structure", "RF",
        "--registers", "64", "--faults", "60", "--scale", "1", "--json",
    ]
    code, serial_out = run_cli(capsys, argv)
    assert code == 0
    code, checkpoint_out = run_cli(
        capsys, argv + ["--engine", "checkpoint"]
    )
    assert code == 0
    serial_payload = json.loads(serial_out)
    checkpoint_payload = json.loads(checkpoint_out)
    assert checkpoint_payload["run_id"] == serial_payload["run_id"]
    assert checkpoint_payload["merlin"]["counts"] == serial_payload["merlin"]["counts"]
    assert checkpoint_payload["merlin"]["avf"] == serial_payload["merlin"]["avf"]


def test_run_method_comprehensive(capsys):
    code, out = run_cli(capsys, [
        "run", "--workload", "sha", "--faults", "30", "--scale", "1",
        "--method", "comprehensive",
    ])
    assert code == 0
    assert "baseline: 30 injections" in out
    assert "Masked" in out


def test_sweep_json_and_store_report(tmp_path, capsys):
    store_dir = str(tmp_path / "results")
    code, out = run_cli(capsys, [
        "sweep", "--workloads", "sha,qsort", "--structures", "RF",
        "--faults", "40", "--scale", "1", "--store", store_dir, "--json",
    ])
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert {entry["spec"]["workload"] for entry in payload} == {"sha", "qsort"}

    code, out = run_cli(capsys, ["report", "--store", store_dir, "--json"])
    assert code == 0
    report = json.loads(out)
    assert {entry["run_id"] for entry in report} == {
        entry["run_id"] for entry in payload
    }

    run_id = report[0]["run_id"]
    code, out = run_cli(capsys, [
        "report", "--store", store_dir, "--run-id", run_id, "--json",
    ])
    assert code == 0
    assert json.loads(out)["run_id"] == run_id


def test_sweep_text_table(tmp_path, capsys):
    code, out = run_cli(capsys, [
        "sweep", "--workloads", "sha", "--structures", "RF",
        "--faults", "40", "--scale", "1",
    ])
    assert code == 0
    assert "run_id" in out and "sha" in out


def test_report_missing_run_id_fails(tmp_path, capsys):
    store_dir = tmp_path / "empty"
    store_dir.mkdir()
    code = cli.main([
        "report", "--store", str(store_dir), "--run-id", "deadbeef0000",
    ])
    assert code == 1


def test_report_nonexistent_store_errors(tmp_path):
    missing = tmp_path / "typo"
    with pytest.raises(SystemExit):
        cli.main(["report", "--store", str(missing)])
    assert not missing.exists()


def test_cli_converts_validation_errors(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--workload", "sha", "--faults", "0", "--scale", "1"])
    err = capsys.readouterr().err
    assert "repro: error:" in err


@pytest.mark.parametrize("command", [
    ["run", "--workload", "sha"],
    ["sweep", "--workloads", "sha"],
])
def test_checkpoint_spacing_is_not_a_cli_option(capsys, command):
    """The timeline policy is fixed; there is no spacing flag to pass."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(command + ["--engine", "checkpoint",
                            "--checkpoint-interval", "64"])
    assert exit_info.value.code == 2
    assert "--checkpoint-interval" in capsys.readouterr().err


def test_sweep_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--workloads", "doom", "--faults", "10"])


def test_list_json(capsys):
    code, out = run_cli(capsys, ["list", "--json"])
    assert code == 0
    names = [entry["name"] for entry in json.loads(out)]
    assert "sha" in names and "astar" in names
    assert len(names) == 20


def test_python_dash_m_repro_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "sha" in result.stdout


def test_run_reuses_store(tmp_path, capsys):
    store_dir = str(tmp_path / "cache")
    argv = ["run", "--workload", "sha", "--faults", "30", "--scale", "1",
            "--store", store_dir, "--json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert json.loads(first) == json.loads(second)
