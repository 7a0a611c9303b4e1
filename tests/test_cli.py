"""Tests for the command-line interface."""

import pytest

from repro import cli


def test_list_command_prints_all_workloads(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sha" in out and "astar" in out
    assert out.count("\n") == 20


def test_run_command_small_campaign(capsys):
    code = cli.main([
        "run", "--workload", "sha", "--structure", "RF",
        "--registers", "64", "--faults", "60", "--scale", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "AVF" in out and "injections" in out
    assert "Masked" in out


def test_run_command_with_baseline(capsys):
    code = cli.main([
        "run", "--workload", "fft", "--structure", "SQ",
        "--sq-entries", "16", "--faults", "40", "--scale", "3",
        "--baseline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "baseline:" in out
    assert "percentile points" in out


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        cli.main(["run", "--workload", "doom"])


def test_run_command_with_fault_model(capsys):
    code = cli.main([
        "run", "--workload", "sha", "--structure", "RF",
        "--registers", "64", "--faults", "40", "--scale", "1",
        "--fault-model", "multi-bit", "--model-param", "width=4",
        "--json",
    ])
    assert code == 0
    import json as _json
    payload = _json.loads(capsys.readouterr().out)
    assert payload["spec"]["fault_model"] == "multi-bit"
    assert payload["spec"]["model_params"] == [["width", 4]]


def test_parser_rejects_unknown_fault_model():
    with pytest.raises(SystemExit):
        cli.main(["run", "--workload", "sha", "--fault-model", "bitrot"])


def test_run_rejects_malformed_model_param(capsys):
    with pytest.raises(SystemExit):
        cli.main([
            "run", "--workload", "sha", "--scale", "1", "--faults", "10",
            "--fault-model", "stuck-at-0", "--model-param", "duration",
        ])
    assert "NAME=VALUE" in capsys.readouterr().err


def test_run_rejects_non_integer_model_param(capsys):
    with pytest.raises(SystemExit):
        cli.main([
            "run", "--workload", "sha", "--scale", "1", "--faults", "10",
            "--fault-model", "stuck-at-0", "--model-param", "duration=soon",
        ])
    assert "integer" in capsys.readouterr().err


def test_run_rejects_param_the_model_does_not_take(capsys):
    with pytest.raises(SystemExit):
        cli.main([
            "run", "--workload", "sha", "--scale", "1", "--faults", "10",
            "--fault-model", "single", "--model-param", "width=2",
        ])
    assert "does not accept" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        cli.main([])


def test_parser_rejects_the_removed_bench_subcommand(capsys):
    # The simcore measurement lives in benchmarks/test_simcore_throughput.py.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--engine", "serial", "--resume"],
    # A worker count the engine would ignore, or would read as "every core".
    ["--engine", "serial", "--workers", "2"],
    ["--engine", "checkpoint", "--workers", "2"],
    ["--engine", "cluster", "--workers", "0"],
], ids=lambda flags: "-".join(flag.lstrip("-") for flag in flags))
def test_cluster_flags_rejected_for_other_engines(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--workload", "sha", "--faults", "10", "--scale", "1"]
                 + flags)
    assert exit_info.value.code == 2
    assert flags[2].lstrip("-") in capsys.readouterr().err


# ----------------------------------------------------------------------
# Cluster engine + resume through the CLI
# ----------------------------------------------------------------------
def test_run_cluster_engine_and_resume(tmp_path, capsys):
    import json

    from repro.cluster import journal_path

    store = str(tmp_path / "store")
    cache = str(tmp_path / "cache")
    base = [
        "run", "--workload", "sha", "--structure", "RF", "--registers", "64",
        "--faults", "40", "--scale", "1", "--engine", "cluster",
        "--workers", "1", "--shard-size", "9", "--cache-dir", cache,
        "--store", store,
    ]
    assert cli.main(base + ["--json"]) == 0
    reference = json.loads(capsys.readouterr().out)
    run_id = reference["run_id"]

    # Simulate a kill: the stored outcome never landed and the journal
    # kept only the header plus its first shard.
    (tmp_path / "store" / f"{run_id}.json").unlink()
    path = journal_path(tmp_path / "cache" / "journals", run_id)
    lines = path.read_text().splitlines(True)
    path.write_text("".join(lines[:2]))

    assert cli.main(["resume", run_id, "--cache-dir", cache,
                     "--store", store, "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    reference["merlin"].pop("wall_clock_seconds")
    resumed["merlin"].pop("wall_clock_seconds")
    assert resumed == reference


def test_resume_reports_journaled_and_executed_shards(tmp_path, capsys):
    import json

    from repro.cluster import journal_path

    cache = str(tmp_path / "cache")
    assert cli.main([
        "run", "--workload", "sha", "--structure", "RF", "--faults", "40",
        "--scale", "1", "--method", "comprehensive", "--engine", "process",
        "--workers", "1", "--shard-size", "9", "--cache-dir", cache,
        "--json",
    ]) == 0
    run_id = json.loads(capsys.readouterr().out)["run_id"]
    path = journal_path(tmp_path / "cache" / "journals", run_id)
    shards = sum(json.loads(line).get("kind") == "shard"
                 for line in path.read_text().splitlines())
    path.write_text("".join(path.read_text().splitlines(True)[:2]))

    assert cli.main(["resume", run_id, "--cache-dir", cache]) == 0
    err = capsys.readouterr().err
    assert f"{shards}/{shards} shards" in err
    assert (f"resumed {run_id}: 1 shards from the journal, "
            f"{shards - 1} executed") in err


def test_resume_reads_a_journal_in_the_previous_format(tmp_path, capsys):
    """Journals from before the timeline spacing left the engine carry a
    ``checkpoint_interval`` header field and a per-shard
    ``golden_cache_hit`` flag; readers ignore both, so such a journal
    still loads and resumes to the uninterrupted outcome."""
    import json

    from repro.cluster import RunJournal, journal_path

    cache = str(tmp_path / "cache")
    assert cli.main([
        "run", "--workload", "sha", "--structure", "RF", "--faults", "40",
        "--scale", "1", "--method", "comprehensive", "--engine", "cluster",
        "--workers", "1", "--shard-size", "9", "--cache-dir", cache,
        "--json",
    ]) == 0
    reference = json.loads(capsys.readouterr().out)
    run_id = reference["run_id"]

    journal_dir = tmp_path / "cache" / "journals"
    path = journal_path(journal_dir, run_id)
    old_format = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "header":
            record["checkpoint_interval"] = None
        elif record["kind"] == "shard":
            record["golden_cache_hit"] = True
        else:
            continue  # killed before the merge marker landed
        old_format.append(json.dumps(record, separators=(",", ":")) + "\n")
    path.write_text("".join(old_format[:-1]))  # ...and one shard short

    loaded = RunJournal.load(journal_dir, run_id)
    assert loaded.spec().run_id() == run_id
    assert len(loaded.completed) == len(old_format) - 2

    assert cli.main(["resume", run_id, "--cache-dir", cache, "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    reference["comprehensive"].pop("wall_clock_seconds")
    resumed["comprehensive"].pop("wall_clock_seconds")
    assert resumed == reference


def test_resume_without_journal_fails_with_one_line(tmp_path, capsys):
    code = cli.main(["resume", "cafebabe0000", "--cache-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "no journal" in err and "cafebabe0000" in err


# ----------------------------------------------------------------------
# Store-wide reporting and typed store errors
# ----------------------------------------------------------------------
@pytest.fixture()
def populated_store(tmp_path):
    store = str(tmp_path / "store")
    for workload, seed in (("sha", 0), ("sha", 1), ("qsort", 0)):
        assert cli.main([
            "run", "--workload", workload, "--structure", "RF",
            "--registers", "64", "--faults", "30", "--scale", "1",
            "--seed", str(seed), "--store", store,
        ]) == 0
    return store


def test_report_all_aggregates_per_workload(populated_store, capsys):
    import json

    capsys.readouterr()
    assert cli.main(["report", "--store", populated_store, "--all", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(row["workload"], row["structure"]) for row in rows] == [
        ("qsort", "RF"), ("sha", "RF"),
    ]
    sha_row = rows[1]
    assert sha_row["campaigns"] == 2
    assert sha_row["injections"] > 0
    assert 0.0 <= sha_row["mean_avf"] <= 1.0
    assert sha_row["mean_speedup"] >= 1.0

    assert cli.main(["report", "--store", populated_store, "--all"]) == 0
    out = capsys.readouterr().out
    assert "aggregate over 3 campaigns" in out
    assert "qsort" in out and "sha" in out


def test_list_store_mode(populated_store, capsys):
    capsys.readouterr()
    assert cli.main(["list", "--store", populated_store]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3
    assert "sha/RF" in out and "qsort/RF" in out


def test_report_corrupt_artifact_exits_one_with_run_id(tmp_path, capsys):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    (store_dir / "deadbeef.json").write_text("{broken")
    code = cli.main(["report", "--store", str(store_dir), "--run-id", "deadbeef"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "deadbeef" in err and "JSON" in err


def test_report_missing_run_id_still_exits_one(tmp_path, capsys):
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    code = cli.main(["report", "--store", str(store_dir), "--run-id", "none"])
    assert code == 1
    assert "no stored outcome" in capsys.readouterr().err

