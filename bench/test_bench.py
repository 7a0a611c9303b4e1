"""Checks of the benchmark itself, at smoke sizes: ``pytest bench/``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in CONFIG["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_names_are_well_formed() -> None:
    names = WORKLOADS + [metric["name"] for key in ("end_to_end", "per_layer")
                         for metric in CONFIG[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(trace: int) -> None:
    done = run_bench("--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    expected = {f"{workload}/{metric['name']}": metric["unit"]
                for workload in WORKLOADS for metric in declared}
    assert set(result["metrics"]) == set(expected)
    for key, unit in expected.items():
        assert result["metrics"][key]["unit"] == unit
        assert isinstance(result["metrics"][key]["value"], (int, float)), key
    if trace:
        for workload in WORKLOADS:
            coverage = result["metrics"][f"{workload}/trace.layer_sum_frac"]["value"]
            assert 0.9 <= coverage <= 1.1
            trace_file = ROOT / ".bench_work" / f"trace-{workload}-seed1.json"
            events = json.loads(trace_file.read_text(encoding="utf-8"))["traceEvents"]
            ids = {event["args"]["id"] for event in events}
            assert events
            for event in events:
                assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
                assert event["args"]["parent"] in ids | {0}


def test_tampered_fingerprint_fails_the_run(tmp_path: Path) -> None:
    pins = tmp_path / "pins.json"
    done = run_bench("--workload", "baseline-ffwd", "--pin", "--expected", str(pins))
    assert done.returncode == 0, done.stderr
    payload = json.loads(pins.read_text(encoding="utf-8"))
    run_id = sorted(payload["fingerprints"])[0]
    payload["fingerprints"][run_id] = "0" * 64
    pins.write_text(json.dumps(payload), encoding="utf-8")

    done = run_bench("--workload", "baseline-ffwd", "--expected", str(pins))
    assert done.returncode != 0
    result = result_of(done)
    assert result["failed"] > 0 and not result["correct"]
    assert f"run {run_id} diverged" in done.stdout


def test_without_sources_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "baseline-cold", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
