"""The README's stated gate floors, engine names, checkpoint spacing,
CLI subcommands, run end reasons and performance table match the code
and the recorded ``BENCH_simcore.json``.

The floors of the ``benchmarks/`` gates are read from their modules with
:mod:`ast` rather than imported (they are pytest files, not library
code), so changing a gate or the sentence that documents it without the
other fails here.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.api.engine import ENGINES
from repro.cli import build_parser
from repro.uarch.pipeline import TerminationKind

ROOT = Path(__file__).resolve().parents[1]

#: A ``repro <subcommand>`` invocation in a shell block: at the start of a
#: line (after a prompt or environment assignments) or after ``-m``.
COMMAND = re.compile(
    r"(?:^[ \t]*(?:\$[ \t]*)?(?:\w+=\S*[ \t]+)*|-m[ \t]+)"
    r"repro[ \t]+([a-z][\w-]*)", re.MULTILINE)


def readme() -> str:
    """The README with all whitespace runs collapsed, so sentences that
    wrap across lines still match."""
    return " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())


def constants(relative: str) -> dict:
    """The module-level literal assignments of a file, without importing it."""
    tree = ast.parse((ROOT / relative).read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        try:
            value = ast.literal_eval(node.value)
        except ValueError:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                found[target.id] = value
    return found


def stated(pattern: str) -> tuple:
    match = re.search(pattern, readme())
    assert match, f"the README no longer states {pattern!r}"
    return match.groups()


def test_serial_speedup_floor():
    gate = constants("benchmarks/test_simcore_throughput.py")
    (floor,) = stated(r"serial-campaign rate must stay ≥ ([\d.]+)x")
    assert float(floor) == gate["REQUIRED_SERIAL_SPEEDUP"]


def test_checkpoint_speedup_floor():
    gate = constants("benchmarks/test_checkpoint_speedup.py")
    floor, kilofaults = stated(
        r"≥ ([\d.]+)x floor on the (\d+)k-fault reference campaign")
    assert float(floor) == gate["REQUIRED_SPEEDUP"]
    assert int(kilofaults) * 1000 == gate["FAULTS"]


def test_cluster_scaling_floor():
    gate = constants("benchmarks/test_cluster_scaling.py")
    floor, workers, kilofaults = stated(
        r"≥ ([\d.]+)x at (\d+) workers on the (\d+)k-fault reference campaign")
    assert float(floor) == gate["REQUIRED_SPEEDUP"]
    assert int(workers) == gate["WORKERS"]
    assert int(kilofaults) * 1000 == gate["FAULTS"]


def test_engine_names():
    (names,) = stated(r"`--engine ([a-z|]+)`")
    listed = names.split("|")
    assert len(listed) == len(set(listed))
    assert set(listed) == set(ENGINES)


def test_readme_commands_are_cli_subcommands(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text,
                        re.MULTILINE | re.DOTALL)
    used = set(COMMAND.findall("\n".join(blocks)))
    assert {"run", "sweep", "lint"} <= used
    parser = build_parser()
    for name in sorted(used):
        with pytest.raises(SystemExit) as exited:
            parser.parse_args([name, "--help"])
        assert exited.value.code == 0, (
            f"the README runs `repro {name}`, which the CLI rejects")


def test_run_end_reasons():
    """The ``run_end_total`` row lists every reason the injector records:
    a termination kind, a reconvergence or value-divergence exit, or an
    index answer."""
    (row,) = stated(r"\| `run_end_total\{reason\}` \| counter \| (.*?); "
                    r"the reasons sum to `injections_total` \|")
    listed = re.findall(r"`(\w+)`", row)
    assert len(listed) == len(set(listed))
    assert set(listed) == ({kind.value for kind in TerminationKind}
                           | {"reconverged", "unread_values", "dead_flip",
                              "unread_flip"})


def test_checkpoint_spacing():
    from repro.uarch.checkpoint import DEFAULT_INTERVAL, DEFAULT_MAX_CHECKPOINTS

    (interval,) = stated(r"then a snapshot every (\d+) cycles")
    (budget,) = stated(r"whenever more than (\d+) checkpoints accumulate")
    assert int(interval) == DEFAULT_INTERVAL
    assert int(budget) == DEFAULT_MAX_CHECKPOINTS


def test_performance_table_matches_bench_simcore():
    """Each row states the recorded baseline, current value and ratio."""
    bench = json.loads((ROOT / "BENCH_simcore.json").read_text(encoding="utf-8"))
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(
        r"^\| [^|`]+\(`(\w+)`\) +\| ([\d.]+) +\| ([\d.]+) +\| ([\d.]+)x[^|]*\|$",
        text, re.MULTILINE)
    assert [key for key, *_ in rows] == [
        "cycles_per_sec", "serial_faults_per_sec",
        "checkpoint_faults_per_sec", "timeline_payload_bytes"]
    ratio_key = {"timeline_payload_bytes": "timeline_payload_shrink"}
    for key, baseline, current, ratio in rows:
        assert float(baseline) == bench["baseline"][key], key
        assert float(current) == bench["current"][key], key
        assert float(ratio) == bench["speedup"][ratio_key.get(key, key)], key
    (checkpoints,) = stated(r"The current timeline holds (\d+) checkpoints")
    assert int(checkpoints) == bench["current"]["checkpoints"]
