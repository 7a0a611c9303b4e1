"""The README's stated gate floors and engine names match the code.

The floors of the ``benchmarks/`` gates are read from their modules with
:mod:`ast` rather than imported (they are pytest files, not library
code), so changing a gate or the sentence that documents it without the
other fails here.
"""

import ast
import re
from pathlib import Path

from repro.api.engine import ENGINES
from repro.perf import REQUIRED_SERIAL_SPEEDUP

ROOT = Path(__file__).resolve().parents[1]


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
    (floor,) = stated(r"serial-campaign rate must stay ≥ ([\d.]+)x")
    assert float(floor) == REQUIRED_SERIAL_SPEEDUP


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
