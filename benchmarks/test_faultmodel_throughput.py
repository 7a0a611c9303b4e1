"""Per-model injection throughput against the single-bit baseline.

Runs the same 400-fault register-file campaign once per fault model of the
zoo (identical golden run, identical anchor draws where the model's bit
range allows) and emits ``BENCH_faultmodels.json`` (into ``.bench_work/``,
or the repository root under ``pytest --record-bench``):
wall-clock, faults/second and the throughput ratio to the single-bit
baseline for each model.

Windowed models re-apply their flips at up to every cycle of the window,
so some throughput cost is expected; the gate only guards against the
model layer making injection *pathologically* slower (each model must keep
at least ``MIN_RELATIVE_THROUGHPUT`` of the single-bit rate).  On noisy
shared runners set ``REPRO_BENCH_RELAXED=1`` to record without
enforcing, like every other benchmark gate.
"""

from __future__ import annotations

import json
import time

from conftest import REFERENCE_ITERATIONS, gate_relaxed
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.faults.models import (
    IntermittentBurst,
    MultiBitAdjacent,
    SingleBitTransient,
    StuckAt0,
    StuckAt1,
)
from repro.faults.sampling import generate_fault_list
from repro.testing import build_loop_program, small_config
from repro.uarch.structures import TargetStructure, structure_geometry

BENCH_NAME = "BENCH_faultmodels.json"

FAULTS = 400

#: Floor on (model throughput / single-bit throughput); windowed models pay
#: for re-application, but nothing in the model layer may collapse the rate.
MIN_RELATIVE_THROUGHPUT = 0.2

MODELS = [
    SingleBitTransient(),
    MultiBitAdjacent(width=2),
    MultiBitAdjacent(width=4),
    IntermittentBurst(count=3, period=2),
    StuckAt0(duration=16),
    StuckAt1(duration=16),
]


def test_faultmodel_injection_throughput(bench_json_dir):
    bench_json = bench_json_dir / BENCH_NAME
    config = small_config()
    golden = capture_golden(build_loop_program(REFERENCE_ITERATIONS), config,
                            trace=False)
    geometry = structure_geometry(TargetStructure.RF, config)

    rows = []
    for model in MODELS:
        faults = generate_fault_list(
            geometry, golden.cycles, sample_size=FAULTS, seed=42, model=model
        )
        started = time.perf_counter()
        result = ComprehensiveCampaign(golden, faults).run()
        elapsed = time.perf_counter() - started
        assert result.injections_performed == FAULTS
        rows.append({
            "model": model.describe(),
            "wall_clock_seconds": round(elapsed, 3),
            "faults_per_second": round(FAULTS / elapsed, 1),
            "avf": round(result.avf, 4),
        })

    baseline = rows[0]["faults_per_second"]
    for row in rows:
        row["relative_throughput"] = round(row["faults_per_second"] / baseline, 3)

    payload = {
        "workload": f"loop[{REFERENCE_ITERATIONS}]",
        "structure": "RF",
        "faults_per_model": FAULTS,
        "golden_cycles": golden.cycles,
        "baseline_model": rows[0]["model"],
        "models": rows,
        "relative_throughput_floor": MIN_RELATIVE_THROUGHPUT,
        "enforced": not gate_relaxed(),
    }
    bench_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if gate_relaxed():
        return
    for row in rows[1:]:
        assert row["relative_throughput"] >= MIN_RELATIVE_THROUGHPUT, (
            f"{row['model']} throughput collapsed: "
            f"{row['relative_throughput']}x of single-bit "
            f"(floor {MIN_RELATIVE_THROUGHPUT}x); see {bench_json}"
        )
