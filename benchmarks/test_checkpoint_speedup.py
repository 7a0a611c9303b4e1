"""Checkpoint engine speedup on a 1k-fault comprehensive campaign.

Runs the same 1000-fault register-file campaign twice — serial cold-start
vs. checkpoint fast-forward — verifies the outcomes are identical, and
emits ``BENCH_checkpoint.json`` (into ``.bench_work/``, or the
repository root under ``pytest --record-bench``) with the wall-clock
trajectory.  Each leg's time includes everything that engine actually
pays: golden capture for the cold leg, golden capture plus checkpoint
timeline capture for the checkpointed leg.
"""

from __future__ import annotations

import json
import time

from conftest import REFERENCE_ITERATIONS, gate_relaxed
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.testing import build_loop_program, shared_fault_list, small_config
from repro.uarch.structures import TargetStructure

BENCH_NAME = "BENCH_checkpoint.json"

FAULTS = 1_000
# Relative floor of the checkpoint engine over the serial cold engine.
# Originally 2.0 against the pre-PR-5 interpreter; the hot-loop overhaul
# made the *cold* baseline ~2.7x faster (see BENCH_simcore.json), which
# compresses this ratio even though the checkpoint engine itself also got
# ~2.2x faster in absolute terms — both engines now spend most of their
# time in the same optimized core, so prefix-skipping has less redundant
# work left to elide on this short reference kernel.
REQUIRED_SPEEDUP = 1.6


def test_checkpoint_campaign_speedup(bench_json_dir):
    bench_json = bench_json_dir / BENCH_NAME
    config = small_config()
    program = build_loop_program(REFERENCE_ITERATIONS)

    # The fault list is shared input for both legs, built outside either
    # timed region so neither engine is charged for it.
    fault_list = shared_fault_list(
        capture_golden(program, config, trace=False),
        TargetStructure.RF, sample_size=FAULTS, seed=42,
    )

    # --- serial cold-start leg -----------------------------------------
    started = time.perf_counter()
    golden_cold = capture_golden(program, config, trace=False)
    cold = ComprehensiveCampaign(golden_cold, fault_list).run()
    cold_seconds = time.perf_counter() - started

    # --- checkpoint engine leg -----------------------------------------
    started = time.perf_counter()
    golden_warm = capture_golden(
        build_loop_program(REFERENCE_ITERATIONS), config, trace=False
    )
    warm = ComprehensiveCampaign(
        golden_warm, fault_list, use_checkpoints=True
    ).run()
    warm_seconds = time.perf_counter() - started

    # The speedup must not come at any cost in fidelity.
    assert warm.outcomes == cold.outcomes
    assert warm.counts.counts == cold.counts.counts
    assert warm.injections_performed == cold.injections_performed == FAULTS

    speedup = cold_seconds / warm_seconds
    payload = {
        "benchmark": "checkpoint_campaign_speedup",
        "workload": f"loop[{REFERENCE_ITERATIONS}]",
        "structure": TargetStructure.RF.short_name,
        "faults": FAULTS,
        "golden_cycles": golden_cold.cycles,
        "checkpoints": len(golden_warm.checkpoints),
        "checkpoint_interval": golden_warm.checkpoints.interval,
        "cold_seconds": round(cold_seconds, 3),
        "checkpoint_seconds": round(warm_seconds, 3),
        "speedup": round(speedup, 3),
        "classification": cold.counts.counts,
    }
    bench_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\ncheckpoint speedup: {speedup:.2f}x "
          f"(cold {cold_seconds:.1f}s, checkpointed {warm_seconds:.1f}s)")

    # Shared CI runners are too noisy for a hard wall-clock gate; the
    # workflow sets REPRO_BENCH_RELAXED=1 there, while local runs keep
    # enforcing the floor.
    if gate_relaxed():
        return
    assert speedup >= REQUIRED_SPEEDUP, (
        f"checkpoint engine speedup {speedup:.2f}x below the "
        f"{REQUIRED_SPEEDUP}x floor (cold {cold_seconds:.1f}s, "
        f"checkpointed {warm_seconds:.1f}s)"
    )
