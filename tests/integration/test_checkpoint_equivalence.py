"""Differential harness: checkpoint fast-forward must be bit-identical.

The hard invariant of the checkpoint engine is that a fast-forwarded
injection run (restore the nearest golden checkpoint, simulate the tail,
optionally exit early on exact reconvergence) produces *exactly* the same
:class:`~repro.uarch.pipeline.SimulationResult` — every field, including
the full statistics counters and the final memory hash — and therefore the
same :class:`~repro.faults.classification.FaultEffectClass`, as the
cold-start path for every fault.

This harness drives randomized (program, structure, injection-cycle) cases
through both paths and compares the full results.  Across the
parametrized combinations it covers ≥ 200 distinct cases (see
``test_case_budget_is_at_least_200``).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import FaultEffectClass
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultSpec
from repro.testing import (
    build_call_program,
    build_loop_program,
    shared_fault_list,
    small_config,
)
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import (
    WORDS_PER_LINE,
    TargetStructure,
    structure_geometry,
)
from repro.workloads.registry import build_program

#: Randomized faults drawn per (program, structure, config) combination.
FAULTS_PER_COMBO = 18

MEDIUM_CONFIG = MicroarchConfig().with_register_file(128).with_store_queue(32)


@dataclass(frozen=True)
class Combo:
    label: str
    builder: object
    config: MicroarchConfig
    structure: TargetStructure
    checkpoint_interval: int
    simpoint_mode: bool = False


COMBOS = [
    Combo("loop30-small-RF", lambda: build_loop_program(30), small_config(),
          TargetStructure.RF, 24),
    Combo("loop30-small-SQ", lambda: build_loop_program(30), small_config(),
          TargetStructure.SQ, 24),
    Combo("loop30-small-L1D", lambda: build_loop_program(30), small_config(),
          TargetStructure.L1D, 24),
    Combo("loop60-small-RF", lambda: build_loop_program(60), small_config(),
          TargetStructure.RF, 48),
    Combo("loop60-small-SQ", lambda: build_loop_program(60), small_config(),
          TargetStructure.SQ, 48),
    Combo("loop60-small-L1D", lambda: build_loop_program(60), small_config(),
          TargetStructure.L1D, 48),
    Combo("calls12-small-RF", lambda: build_call_program(12), small_config(),
          TargetStructure.RF, 16),
    Combo("calls12-small-SQ", lambda: build_call_program(12), small_config(),
          TargetStructure.SQ, 16),
    Combo("loop30-medium-RF", lambda: build_loop_program(30), MEDIUM_CONFIG,
          TargetStructure.RF, 32),
    Combo("loop30-medium-L1D", lambda: build_loop_program(30), MEDIUM_CONFIG,
          TargetStructure.L1D, 32),
    Combo("loop30-small-RF-simpoint", lambda: build_loop_program(30),
          small_config(), TargetStructure.RF, 24, simpoint_mode=True),
    Combo("loop30-small-SQ-simpoint", lambda: build_loop_program(30),
          small_config(), TargetStructure.SQ, 24, simpoint_mode=True),
]


def random_faults(combo: Combo, golden, count: int) -> list:
    """Seeded random (entry, bit, cycle) samples over the whole geometry."""
    rng = random.Random(zlib.crc32(combo.label.encode()))
    geometry = structure_geometry(combo.structure, combo.config)
    return [
        FaultSpec(
            fault_id=index,
            structure=combo.structure,
            entry=rng.randrange(geometry.num_entries),
            bit=rng.randrange(geometry.bits_per_entry),
            cycle=rng.randrange(golden.cycles),
        )
        for index in range(count)
    ]


def assert_results_identical(cold, warm, fault):
    """Field-by-field comparison with a readable failure message."""
    assert cold.effect == warm.effect, (
        f"{fault.describe()}: effect {cold.effect} != {warm.effect}"
    )
    assert cold.simpoint_effect == warm.simpoint_effect, fault.describe()
    for name in cold.result.__dataclass_fields__:
        assert getattr(cold.result, name) == getattr(warm.result, name), (
            f"{fault.describe()}: SimulationResult.{name} differs: "
            f"{getattr(cold.result, name)!r} != {getattr(warm.result, name)!r}"
        )


def test_case_budget_is_at_least_200():
    """The harness below exercises >= 200 randomized differential cases."""
    assert len(COMBOS) * FAULTS_PER_COMBO >= 200


@pytest.mark.parametrize("combo", COMBOS, ids=lambda combo: combo.label)
def test_fast_forward_is_bit_identical_to_cold_start(combo):
    program = combo.builder()
    golden_cold = capture_golden(program, combo.config, trace=False)
    golden_warm = capture_golden(
        combo.builder(), combo.config, trace=False,
        checkpoint_interval=combo.checkpoint_interval,
    )
    assert golden_warm.result == golden_cold.result
    assert len(golden_warm.checkpoints) > 0

    for fault in random_faults(combo, golden_cold, FAULTS_PER_COMBO):
        cold = inject_fault(golden_cold, fault, simpoint_mode=combo.simpoint_mode)
        warm = inject_fault(
            golden_warm, fault,
            simpoint_mode=combo.simpoint_mode, fast_forward=True,
        )
        assert_results_identical(cold, warm, fault)


def test_campaign_outcomes_identical_with_and_without_checkpoints():
    """Whole-campaign equivalence, including the cycle-sorted scheduler."""
    config = small_config()
    golden_cold = capture_golden(build_loop_program(40), config, trace=False)
    golden_warm = capture_golden(build_loop_program(40), config, trace=False)
    fault_list = shared_fault_list(
        golden_cold, TargetStructure.RF, sample_size=80, seed=9
    )
    cold = ComprehensiveCampaign(golden_cold, fault_list).run()
    warm = ComprehensiveCampaign(
        golden_warm, fault_list, use_checkpoints=True
    ).run()
    assert warm.counts.counts == cold.counts.counts
    assert warm.outcomes == cold.outcomes
    assert warm.injections_performed == cold.injections_performed


def test_merlin_campaign_identical_with_and_without_checkpoints():
    from repro.core.merlin import MerlinCampaign
    from repro.faults.sampling import generate_fault_list

    config = small_config()

    def merlin(use_checkpoints):
        golden = capture_golden(build_loop_program(30), config, trace=True)
        fault_list = generate_fault_list(
            structure_geometry(TargetStructure.RF, config), golden.cycles,
            sample_size=150, seed=3,
        )
        return MerlinCampaign(ComprehensiveCampaign(
            golden, fault_list, use_checkpoints=use_checkpoints)).run()

    cold = merlin(False)
    warm = merlin(True)
    assert warm.counts_final.counts == cold.counts_final.counts
    assert warm.predicted_outcomes == cold.predicted_outcomes
    assert warm.representative_outcomes == cold.representative_outcomes
    assert warm.injections_performed == cold.injections_performed


# ----------------------------------------------------------------------
# Forced-dead differential: the dead-on-arrival exit
# ----------------------------------------------------------------------
#: Workloads for the forced-dead differential: three MiBench kernels and
#: one SPEC kernel, each at scale 1 on the small configuration.
DEAD_WORKLOADS = ("sha", "qsort", "fft", "libquantum")

DEAD_STRUCTURES = (TargetStructure.RF, TargetStructure.SQ, TargetStructure.L1D)

#: Checkpoint spacing for the warm goldens (a few hundred to ~3k cycles).
DEAD_CHECKPOINT_INTERVAL = 40


def dead_units(cpu, structure: TargetStructure) -> tuple:
    """The free storage units of ``structure`` at this cycle boundary:
    registers on the free list, invalid SQ slots, invalid L1D lines."""
    if structure is TargetStructure.RF:
        return tuple(sorted(cpu.free_list.snapshot()))
    if structure is TargetStructure.SQ:
        return tuple(slot.index for slot in cpu.store_queue.slots
                     if not slot.valid)
    return tuple(index for index, line in enumerate(
        line for ways in cpu.dcache.lines for line in ways) if not line.valid)


def dead_replay(workload: str, structure: TargetStructure):
    """Cold and warm goldens plus, per cycle, the units dead in a replay."""
    program = build_program(workload, 1)
    config = small_config()
    golden_cold = capture_golden(program, config, trace=False)
    golden_warm = capture_golden(program, config, trace=False,
                                 checkpoint_interval=DEAD_CHECKPOINT_INTERVAL)
    dead = {}

    def record(cpu):
        units = dead_units(cpu, structure)
        if units:
            dead[cpu.cycle] = units
        return None

    replay = OutOfOrderCpu(program, config).run(cycle_hook=record)
    assert replay == golden_cold.result
    return golden_cold, golden_warm, dead


@pytest.mark.parametrize("structure", DEAD_STRUCTURES, ids=lambda s: s.name)
@pytest.mark.parametrize("workload", DEAD_WORKLOADS)
def test_dead_flip_exit_is_bit_identical_to_cold_start(workload, structure):
    """Faults drawn only from cells that are free at their cycle.

    Every such fault is masked, so the fast-forwarded run may stop at the
    fault cycle with the golden result; the cold path must agree field by
    field, and must itself equal the golden run.  The obs end-reason
    counter proves the index exit actually fired: ``dead_flip`` for the
    SQ and L1D, ``unread_flip`` for the RF, whose read windows answer
    every free register.
    """
    golden_cold, golden_warm, dead = dead_replay(workload, structure)
    reason = "unread_flip" if structure is TargetStructure.RF else "dead_flip"
    geometry = structure_geometry(structure, golden_cold.config)
    per_unit = WORDS_PER_LINE if structure is TargetStructure.L1D else 1
    cycles = sorted(dead)
    fired = []

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        cycle = data.draw(st.sampled_from(cycles), label="cycle")
        units = dead[cycle]
        unit = data.draw(st.sampled_from(units), label="unit")
        entry = unit * per_unit + data.draw(st.integers(0, per_unit - 1))
        bit = data.draw(st.integers(0, geometry.bits_per_entry - 1), label="bit")
        fault = FaultSpec(0, structure, entry=entry, bit=bit, cycle=cycle)
        if len(units) > 1 and data.draw(st.booleans(), label="two entries"):
            other = data.draw(st.sampled_from(units), label="second unit")
            fault = FaultSpec(0, structure, entry=entry, bit=bit, cycle=cycle,
                              model="multi-bit",
                              flips=((entry, bit), (other * per_unit, bit)))
        cold = inject_fault(golden_cold, fault)
        with obs.observe() as ctx:
            warm = inject_fault(golden_warm, fault, fast_forward=True)
        assert_results_identical(cold, warm, fault)
        assert cold.result == golden_cold.result, fault.describe()
        assert cold.effect is FaultEffectClass.MASKED
        fired.append(ctx.registry.value("repro_run_end_total",
                                        reason=reason) or 0)

    check()
    assert sum(fired) >= 1, f"the {reason} exit never fired"
