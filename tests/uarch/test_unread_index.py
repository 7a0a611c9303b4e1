"""The dead-cell index's access logs, checked by injection.

A one-cycle flip whose cell (RF register, SQ data latch, L1D word) the
golden run overwrites, or never reads again, before anything reads it is
answered with the golden result before any restore.  These tests inject
the answered flips into cells in use on the reference path (a fresh CPU
from cycle 0) and require the golden result in every field.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultSpec
from repro.testing import (
    build_l1d_access_program,
    build_loop_program,
    small_config,
    unread_index_disagreements,
)
from repro.uarch.checkpoint import DEFAULT_INTERVAL
from repro.uarch.pipeline import OutOfOrderCpu, TerminationKind
from repro.uarch.structures import TargetStructure
from repro.workloads.registry import build_program

STRUCTURES = list(TargetStructure)


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
def test_every_answered_flip_of_a_loop_is_masked(structure):
    """Every answered (register, cycle) pair off the free list, or every
    run of answered boundaries of an SQ/L1D cell in use, exhaustively."""
    injected, disagreements = unread_index_disagreements(
        build_loop_program(3), small_config(), structure=structure)
    assert injected > (1000 if structure is TargetStructure.RF else 2)
    assert disagreements == 0, f"{disagreements} of {injected} faults disagree"


@pytest.mark.parametrize("structure", STRUCTURES, ids=lambda s: s.name)
def test_every_answered_flip_of_the_l1d_kernel_is_masked(structure):
    """The kernel reads through every logged kind of access: a dirty
    eviction's write-back, a squashed load, the end-of-run flush, a
    sub-word store, and a load's address register.  Dropping the log of
    any one of these makes this fail."""
    injected, disagreements = unread_index_disagreements(
        build_l1d_access_program(), small_config().with_l1d(1),
        structure=structure)
    assert injected > 0
    assert disagreements == 0, f"{disagreements} of {injected} faults disagree"


@pytest.mark.parametrize("structure", [TargetStructure.SQ, TargetStructure.L1D],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("workload", ["qsort", "sha", "fft", "libquantum", "gcc"])
def test_sampled_answered_flips_are_masked(workload, structure):
    injected, disagreements = unread_index_disagreements(
        build_program(workload, 1), structure=structure, sample=20, seed=0)
    assert injected > 0
    assert disagreements == 0, f"{disagreements} of {injected} faults disagree"


BUDGET = 80


def test_reads_in_the_last_step_of_a_simpoint_golden_are_kept():
    """An instruction budget ends the golden run one full step after its
    last observed boundary.  A register read in that step is live at that
    boundary, so a flip there must run, and classify as the reference
    path does."""
    program, config = build_loop_program(30), small_config()
    golden = capture_golden(program, config, trace=False,
                            max_instructions=BUDGET,
                            checkpoint_interval=DEFAULT_INTERVAL)
    assert golden.result.termination is TerminationKind.INTERVAL_END
    index = golden.checkpoints.dead_cells
    last = index.last
    logs = []

    def arm(cpu):
        if cpu.cycle == last:
            logs.append(cpu.begin_access_log()[TargetStructure.RF])
        return None

    replay = OutOfOrderCpu(program, config).run(max_instructions=BUDGET,
                                                cycle_hook=arm)
    assert replay == golden.result
    first_access = {}
    for code in logs[0]:
        first_access.setdefault(code if code >= 0 else ~code, code >= 0)
    read_first = sorted(reg for reg, read in first_access.items() if read)
    assert read_first, "the last step reads no register"

    for reg in read_first:
        fault = FaultSpec(0, TargetStructure.RF, entry=reg, bit=0, cycle=last)
        assert index.masked_reason(fault) is None, fault.describe()
        with obs.observe() as ctx:
            warm = inject_fault(golden, fault, simpoint_mode=True,
                                fast_forward=True)
        assert not ctx.registry.value("repro_run_end_total",
                                      reason="unread_flip")
        cold = inject_fault(golden, fault, simpoint_mode=True)
        assert (warm.effect, warm.simpoint_effect, warm.result) == (
            cold.effect, cold.simpoint_effect, cold.result), fault.describe()


def test_a_full_run_of_a_budget_cut_golden_takes_no_golden_shortcut():
    """Without SimPoint mode a run goes on past a budget-cut golden run's
    end, so neither an index answer nor reconvergence may hand it the
    golden result; it must classify as the reference path does."""
    golden = capture_golden(build_loop_program(30), small_config(),
                            trace=False, max_instructions=150,
                            checkpoint_interval=DEFAULT_INTERVAL)
    assert golden.result.termination is TerminationKind.INTERVAL_END
    index = golden.checkpoints.dead_cells
    faults = [FaultSpec(0, TargetStructure.RF, entry=reg, bit=3, cycle=cycle)
              for cycle in range(0, golden.cycles, 16)
              for reg in range(0, small_config().num_phys_int_regs, 7)]
    assert any(index.masked_reason(fault) for fault in faults)
    with obs.observe() as ctx:
        for fault in faults:
            warm = inject_fault(golden, fault, fast_forward=True)
            cold = inject_fault(golden, fault)
            assert (warm.effect, warm.result) == (cold.effect, cold.result), (
                fault.describe())
    for reason in ("dead_flip", "unread_flip", "reconverged"):
        assert not ctx.registry.value("repro_run_end_total", reason=reason)
