"""Injector edge cases for the generalized fault models.

The scenarios here are the awkward corners the model zoo opens up: active
windows outliving the program, flip sites whose owning entry is freed (or
was never valid) mid-window, and stuck-at pins on cache lines that are
invalid for the whole run.  Each case must complete, classify, and stay
bit-identical between the cold-start and checkpoint fast-forward paths.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.faults.classification import FaultEffectClass
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultSpec
from repro.faults.models import IntermittentBurst, StuckAt0, StuckAt1
from repro.testing import build_loop_program, small_config
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure, structure_geometry


@pytest.fixture(scope="module")
def golden():
    return capture_golden(build_loop_program(30), small_config(), trace=False)


@pytest.fixture(scope="module")
def golden_warm():
    return capture_golden(build_loop_program(30), small_config(), trace=False,
                          checkpoint_interval=24)


def both_paths(golden_cold, golden_warm, fault):
    cold = inject_fault(golden_cold, fault)
    warm = inject_fault(golden_warm, fault, fast_forward=True)
    assert cold.effect == warm.effect, fault.describe()
    for name in cold.result.__dataclass_fields__:
        assert getattr(cold.result, name) == getattr(warm.result, name), (
            f"{fault.describe()}: SimulationResult.{name} differs"
        )
    return cold


def test_stuck_at_window_extending_past_program_end(golden, golden_warm):
    """A pin that outlives the run: applications after halt never fire."""
    fault = StuckAt1(duration=10 * golden.cycles).make_fault(
        0, TargetStructure.RF, entry=60, bit=63, cycle=golden.cycles - 5
    )
    assert fault.last_active_cycle > golden.cycles
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.effect in set(FaultEffectClass)
    assert outcome.result.cycles <= golden.timeout_cycles()


def test_intermittent_reapplications_past_program_end(golden, golden_warm):
    """Late re-flips of an intermittent burst simply never land."""
    fault = IntermittentBurst(count=4, period=golden.cycles).make_fault(
        0, TargetStructure.RF, entry=2, bit=0, cycle=golden.cycles - 2
    )
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.effect in set(FaultEffectClass)


def test_window_opening_exactly_on_last_cycle(golden, golden_warm):
    """Anchor on the final golden cycle is legal (validate allows it)."""
    geometry = structure_geometry(TargetStructure.RF, golden.config)
    fault = StuckAt0(duration=3).make_fault(
        0, TargetStructure.RF, entry=0, bit=0, cycle=golden.cycles - 1
    )
    from repro.faults.model import FaultList
    flist = FaultList(TargetStructure.RF, [fault])
    flist.validate(geometry, total_cycles=golden.cycles)
    both_paths(golden, golden_warm, fault)


def test_stuck_at_on_entry_freed_mid_window(golden, golden_warm):
    """A store-queue slot's latch pinned across allocate/free churn.

    SQ slots are freed at drain but their data latches persist; a window
    spanning many allocate/free generations must keep re-pinning without
    tripping any simulator assertion.
    """
    fault = StuckAt1(duration=max(64, golden.cycles // 2)).make_fault(
        0, TargetStructure.SQ, entry=3, bit=17, cycle=5
    )
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.effect in set(FaultEffectClass)


def test_stuck_at_on_invalid_cache_line(golden, golden_warm):
    """Pinning a bit of a line the program never fills stays masked.

    The loop program touches only the bottom of the L1D index space; the
    last entry of the top set stays invalid for the whole run, so a pin
    there must classify as Masked — and must not crash the cache model.
    """
    geometry = structure_geometry(TargetStructure.L1D, golden.config)
    fault = StuckAt1(duration=golden.cycles).make_fault(
        0, TargetStructure.L1D, entry=geometry.num_entries - 1, bit=8, cycle=0
    )
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.effect is FaultEffectClass.MASKED


def test_flip_window_covering_whole_run_still_terminates(golden, golden_warm):
    """An intermittent fault glitching every other cycle for the whole run."""
    fault = FaultSpec(
        0, TargetStructure.RF, entry=1, bit=4, cycle=0,
        model="intermittent", window=golden.cycles, period=2,
    )
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.result.cycles <= golden.timeout_cycles()


def test_multi_entry_flip_set_is_applied_and_prefiltered(golden, golden_warm):
    """A hand-built spec spanning two entries exercises the multi-site
    reconvergence pre-filter (every distinct entry checked)."""
    fault = FaultSpec(
        0, TargetStructure.RF, entry=58, bit=0, cycle=10,
        model="multi-bit", flips=((58, 0), (59, 0)),
    )
    assert fault.flip_entries() == (58, 59)
    outcome = both_paths(golden, golden_warm, fault)
    assert outcome.effect in set(FaultEffectClass)


# ----------------------------------------------------------------------
# The index exit must never fire on a live or windowed fault
# ----------------------------------------------------------------------
def replay_until(golden, predicate):
    """A golden replay stopped at the first cycle boundary where
    ``predicate(cpu)`` holds (before that cycle's fault application)."""
    cpu = OutOfOrderCpu(golden.program, golden.config)
    cpu.run(cycle_hook=lambda live: golden.result if predicate(live) else None)
    assert predicate(cpu), "the golden run never reached the wanted state"
    return cpu


def read_next(golden, cycle, structure=TargetStructure.RF):
    """Entries of ``structure`` whose next access after boundary ``cycle``
    of the golden run is a read."""
    logs = []

    def arm(cpu):
        if cpu.cycle == cycle:
            logs.append(cpu.begin_access_log()[structure])
        return None

    OutOfOrderCpu(golden.program, golden.config).run(cycle_hook=arm)
    first_access = {}
    for code in logs[0]:
        first_access.setdefault(code if code >= 0 else ~code, code >= 0)
    read = sorted(entry for entry, is_read in first_access.items() if is_read)
    assert read, f"nothing reads {structure.name} after cycle {cycle}"
    return read


def index_exits(golden_warm, fault) -> float:
    """How often the fast-forwarded run of ``fault`` was answered from the
    golden run's index (``dead_flip`` or ``unread_flip``)."""
    with obs.observe() as ctx:
        inject_fault(golden_warm, fault, fast_forward=True)
    registry = ctx.registry
    return sum(registry.value("repro_run_end_total", reason=reason) or 0
               for reason in ("dead_flip", "unread_flip"))


@pytest.mark.parametrize("structure", list(TargetStructure), ids=lambda s: s.name)
def test_live_entry_never_exits_at_fault_cycle(golden, golden_warm, structure):
    """A register, store-queue latch or L1D word that the golden run
    reads next is live."""
    cycle = golden.cycles // 3
    for entry in read_next(golden, cycle, structure)[:4]:
        fault = FaultSpec(0, structure, entry=entry, bit=1, cycle=cycle)
        both_paths(golden, golden_warm, fault)
        assert index_exits(golden_warm, fault) == 0, fault.describe()


@pytest.fixture(scope="module")
def free_register(golden):
    """(cycle, physical register) of a register on the free list."""
    cpu = replay_until(golden, lambda live: (
        live.cycle >= golden.cycles // 2 and len(live.free_list)))
    return cpu.cycle, next(reg for reg in range(cpu.prf.num_regs)
                           if reg in cpu.free_list)


@pytest.mark.parametrize("model", [StuckAt0(duration=4), StuckAt1(duration=1),
                                   IntermittentBurst(count=3, period=2)],
                         ids=["stuck-at-0-window-4", "stuck-at-1-one-cycle",
                              "intermittent-3x2"])
def test_windowed_fault_on_dead_entry_waits_for_window(
        golden, golden_warm, free_register, model):
    """Only one-cycle faults take the exit, even on a free register."""
    cycle, reg = free_register
    transient = FaultSpec(0, TargetStructure.RF, entry=reg, bit=5, cycle=cycle)
    assert index_exits(golden_warm, transient) == 1
    fault = model.make_fault(0, TargetStructure.RF, entry=reg, bit=5, cycle=cycle)
    both_paths(golden, golden_warm, fault)
    expected = 1 if fault.last_active_cycle == fault.cycle else 0
    assert index_exits(golden_warm, fault) == expected, fault.describe()


def test_burst_with_one_live_entry_never_exits(golden, golden_warm, free_register):
    """Every flip entry must be masked, not just the anchor."""
    cycle, reg = free_register
    live = read_next(golden, cycle)[0]
    fault = FaultSpec(0, TargetStructure.RF, entry=reg, bit=5, cycle=cycle,
                      model="multi-bit", flips=((reg, 5), (live, 5)))
    both_paths(golden, golden_warm, fault)
    assert index_exits(golden_warm, fault) == 0
