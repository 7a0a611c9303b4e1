"""Unexpected simulator exceptions: still Crash, but counted.

``inject_fault`` keeps the paper's taxonomy and classifies any escape from
the simulator as a Crash.  A modelled crash (``ProgramCrash``,
``SimulatorAssertError``) is the program's behaviour; anything else is a
bug in the simulator, so it is also counted in
``repro_internal_errors_total{type}`` rather than silently becoming data.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.faults.classification import FaultEffectClass
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultSpec
from repro.isa.errors import ProgramCrash, SimulatorAssertError
from repro.testing import build_loop_program, shared_fault_list, small_config
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure


@pytest.fixture(scope="module")
def golden():
    return capture_golden(build_loop_program(30), small_config(), trace=False)


FAULT = FaultSpec(0, TargetStructure.RF, entry=2, bit=3, cycle=10)


def raising(error):
    def run(self, *args, **kwargs):
        raise error
    return run


def test_unexpected_exception_is_a_counted_crash(golden, monkeypatch):
    monkeypatch.setattr(OutOfOrderCpu, "run", raising(KeyError("boom")))
    with obs.observe() as ctx:
        outcome = inject_fault(golden, FAULT)
    assert outcome.effect is FaultEffectClass.CRASH
    assert "KeyError" in outcome.result.crash_reason
    registry = ctx.registry
    assert registry.value("repro_internal_errors_total", type="KeyError") == 1
    assert registry.total("repro_internal_errors_total") == 1
    assert registry.value("repro_run_end_total", reason="crash") == 1


@pytest.mark.parametrize("error", [ProgramCrash("wild store"),
                                   SimulatorAssertError("queue overflow")],
                         ids=["program-crash", "simulator-assert"])
def test_modelled_crash_is_not_an_internal_error(golden, monkeypatch, error):
    monkeypatch.setattr(OutOfOrderCpu, "run", raising(error))
    with obs.observe() as ctx:
        outcome = inject_fault(golden, FAULT)
    assert outcome.effect is FaultEffectClass.CRASH
    assert ctx.registry.total("repro_internal_errors_total") == 0


def test_dead_flips_and_a_real_campaign_record_no_internal_error():
    """Both injection paths, with the index answer firing on a register
    that is on the golden run's free list."""
    warm = capture_golden(build_loop_program(30), small_config(), trace=False,
                          checkpoint_interval=24)
    cpu = OutOfOrderCpu(warm.program, warm.config)
    cpu.run(cycle_hook=lambda live: warm.result if (
        live.cycle >= warm.cycles // 2 and len(live.free_list)) else None)
    cycle, register = cpu.cycle, min(cpu.free_list.snapshot())
    dead = FaultSpec(0, TargetStructure.RF, entry=register, bit=5, cycle=cycle)
    faults = list(shared_fault_list(warm, TargetStructure.RF, sample_size=40))
    with obs.observe() as ctx:
        for fault in faults + [dead]:
            inject_fault(warm, fault)
            inject_fault(warm, fault, fast_forward=True)
    registry = ctx.registry
    assert registry.value("repro_run_end_total", reason="unread_flip") >= 1
    assert registry.total("repro_internal_errors_total") == 0
