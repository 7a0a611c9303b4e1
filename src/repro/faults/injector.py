"""Single-fault injection runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.faults.classification import (
    FaultEffectClass,
    SimpointEffectClass,
    TIMEOUT_FACTOR,
    classify_outcome,
    classify_simpoint_outcome,
)
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultSpec
from repro.isa.errors import ProgramCrash, SimulatorAssertError
from repro.uarch.checkpoint import CpuState, clone_result, make_reconvergence_hook
from repro.uarch.pipeline import OutOfOrderCpu, SimulationResult, TerminationKind
from repro.uarch.stats import SimStats


@dataclass
class InjectionOutcome:
    """Outcome of one fault-injection run."""

    fault: FaultSpec
    effect: FaultEffectClass
    result: SimulationResult
    simpoint_effect: Optional[SimpointEffectClass] = None


def _simulator_crash_result(golden: GoldenRecord, reason: str) -> SimulationResult:
    """Synthesise a result for a simulator-process crash (Table 2: Crash)."""
    return SimulationResult(
        termination=TerminationKind.CRASH,
        output=[],
        cycles=0,
        committed_instructions=0,
        committed_uops=0,
        exceptions=0,
        crash_reason=f"simulator crash: {reason}",
        stats=SimStats(),
    )


def inject_fault(
    golden: GoldenRecord,
    fault: FaultSpec,
    simpoint_mode: bool = False,
    fast_forward: bool = False,
    pool: Optional[Tuple[OutOfOrderCpu, CpuState]] = None,
) -> InjectionOutcome:
    """Run the workload with ``fault`` injected and classify the outcome.

    ``simpoint_mode`` terminates the run once the golden run's committed
    instruction count is reached and classifies with the reduced taxonomy of
    Section 4.4.3.4 (in addition to the full taxonomy, which is then based
    on the state observed at the interval end).

    The fault may be any :class:`~repro.faults.model.FaultSpec` scenario —
    single-bit transient, multi-bit burst, intermittent re-application or
    stuck-at window — the whole plan (every flip site at every active
    cycle) is handed to the pipeline.  A window extending past the run's
    end is legal: late applications simply never fire.

    ``fast_forward`` enables the checkpoint engine.  A one-cycle fault
    whose every flipped cell is masked, by one rule per structure, is
    answered from the golden timeline's
    :class:`~repro.uarch.checkpoint.DeadCellIndex` with the golden result:
    no CPU is touched, nothing is restored or stepped.  RF: read windows,
    a register whose next physical access in the golden run is a write,
    or that is never accessed again.  SQ/L1D: deadness, an invalid slot
    or line.  Any other run
    restores the nearest golden checkpoint at-or-before the injection
    cycle instead of cold-simulating from cycle 0, and ends early with the
    golden result once the faulty state reconverges exactly onto a later
    golden checkpoint (only *after* the fault's active window has closed —
    a still-open window could re-perturb matched state); see
    :func:`~repro.uarch.checkpoint.make_reconvergence_hook`.  Neither
    shortcut is taken when the golden run was cut at an instruction
    budget but ``simpoint_mode`` is off: such a run goes on past the
    golden run's end, so only its restore point comes from the timeline.
    Both paths are bit-identical in classification and in every
    :class:`SimulationResult` field (enforced by the differential harness
    in ``tests/integration/test_checkpoint_equivalence.py``).

    ``pool`` is a campaign's ``(cpu, initial_state)`` pair from
    :func:`~repro.uarch.checkpoint.new_restore_pool`: the run restores
    into that CPU (a restore resets *all* machine state, so reuse is
    exact), from the timeline's nearest checkpoint when fast-forwarding
    and from ``initial_state`` otherwise.  Without a pool every run builds
    a fresh CPU, the reference path the equivalence suites compare
    against.

    Any exception the simulator raises is classified as a Crash, like
    the modelled ones (``ProgramCrash``, ``SimulatorAssertError``) that
    ``OutOfOrderCpu.run`` already turns into a termination kind.

    Under :mod:`repro.obs` each call records the cycles it actually
    stepped and why the run ended: the termination kind, ``reconverged``
    (the run stopped before the cycle count of the result it returns),
    ``unread_flip`` (an RF fault answered from the index: no flipped
    register read before it is overwritten or the run ends) or
    ``dead_flip`` (an SQ or L1D fault answered from the index: every
    flipped cell dead).  An exception other than a
    modelled one is also counted in ``repro_internal_errors_total{type}``:
    it is a simulator bug, not a modelled crash.
    """
    obs_ctx = obs.active()
    timeline = golden.checkpoints if fast_forward else None
    # A run that equals the golden run from some cycle on returns the
    # golden result only if it also stops where the golden run did: a
    # golden run cut at an instruction budget is matched by a SimPoint
    # injection alone, which stops at the same count.
    golden_end = (simpoint_mode
                  or golden.result.termination is not TerminationKind.INTERVAL_END)
    if timeline is not None and golden_end:
        reason = timeline.dead_cells.masked_reason(fault)
        if reason is not None:
            result = clone_result(golden.result)
            return _outcome(golden, fault, result, simpoint_mode, obs_ctx,
                            0, reason)
    fault_plan = fault.plan()
    max_cycles = max(golden.timeout_cycles(TIMEOUT_FACTOR), fault.cycle + 1)
    max_instructions = golden.committed_instructions if simpoint_mode else None
    cpu = None
    start_cycle = 0
    try:
        cycle_hook = None
        if pool is None:
            cpu, start = OutOfOrderCpu(golden.program, golden.config), None
        else:
            cpu, start = pool
        cpu.fault_plan = fault_plan
        if timeline is not None:
            start = timeline.nearest(fault.cycle)
            if golden_end:
                cycle_hook = make_reconvergence_hook(timeline, fault, golden.result)
        if start is not None:
            cpu.restore(start)
            start_cycle = start.cycle
            if obs_ctx is not None and start.cycle:
                # A cycle-0 restore (the pooled cold path, or a fault
                # before the second checkpoint) is not a fast-forward;
                # only mid-run restores save simulation.
                obs_ctx.checkpoint_restore(start.cycle)
        result = cpu.run(
            max_cycles=max_cycles,
            max_instructions=max_instructions,
            cycle_hook=cycle_hook,
        )
    except Exception as failure:  # noqa: BLE001 - any escape is a simulator crash
        result = _simulator_crash_result(golden, repr(failure))
        if obs_ctx is not None and not isinstance(
                failure, (ProgramCrash, SimulatorAssertError)):
            obs_ctx.internal_error(type(failure).__name__)

    stepped = cpu.cycle - start_cycle if cpu is not None else 0
    end_reason = result.termination.value
    if cpu is not None and cpu.cycle < result.cycles:
        end_reason = "reconverged"
    return _outcome(golden, fault, result, simpoint_mode, obs_ctx,
                    stepped, end_reason)


def _outcome(golden: GoldenRecord, fault: FaultSpec, result: SimulationResult,
             simpoint_mode: bool, obs_ctx, stepped: int,
             end_reason: str) -> InjectionOutcome:
    """Classify ``result`` and record the injection under :mod:`repro.obs`."""
    effect = classify_outcome(golden.result, result)
    if obs_ctx is not None:
        obs_ctx.injection_done(effect.value, stepped, end_reason)
    simpoint_effect = None
    if simpoint_mode:
        simpoint_effect = classify_simpoint_outcome(golden.result, result)
    return InjectionOutcome(
        fault=fault, effect=effect, result=result, simpoint_effect=simpoint_effect
    )
