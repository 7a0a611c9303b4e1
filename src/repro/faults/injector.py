"""Single-fault injection runs."""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from repro.uarch.checkpoint import (
    CpuState,
    ValueSkip,
    clone_result,
    make_reconvergence_hook,
    write_cells,
)
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


#: What a run segment returns when the injector stops it to jump: a
#: placeholder that is never classified, since the run goes on.  The
#: injector's own cycle hook returns it, not the reconvergence hook, whose
#: every non-None return ``bench/tracer.py`` files as a reconvergence.
_JUMP = SimulationResult(
    termination=TerminationKind.TIMEOUT,
    output=[],
    cycles=0,
    committed_instructions=0,
    committed_uops=0,
    exceptions=0,
    crash_reason=None,
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

    ``fast_forward`` enables the checkpoint engine, which skips to the
    next read.  The golden timeline's
    :class:`~repro.uarch.checkpoint.DeadCellIndex` knows where the golden
    run next reads, or fully overwrites, every register value, store-queue
    data latch and L1D word, and one rule serves every structure: a run
    that equals the golden run except in some stored values may forget
    those that are overwritten before they are read, or never read again,
    and need not simulate until the first read of the rest.

    - At the fault cycle, a one-cycle fault whose every flipped cell is
      forgotten is answered with the golden result: no CPU is touched,
      nothing is restored or stepped.  Otherwise, if every flipped cell
      is read later, the run restores the last golden checkpoint at or
      before the earliest of those reads and applies the flip there,
      since the cells keep their values until then; else it restores the
      nearest golden checkpoint at-or-before the injection cycle.
    - At every checkpoint after the fault's active window has closed,
      :func:`~repro.uarch.checkpoint.make_reconvergence_hook` compares
      the run with the golden checkpoint.  If the run differs only in
      stored values and none is read again, it ends with the golden
      result; if the first read lies past a later checkpoint, the run
      stops, restores the last such checkpoint, stores every faulty
      value the golden run has not overwritten by then and goes on
      (between ``OutOfOrderCpu.run`` calls, never inside the hook).

    None of this is done when the golden run was cut at an instruction
    budget but ``simpoint_mode`` is off: such a run goes on past the
    golden run's end, so only its restore point comes from the timeline.
    Both paths are bit-identical in classification and in every
    :class:`SimulationResult` field (enforced by the differential harness
    in ``tests/integration/test_checkpoint_equivalence.py``).

    ``pool`` is a campaign's ``(cpu, initial_state)`` pair from
    :func:`~repro.uarch.checkpoint.new_restore_pool`: the run restores
    into that CPU (a restore resets *all* machine state, so reuse is
    exact), from the timeline's checkpoints when fast-forwarding and from
    ``initial_state`` otherwise.  Without a pool every run builds a fresh
    CPU, the reference path the equivalence suites compare against.

    Any exception the simulator raises is classified as a Crash, like
    the modelled ones (``ProgramCrash``, ``SimulatorAssertError``) that
    ``OutOfOrderCpu.run`` already turns into a termination kind.

    Under :mod:`repro.obs` each call records the cycles it actually
    stepped (summed over the run's segments; each jump counts as a
    restore) and why the run ended: the termination kind, ``reconverged``
    (the state equalled a golden checkpoint), ``unread_values`` (it
    differed only in stored values never read again), ``unread_flip`` (an
    RF fault answered at the fault cycle) or ``dead_flip`` (an SQ or L1D
    fault answered at the fault cycle).  An exception other than a
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
    window_fault = fault
    start = None
    if timeline is not None:
        start = timeline.nearest(fault.cycle)
        if golden_end and fault.last_active_cycle == fault.cycle:
            index = timeline.dead_cells
            reason = index.masked_reason(fault)
            if reason is not None:
                result = clone_result(golden.result)
                return _outcome(golden, fault, result, simpoint_mode, obs_ctx,
                                0, reason)
            reads = [index.next_read(fault.structure, entry, fault.cycle)
                     for entry in fault.flip_entries()]
            if None not in reads:
                target = timeline.nearest(min(reads))
                if target.cycle > fault.cycle:
                    # Nothing accesses the flipped cells before ``target``,
                    # so flipping them there is the same run.
                    start = target
                    window_fault = replace(fault, cycle=target.cycle)
    max_cycles = max(golden.timeout_cycles(TIMEOUT_FACTOR), fault.cycle + 1)
    max_instructions = golden.committed_instructions if simpoint_mode else None
    cpu = None
    start_cycle = stepped = 0
    skip = ValueSkip()
    try:
        cycle_hook = None
        if pool is None:
            cpu, initial = OutOfOrderCpu(golden.program, golden.config), None
        else:
            cpu, initial = pool
        cpu.fault_plan = window_fault.plan()
        if timeline is not None and golden_end:
            check = make_reconvergence_hook(timeline, window_fault,
                                            golden.result, skip)

            def cycle_hook(live: OutOfOrderCpu) -> Optional[SimulationResult]:
                early = check(live)
                if early is None and skip.jump is not None:
                    return _JUMP
                return early
        if start is None:
            start = initial
        if start is not None:
            cpu.restore(start, timeline)
            start_cycle = start.cycle
            if obs_ctx is not None and start.cycle:
                # A cycle-0 restore (the pooled cold path, or a fault
                # before the second checkpoint) is not a fast-forward;
                # only mid-run restores save simulation.
                obs_ctx.checkpoint_restore(start.cycle)
        while True:
            result = cpu.run(
                max_cycles=max_cycles,
                max_instructions=max_instructions,
                cycle_hook=cycle_hook,
            )
            if result is not _JUMP:
                break
            target, cells = skip.jump
            skip.jump = None
            stepped += cpu.cycle - start_cycle
            if obs_ctx is not None:
                obs_ctx.checkpoint_restore(target.cycle - cpu.cycle)
            cpu.restore(target, timeline)
            write_cells(cpu, cells)
            start_cycle = target.cycle
    except Exception as failure:  # noqa: BLE001 - any escape is a simulator crash
        result = _simulator_crash_result(golden, repr(failure))
        if obs_ctx is not None and not isinstance(
                failure, (ProgramCrash, SimulatorAssertError)):
            obs_ctx.internal_error(type(failure).__name__)

    if cpu is not None:
        stepped += cpu.cycle - start_cycle
    end_reason = result.termination.value
    if cpu is not None and cpu.cycle < result.cycles:
        end_reason = "unread_values" if skip.unread else "reconverged"
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
