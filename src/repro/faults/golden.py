"""Golden-run capture.

The golden (fault-free) run serves three purposes: it is the reference the
injection outcomes are compared against; when tracing is enabled it is
MeRLiN's profiling run that records the structure accesses from which the
ACE-like vulnerable intervals are built (a single run for both, exactly as
in the paper's Preprocessing phase); and — when checkpointing is enabled —
it supplies the :class:`~repro.uarch.checkpoint.CheckpointTimeline` that
injection runs restore from to skip re-simulating the fault-free prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.program import Program
from repro.uarch.checkpoint import DEFAULT_INTERVAL, CheckpointTimeline
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu, SimulationResult, TerminationKind
from repro.uarch.trace import AccessTracer


@dataclass
class GoldenRecord:
    """Result of the fault-free reference run."""

    program: Program
    config: MicroarchConfig
    result: SimulationResult
    tracer: Optional[AccessTracer] = None
    #: Committed macro-instruction log (rip, commit cycle); populated when
    #: tracing is enabled, used by the Relyzer control-equivalence baseline.
    commit_log: List[Tuple[int, int]] = field(default_factory=list)
    #: Machine-state checkpoints for fast-forwarded injection runs; absent
    #: until captured inline or via :meth:`ensure_checkpoints`.
    checkpoints: Optional[CheckpointTimeline] = None
    #: The instruction budget the golden run was captured with, so
    #: :meth:`ensure_checkpoints` can replay the identical run.
    max_instructions: Optional[int] = None

    @property
    def cycles(self) -> int:
        return self.result.cycles

    @property
    def committed_instructions(self) -> int:
        return self.result.committed_instructions

    def timeout_cycles(self, factor: int = 3) -> int:
        """Cycle budget after which an injection run is declared a timeout."""
        return self.result.cycles * factor

    # ------------------------------------------------------------------
    # Checkpoint access
    # ------------------------------------------------------------------
    def ensure_checkpoints(self) -> CheckpointTimeline:
        """Capture the checkpoint timeline, replaying the golden run if needed.

        The replay is an untraced :func:`capture_golden` (tracing does not
        influence simulation dynamics) under the inline capture's policy,
        so its timeline equals the one a checkpointing capture builds.  It
        must reproduce the recorded golden result bit for bit before its
        checkpoints are accepted.  Idempotent: an already-captured
        timeline is returned as is.
        """
        if self.checkpoints is not None:
            return self.checkpoints
        replay = capture_golden(
            self.program, self.config, trace=False,
            max_cycles=self.cycles + 2,
            max_instructions=self.max_instructions,
            checkpoint_interval=DEFAULT_INTERVAL,
        )
        if replay.result != self.result:
            raise RuntimeError(
                f"checkpoint replay of {self.program.name!r} diverged from the "
                f"golden run ({replay.result.termination.value} at cycle "
                f"{replay.cycles} vs {self.result.termination.value} at cycle "
                f"{self.result.cycles})"
            )
        self.checkpoints = replay.checkpoints
        return self.checkpoints


def capture_golden(
    program: Program,
    config: Optional[MicroarchConfig] = None,
    trace: bool = True,
    max_cycles: int = 5_000_000,
    max_instructions: Optional[int] = None,
    checkpoint_interval: Optional[int] = None,
) -> GoldenRecord:
    """Run ``program`` fault-free and capture its architectural outcome.

    ``checkpoint_interval`` (if given) snapshots the machine state at
    cycle 0 and every that many cycles after it during this same run,
    enabling fast-forwarded injection; leave it ``None`` to skip the
    snapshot cost (checkpoints can still be added later with
    :meth:`GoldenRecord.ensure_checkpoints`).

    Raises ``RuntimeError`` if the fault-free run does not terminate
    normally — a broken workload would silently poison every reliability
    number derived from it.
    """
    config = config or MicroarchConfig()
    tracer = AccessTracer(enabled=trace)
    timeline: Optional[CheckpointTimeline] = None
    if checkpoint_interval is not None:
        timeline = CheckpointTimeline(checkpoint_interval)
    cpu = OutOfOrderCpu(program, config, tracer=tracer)
    result = cpu.run(
        max_cycles=max_cycles,
        max_instructions=max_instructions,
        cycle_hook=timeline.observe if timeline is not None else None,
    )
    if timeline is not None:
        timeline.dead_cells.finish()
    acceptable = (TerminationKind.HALTED, TerminationKind.INTERVAL_END)
    if result.termination not in acceptable:
        raise RuntimeError(
            f"golden run of {program.name!r} did not complete: "
            f"{result.termination.value} ({result.crash_reason})"
        )
    return GoldenRecord(
        program=program,
        config=config,
        result=result,
        tracer=tracer if trace else None,
        commit_log=list(cpu.commit_log),
        checkpoints=timeline,
        max_instructions=max_instructions,
    )
