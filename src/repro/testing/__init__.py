"""Shared helpers for the test suite and the benchmark harness.

``tests/conftest.py`` and ``benchmarks/conftest.py`` used to carry their
own copies of the small reference programs and of ad-hoc golden-run /
fault-list plumbing; this module is the single home for those so both
harnesses (and interactive exploration) build the exact same inputs.

Golden runs and fault lists are memoised by their defining parameters —
capturing a golden run costs a full cycle-level simulation, and many tests
want the same one.  The cached :class:`~repro.faults.golden.GoldenRecord`
objects are shared: treat them as read-only reference state (attaching a
checkpoint timeline via ``ensure_checkpoints`` is fine — it is idempotent
and does not perturb results).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Optional, Tuple

from repro.faults.golden import GoldenRecord, capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultList, FaultSpec
from repro.faults.sampling import generate_fault_list
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.isa.registers import Reg as R
from repro.uarch.checkpoint import (
    DEFAULT_INTERVAL,
    _flip_sites_dead,
    capture_state,
)
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import (
    WORDS_PER_LINE,
    TargetStructure,
    structure_geometry,
)

__all__ = [
    "build_loop_program",
    "build_call_program",
    "small_config",
    "shared_loop_golden",
    "shared_fault_list",
    "dead_index_disagreements",
    "unread_index_disagreements",
    "timeline_disagreements",
    "ProgressRecorder",
]


class ProgressRecorder:
    """Records ``progress(done, total)`` calls and asserts the contract.

    Every engine promises the same reporting shape: ``done`` never
    decreases, never exceeds the concurrently reported ``total``, and the
    final report says the work is complete (``done == total``).  ``total``
    itself may grow mid-run (work discovered late — e.g. a ``both``-method
    campaign whose comprehensive half extends the MeRLiN half's plan) but
    may never shrink.  Use as the ``progress=`` callback, then call
    :meth:`assert_contract`.
    """

    def __init__(self) -> None:
        self.calls: list = []

    def __call__(self, done: int, total: int) -> None:
        self.calls.append((done, total))

    def assert_contract(self, expect_total: Optional[int] = None) -> None:
        assert self.calls, "progress was never reported"
        previous_done = -1
        previous_total = -1
        for done, total in self.calls:
            assert 0 <= done <= total, (
                f"progress reported {done}/{total} (done outside [0, total])"
            )
            assert done >= previous_done, (
                f"progress went backwards: {previous_done} -> {done}"
            )
            assert total >= previous_total, (
                f"total shrank: {previous_total} -> {total}"
            )
            previous_done, previous_total = done, total
        final_done, final_total = self.calls[-1]
        assert final_done == final_total, (
            f"final progress report {final_done}/{final_total} is incomplete"
        )
        if expect_total is not None:
            assert final_total == expect_total, (
                f"expected {expect_total} total units, engine reported "
                f"{final_total}"
            )


def build_loop_program(iterations: int = 30, name: str = "loop") -> Program:
    """A small loop that loads, multiplies, stores and accumulates.

    Shared by many microarchitecture and fault-injection tests: it exercises
    the register file, the store queue and the L1D while staying only a few
    hundred cycles long.
    """
    b = ProgramBuilder(name)
    source = b.alloc_words("source", [(i * 7 + 3) % 101 for i in range(iterations)])
    sink = b.alloc_space("sink", 8 * iterations)
    b.movi(R.RDI, source)
    b.movi(R.RSI, sink)
    b.movi(R.RAX, 0)
    b.movi(R.RCX, 0)
    b.label("loop")
    b.load(R.RDX, R.RDI, 0)
    b.mul(R.RDX, R.RDX, 3)
    b.add(R.RAX, R.RAX, R.RDX)
    b.store(R.RDX, R.RSI, 0)
    b.add(R.RAX, R.RAX, (R.RSI, 0))
    b.add(R.RDI, R.RDI, 8)
    b.add(R.RSI, R.RSI, 8)
    b.add(R.RCX, R.RCX, 1)
    b.blt(R.RCX, iterations, "loop")
    b.out(R.RAX)
    b.halt()
    return b.build()


def build_call_program(calls: int = 10, name: str = "calls") -> Program:
    """A program dominated by CALL/RET pairs (return-address stack traffic)."""
    b = ProgramBuilder(name)
    b.movi(R.RAX, 1)
    b.movi(R.RCX, 0)
    b.label("loop")
    b.call("twice")
    b.add(R.RCX, R.RCX, 1)
    b.blt(R.RCX, calls, "loop")
    b.out(R.RAX)
    b.halt()
    b.label("twice")
    b.add(R.RAX, R.RAX, R.RAX)
    b.and_(R.RAX, R.RAX, 0xFFFF)
    b.ret()
    return b.build()


def small_config() -> MicroarchConfig:
    """A configuration with small structures (fast, stresses resource limits)."""
    return MicroarchConfig().with_register_file(64).with_store_queue(16).with_l1d(16)


@lru_cache(maxsize=16)
def shared_loop_golden(
    iterations: int = 30,
    config: Optional[MicroarchConfig] = None,
    trace: bool = True,
) -> GoldenRecord:
    """A memoised golden run of :func:`build_loop_program`.

    One cycle-level simulation per distinct (iterations, config, trace)
    triple, shared across every test and benchmark that asks for it.
    """
    return capture_golden(
        build_loop_program(iterations=iterations),
        config if config is not None else small_config(),
        trace=trace,
    )


def shared_fault_list(
    golden: GoldenRecord,
    structure: TargetStructure = TargetStructure.RF,
    sample_size: int = 200,
    seed: int = 0,
) -> FaultList:
    """A statistical fault list drawn against ``golden``'s geometry/length."""
    geometry = structure_geometry(structure, golden.config)
    return generate_fault_list(
        geometry,
        total_cycles=golden.cycles,
        sample_size=sample_size,
        seed=seed,
    )


def _replay(golden: GoldenRecord, hook) -> None:
    """Replay ``golden``'s run untraced with ``hook`` as its cycle hook."""
    replay = OutOfOrderCpu(golden.program, golden.config).run(cycle_hook=hook)
    if replay != golden.result:
        raise RuntimeError(
            f"replay of {golden.program.name!r} diverged from its golden run")


def dead_index_disagreements(program: Program,
                             config: Optional[MicroarchConfig] = None
                             ) -> Tuple[int, int]:
    """Check a golden timeline's dead-cell index against its oracle.

    Captures ``program``'s golden run with a checkpoint timeline, replays
    it, and at every cycle boundary of the replay checks
    :meth:`~repro.uarch.checkpoint.DeadCellIndex.masked` against
    :func:`~repro.uarch.checkpoint._flip_sites_dead` for every RF
    register, SQ slot and L1D line (a line through one of its words, which
    rotates with the cycle).  The SQ and L1D, whose rule is deadness,
    must agree exactly; the RF, whose rule is read windows, must answer
    every dead (free) register.  Returns ``(pairs checked,
    disagreements)``.
    """
    config = config if config is not None else MicroarchConfig()
    golden = capture_golden(program, config, trace=False,
                            checkpoint_interval=DEFAULT_INTERVAL)
    index = golden.checkpoints.dead_cells
    # One probe fault per (structure, entry); the oracle ignores its cycle.
    probes = {}
    for structure in TargetStructure:
        entries = range(structure_geometry(structure, config).num_entries)
        probes[structure] = [FaultSpec(0, structure, entry=entry, bit=0, cycle=0)
                             for entry in entries]
    counts = [0, 0]

    def compare(cpu: OutOfOrderCpu) -> None:
        cycle = cpu.cycle
        for structure, faults in probes.items():
            if structure is TargetStructure.L1D:
                faults = faults[cycle % WORDS_PER_LINE::WORDS_PER_LINE]
            exact = structure is not TargetStructure.RF
            for fault in faults:
                counts[0] += 1
                dead = _flip_sites_dead(cpu, fault)
                if ((dead or exact)
                        and dead != index.masked(structure, fault.entry, cycle)):
                    counts[1] += 1
        return None

    _replay(golden, compare)
    return counts[0], counts[1]


def unread_index_disagreements(program: Program,
                               config: Optional[MicroarchConfig] = None,
                               sample: Optional[int] = None,
                               seed: int = 0) -> Tuple[int, int]:
    """Check a golden timeline's RF read windows by injection.

    Captures ``program``'s golden run with a checkpoint timeline, replays
    it, and at every cycle boundary collects the registers the dead-cell
    index answers as masked that are not on the free list: the
    ``unread_flip`` faults that only the read windows settle (the free
    ones :func:`dead_index_disagreements` covers).  ``sample`` of these
    (register, cycle) pairs (all when None) are drawn with ``seed``, each
    gets a bit drawn with the same generator, and each is injected on the
    reference path: a fresh CPU from cycle 0, no fast-forward.  A result
    that differs from the golden result in any field is a disagreement.
    Returns ``(faults injected, disagreements)``.
    """
    config = config if config is not None else MicroarchConfig()
    golden = capture_golden(program, config, trace=False,
                            checkpoint_interval=DEFAULT_INTERVAL)
    index = golden.checkpoints.dead_cells
    geometry = structure_geometry(TargetStructure.RF, config)
    pairs = []

    def collect(cpu: OutOfOrderCpu) -> None:
        cycle = cpu.cycle
        free = set(cpu.free_list.snapshot())
        pairs.extend((reg, cycle) for reg in range(geometry.num_entries)
                     if reg not in free
                     and index.masked(TargetStructure.RF, reg, cycle))
        return None

    _replay(golden, collect)
    rng = random.Random(seed)
    if sample is not None and sample < len(pairs):
        pairs = rng.sample(pairs, sample)
    disagreements = 0
    for reg, cycle in pairs:
        fault = FaultSpec(0, TargetStructure.RF, entry=reg,
                          bit=rng.randrange(geometry.bits_per_entry), cycle=cycle)
        disagreements += inject_fault(golden, fault).result != golden.result
    return len(pairs), disagreements


def timeline_disagreements(program: Program,
                           config: Optional[MicroarchConfig] = None
                           ) -> Tuple[int, int]:
    """Check a golden run's inline checkpoint timeline against its oracle.

    Captures ``program``'s traced golden run with the inline timeline (as
    a checkpointing session does), replays it untraced, and at every
    checkpointed cycle compares the replay's :func:`capture_state` with
    the timeline's composed state; a traced and an untraced run must
    snapshot alike.  One more pair compares the payload of
    :meth:`~repro.faults.golden.GoldenRecord.ensure_checkpoints` on an
    untraced golden with the inline timeline's.  Returns ``(pairs
    checked, disagreements)``.
    """
    config = config if config is not None else MicroarchConfig()
    golden = capture_golden(program, config, trace=True,
                            checkpoint_interval=DEFAULT_INTERVAL)
    timeline = golden.checkpoints
    counts = [0, 0]

    def compare(cpu: OutOfOrderCpu) -> None:
        state = timeline.state_at(cpu.cycle)
        if state is not None:
            counts[0] += 1
            counts[1] += capture_state(cpu) != state
        return None

    _replay(golden, compare)
    lazy = capture_golden(program, config, trace=False).ensure_checkpoints()
    counts[0] += 1
    counts[1] += lazy.to_payload() != timeline.to_payload()
    return counts[0], counts[1]
