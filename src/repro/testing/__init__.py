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
from typing import Iterator, Optional, Tuple

from repro.faults.golden import GoldenRecord, capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultList, FaultSpec
from repro.faults.sampling import generate_fault_list
from repro.isa.builder import ProgramBuilder
from repro.isa.memory import DATA_BASE
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
    "build_l1d_access_program",
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


def build_l1d_access_program(name: str = "l1d-access") -> Program:
    """A kernel that drives every kind of L1D access the dead-cell index logs.

    It is laid out for a 1 KB, 4-way L1D (``small_config().with_l1d(1)``:
    four sets, 256 bytes apart):

    - a full-word store and a 2-byte store into line A; the second covers
      part of word 2, so it is logged as a read of it;
    - after a slow multiply chain, four loads into A's set: the last
      evicts the dirty line A, whose write-back reads every word of it,
      and fills another line into the same way in the same cycle;
    - a branch whose slow condition is taken while it is predicted not
      taken: on its wrong path one load reads a pointer from a resident
      line and another dereferences it, and both are squashed;
    - a line left dirty at the end, which the end-of-run flush reads.
    """
    b = ProgramBuilder(name)
    base = -(-DATA_BASE // 256) * 256
    ptr = base + 5 * 256 + 64  # set 1, away from line A's set 0
    # The pointer word holds the address of word 0 of its own line.
    words = [0] * (6 * 256 // 8)
    words[(ptr - base) // 8 + 1] = ptr
    buf = b.alloc_bytes("buf", b"".join(
        word.to_bytes(8, "little") for word in words), align=256)
    assert buf == base
    b.movi(R.RDI, buf)
    b.movi(R.RSI, ptr)
    b.movi(R.RAX, 0x1122334455667788)
    b.store(R.RAX, R.RDI, 0)
    b.store(R.RAX, R.RDI, 18, size=2)
    b.load(R.R12, R.RSI, 0)  # brings the pointer's line in, clean
    b.movi(R.RDX, 0)
    for _ in range(16):
        b.mul(R.RDX, R.RDX, 3)
    b.add(R.RBX, R.RDI, R.RDX)
    for way in range(1, 5):
        b.load(R.R8, R.RBX, 256 * way)
    b.add(R.RCX, R.RSI, R.RDX)
    b.div(R.R9, R.RDX, 7)
    b.beq(R.R9, 0, "skip")
    b.load(R.R10, R.RCX, 8)
    b.load(R.R11, R.R10, 0)
    b.label("skip")
    b.store(R.RAX, R.RDI, 2 * 64)  # set 2: still dirty at the end
    b.out(R.R8)
    b.halt()
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
    it, and at every cycle boundary checks
    :meth:`~repro.uarch.checkpoint.DeadCellIndex.masked` against
    :func:`~repro.uarch.checkpoint._flip_sites_dead` for every RF
    register, SQ slot and L1D line (a line through one of its words, which
    rotates with the cycle): every dead cell, whose next access must be a
    full overwrite, must be answered masked.  Returns ``(pairs checked,
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
            for fault in faults:
                counts[0] += 1
                if (_flip_sites_dead(cpu, fault)
                        and not index.masked(structure, fault.entry, cycle)):
                    counts[1] += 1
        return None

    _replay(golden, compare)
    return counts[0], counts[1]


def _live_units(cpu: OutOfOrderCpu, structure: TargetStructure) -> bytes:
    """Per storage unit of ``structure``, whether it is in use (not dead):
    a register off the free list, a valid SQ slot, a valid L1D line."""
    if structure is TargetStructure.RF:
        live = bytearray([1]) * cpu.prf.num_regs
        for reg in cpu.free_list.snapshot():
            live[reg] = 0
        return bytes(live)
    if structure is TargetStructure.SQ:
        return bytes(slot.valid for slot in cpu.store_queue.slots)
    return bytes(line.valid for ways in cpu.dcache.lines for line in ways)


def _masked_spans(codes, first: int, last: int) -> Iterator[Tuple[int, int]]:
    """The ``[start, end]`` boundary spans at which a flip into a cell with
    these access codes (:class:`~repro.uarch.checkpoint.DeadCellIndex`'s
    ``2 * cycle + read``) is masked: those whose next access is an
    overwrite, and those after the last access."""
    previous = first - 1
    for code in codes:
        cycle = code >> 1
        if not code & 1:
            yield previous + 1, cycle
        previous = cycle
    if previous < last:
        yield previous + 1, last


def unread_index_disagreements(program: Program,
                               config: Optional[MicroarchConfig] = None,
                               structure: TargetStructure = TargetStructure.RF,
                               sample: Optional[int] = None,
                               seed: int = 0) -> Tuple[int, int]:
    """Check a golden timeline's access logs for ``structure`` by injection.

    Captures ``program``'s golden run with a checkpoint timeline and
    finds, per cell (an RF register, an SQ data latch, an L1D word), the
    runs of boundaries at which the dead-cell index answers a flip masked
    although the cell is in use: a register off the free list, a valid
    slot, a word of a valid line (one replay finds when each unit is in
    use; dead cells are :func:`dead_index_disagreements`' part).  Such an
    answer is wrong only if the golden run reads the cell, unlogged,
    before it next overwrites it.

    - **RF:** every (register, boundary) pair of these runs is a fault,
      with one bit drawn by the sampling generator.
    - **SQ, L1D:** only the first boundary of each run, which precedes
      every such read, and the fault flips every bit of the cell, so that
      such a read shows as widely as it can.  (An L1D has thousands of
      words, and a valid line's runs are long: every pair would be a
      population too large to enumerate at default scale.)

    ``sample`` of these faults (all when None) are drawn with ``seed``,
    and each is injected on the reference path: a fresh CPU from cycle 0,
    no fast-forward.  A result that differs from the golden result in any
    field is a disagreement.  Returns ``(faults injected,
    disagreements)``.
    """
    config = config if config is not None else MicroarchConfig()
    golden = capture_golden(program, config, trace=False,
                            checkpoint_interval=DEFAULT_INTERVAL)
    index = golden.checkpoints.dead_cells
    first, last, structures = index.to_payload()
    codes = {}
    for name, _, accessed in structures:
        if TargetStructure[name] is structure:
            codes = dict(accessed)
    geometry = structure_geometry(structure, config)
    # Per unit, the [start, end] boundary spans it is in use.
    live_spans: dict = {}
    opened: dict = {}
    previous = [b""]

    def record(cpu: OutOfOrderCpu) -> None:
        live = _live_units(cpu, structure)
        if live != previous[0]:
            before = previous[0] or bytes(len(live))
            for unit, (was, now) in enumerate(zip(before, live)):
                if now and not was:
                    opened[unit] = cpu.cycle
                elif was and not now:
                    live_spans.setdefault(unit, []).append(
                        (opened.pop(unit), cpu.cycle - 1))
            previous[0] = live
        return None

    _replay(golden, record)
    for unit, start in opened.items():
        live_spans.setdefault(unit, []).append((start, last))
    per_unit = WORDS_PER_LINE if structure is TargetStructure.L1D else 1
    rf = structure is TargetStructure.RF
    faults = []
    for entry in range(geometry.num_entries):
        spans = live_spans.get(entry // per_unit, [])
        masked = list(_masked_spans(codes.get(entry, ()), first, last))
        i = j = 0
        while i < len(masked) and j < len(spans):
            (low, high), (start, end) = masked[i], spans[j]
            if start <= high and low <= end:
                if rf:
                    faults.extend((entry, cycle) for cycle
                                  in range(max(start, low), min(high, end) + 1))
                else:
                    faults.append((entry, max(start, low)))
            if high < end:
                i += 1
            else:
                j += 1
    rng = random.Random(seed)
    if rf:
        faults.sort(key=lambda fault: (fault[1], fault[0]))
    if sample is not None and sample < len(faults):
        faults = rng.sample(faults, sample)
    disagreements = 0
    for entry, cycle in faults:
        if rf:
            fault = FaultSpec(0, structure, entry=entry,
                              bit=rng.randrange(geometry.bits_per_entry),
                              cycle=cycle)
        else:
            # Every bit of the cell at once: any read of it shows.
            fault = FaultSpec(0, structure, entry=entry, bit=0, cycle=cycle,
                              model="multi-bit",
                              flips=tuple((entry, bit) for bit
                                          in range(geometry.bits_per_entry)))
        disagreements += inject_fault(golden, fault).result != golden.result
    return len(faults), disagreements


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
