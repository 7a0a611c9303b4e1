"""Checkpoint/restore fast-forward for fault-injection runs.

The paper's premise is that every injection run redundantly re-simulates
the fault-free prefix the golden run has already computed.  This module
eliminates that prefix: during the golden run a :class:`CheckpointTimeline`
snapshots the *complete* restorable machine state every K cycles at commit
boundaries (the start of a cycle, before that cycle's fault application and
commit); an injection run then restores the nearest checkpoint at-or-before
its fault's injection cycle and simulates only the tail.

Because a single-fault injection run is bit-identical to the golden run up
to the injection cycle, restoring golden state is *exact* — not an
approximation — and the differential harness in
``tests/integration/test_checkpoint_equivalence.py`` enforces that the
classification outcomes and every :class:`SimulationResult` field match the
cold-start path bit for bit.

Snapshot/restore contract
-------------------------
Every stateful microarchitectural component exposes ``snapshot()`` /
``restore(state)`` (see :class:`~repro.uarch.regfile.PhysicalRegisterFile`,
:class:`~repro.uarch.lsq.StoreQueue`, :class:`~repro.uarch.cache.DataCache`,
:class:`~repro.uarch.branch.BranchUnit`,
:class:`~repro.uarch.stats.SimStats`,
:class:`~repro.isa.memory.MemoryImage`, …).  A snapshot must be

* **complete** — capture every bit of state that can influence future
  simulation behaviour or the final result (including "invisible" state
  like LRU ticks, free-list order and the data latches of *free* SQ slots
  and *invalid* cache lines, which faults can land in);
* **pure data** — nested tuples/dicts/bytes/ints only, so it is picklable
  and cheap to compare;
* **canonical** — two snapshots compare ``==`` iff the underlying machine
  states are bit-identical; and
* **independent** — restoring never aliases mutable state with the
  snapshot, so one checkpoint can seed many injection runs.

The same contract extends to the whole CPU through
:func:`capture_state` / :func:`restore_state` (also reachable as
``OutOfOrderCpu.snapshot()`` / ``OutOfOrderCpu.restore(state)``), which
additionally encode the in-flight pipeline state (ROB, issue queue, decode
queue, pending completions) in a canonical order.

The contract is machine-checked: ``repro lint`` (see
:mod:`repro.analysis`) enforces the pairing itself (rule ``snap-pair``),
post-``__init__`` attribute coverage or an explicit
``# repro-lint: transient`` opt-out (rule ``snap-attr``), and — for the
delta-tracking components below — that every write of tracked state marks
the dirty set (rule ``snap-dirty``).  Delta capture sorts every drained
dirty set (rule ``det-set-iter``) so payload bytes are order-stable by
construction.

Reconvergence early-exit
------------------------
Exact state equality also enables a second, larger saving: if at some
checkpointed cycle *after* the flip the faulty machine state equals the
golden state (the flipped bit was overwritten before ever being read —
the dominant masking mechanism), determinism guarantees the rest of the
run replays the golden run exactly, so the injection run can stop and
return a copy of the golden result.  This is what pushes campaign-level
speedups beyond the 2x bound of pure prefix skipping.

Dead-cell index
---------------
Many faults need no run at all.  The timeline also records where a
one-cycle flip is masked (:class:`DeadCellIndex`), by one rule per
structure: an RF register is masked from the boundaries at which its
next physical access is a write, or at which it is never accessed again
(read windows); an SQ slot or L1D line is masked while it is *dead* —
free storage whose next access is a full overwrite.  A one-cycle fault
whose flip entries are all masked is masked exactly, so the injector
answers it from the index before any restore.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

from repro.uarch.pipeline import (
    OutOfOrderCpu,
    SimulationResult,
    _InFlightUop,
    _MacroContext,
)
from repro.uarch.stats import SimStats
from repro.uarch.structures import WORDS_PER_LINE, TargetStructure

#: Snapshot spacing (cycles) of every golden timeline, captured inline or
#: replayed, until thinning doubles it.
DEFAULT_INTERVAL = 64

#: Default bound on stored checkpoints; when exceeded the timeline thins
#: itself (drops every other checkpoint and doubles the interval), so
#: memory stays bounded for arbitrarily long golden runs.
DEFAULT_MAX_CHECKPOINTS = 32


# ----------------------------------------------------------------------
# Whole-CPU state capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CpuState:
    """A pure-data snapshot of the complete restorable machine state.

    All fields are nested tuples/dicts/bytes of primitives; equality is
    deep and exact, which both the differential tests and the
    reconvergence early-exit rely on.  In-flight micro-ops are encoded by
    value (``entries``) in ROB order, with the issue queue, pending
    completions and macro contexts referring to them by index.
    """

    cycle: int
    seq: int
    fetch_pc: int
    fetch_stall_until: int
    halted: bool
    exceptions: int
    last_commit_cycle: int
    output: Tuple[int, ...]
    rename_map: Tuple[int, ...]
    retirement_map: Tuple[int, ...]
    memory: Tuple[int, Dict[int, int]]
    prf: Tuple
    free_list: Tuple[int, ...]
    store_queue: Tuple
    load_queue: Tuple[int, ...]
    dcache: Tuple
    icache: Tuple
    branch: Tuple
    stats: Tuple[int, ...]
    macros: Tuple[Tuple, ...]
    entries: Tuple[Tuple, ...]
    rob_len: int
    issue_queue: Tuple[int, ...]
    completions: Tuple[Tuple[int, Tuple[int, ...]], ...]
    decode_queue: Tuple[int, ...]

    def __eq__(self, other: object) -> bool:  # dict fields break the
        if not isinstance(other, CpuState):   # generated __hash__ anyway,
            return NotImplemented             # so spell equality out
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__dataclass_fields__
        )

    __hash__ = None  # type: ignore[assignment] - contains a dict


def _encode_macro(macro: _MacroContext) -> Tuple:
    return (
        macro.rip,
        macro.predicted_next,
        macro.predicted_taken,
        macro.history_snapshot,
        macro.is_conditional,
        tuple(macro.temp_map.items()),
        tuple(macro.temp_allocs),
        macro.sq_index,
    )


def _decode_macro(state: Tuple, program) -> _MacroContext:
    (rip, predicted_next, predicted_taken, history_snapshot, is_conditional,
     temp_map, temp_allocs, sq_index) = state
    macro = _MacroContext(
        rip=rip,
        predicted_next=predicted_next,
        predicted_taken=predicted_taken,
        history_snapshot=history_snapshot,
        is_conditional=is_conditional,
    )
    macro.temp_map = dict(temp_map)
    macro.temp_allocs = list(temp_allocs)
    macro.sq_index = sq_index
    (_, uops, _, _, _, _, _, dest_count, has_store, has_load) = program.fetch_info(rip)
    macro.attach_uops(uops, dest_count, has_store, has_load)
    return macro


def _encode_entry(entry: _InFlightUop, macro_index: int, uop_pos: int) -> Tuple:
    return (
        uop_pos,
        macro_index,
        entry.seq,
        entry.phys_dest,
        entry.prev_phys,
        tuple(entry.src_phys),
        tuple(entry.src_imm),
        entry.issued,
        entry.complete,
        entry.squashed,
        entry.result,
        entry.latency,
        entry.demand,
        entry.crash_reason,
        entry.actual_next,
        entry.actual_taken,
        entry.mem_address,
        entry.lq_allocated,
    )


def _decode_entry(state: Tuple, macros: List[_MacroContext]) -> _InFlightUop:
    (uop_pos, macro_index, seq, phys_dest, prev_phys, src_phys, src_imm,
     issued, complete, squashed, result, latency, demand, crash_reason,
     actual_next, actual_taken, mem_address, lq_allocated) = state
    macro = macros[macro_index]
    entry = _InFlightUop(macro.uops[uop_pos], macro, seq)
    entry.phys_dest = phys_dest
    entry.prev_phys = prev_phys
    entry.src_phys = list(src_phys)
    entry.src_imm = list(src_imm)
    entry.wait_phys = [phys for phys in src_phys if phys is not None]
    entry.issued = issued
    entry.complete = complete
    entry.squashed = squashed
    entry.result = result
    entry.latency = latency
    entry.demand = demand
    entry.crash_reason = crash_reason
    entry.actual_next = actual_next
    entry.actual_taken = actual_taken
    entry.mem_address = mem_address
    entry.lq_allocated = lq_allocated
    return entry


def _encode_inflight(cpu: OutOfOrderCpu) -> Tuple:
    """Canonically encode the in-flight pipeline window of ``cpu``.

    Returns ``(macros, entries, rob_len, issue_queue, completions,
    decode_queue)`` exactly as stored in :class:`CpuState`; shared by the
    full capture and the delta capture (the window is rebuilt every
    checkpoint — it is small and changes almost every cycle).
    """
    # Canonical in-flight enumeration: ROB order first, then any squashed
    # micro-ops still awaiting their (ignored) completion slot, in
    # completion order.  Identity sharing (one macro per several uops, one
    # uop object in both ROB and issue queue) becomes index sharing.
    entry_index: Dict[int, int] = {}
    ordered_entries: List[_InFlightUop] = []

    def index_of(entry: _InFlightUop) -> int:
        # Addresses never leave this function: they only dedupe shared
        # objects while assigning dense, ROB-ordered indices.
        key = id(entry)  # repro-lint: disable=det-id -- local dedupe key only
        if key not in entry_index:
            entry_index[key] = len(ordered_entries)
            ordered_entries.append(entry)
        return entry_index[key]

    for entry in cpu.rob:
        index_of(entry)
    rob_len = len(ordered_entries)
    completions: List[Tuple[int, Tuple[int, ...]]] = []
    for cycle, finishing in cpu._completions.items():
        completions.append((cycle, tuple(index_of(entry) for entry in finishing)))

    macro_index: Dict[int, int] = {}
    ordered_macros: List[_MacroContext] = []

    def macro_of(macro: _MacroContext) -> int:
        key = id(macro)  # repro-lint: disable=det-id -- local dedupe key only
        if key not in macro_index:
            macro_index[key] = len(ordered_macros)
            ordered_macros.append(macro)
        return macro_index[key]

    encoded_entries = []
    for entry in ordered_entries:
        uop_pos = next(
            pos for pos, uop in enumerate(entry.macro.uops) if uop is entry.uop
        )
        encoded_entries.append(_encode_entry(entry, macro_of(entry.macro), uop_pos))
    decode_queue = tuple(macro_of(macro) for macro in cpu.decode_queue)
    return (
        tuple(_encode_macro(macro) for macro in ordered_macros),
        tuple(encoded_entries),
        rob_len,
        tuple(index_of(entry) for entry in cpu.issue_queue),
        tuple(completions),
        decode_queue,
    )


def capture_state(cpu: OutOfOrderCpu) -> CpuState:
    """Snapshot ``cpu`` at a cycle boundary into a :class:`CpuState`.

    Must be called between cycles (as :meth:`OutOfOrderCpu.run` does via
    its ``cycle_hook``), never from inside ``_step``.  Only simulation
    state is captured: the access tracer, the profiling ``commit_log`` and
    the in-flight micro-ops' structure-read logs (which only the tracer
    reads, at commit) do not influence simulation dynamics, and restored
    CPUs never trace.
    """
    macros, entries, rob_len, issue_queue, completions, decode_queue = (
        _encode_inflight(cpu)
    )
    return CpuState(
        cycle=cpu.cycle,
        seq=cpu._seq,
        fetch_pc=cpu.fetch_pc,
        fetch_stall_until=cpu.fetch_stall_until,
        halted=cpu.halted,
        exceptions=cpu.exceptions,
        last_commit_cycle=cpu._last_commit_cycle,
        output=tuple(cpu.output),
        rename_map=tuple(cpu.rename_map),
        retirement_map=tuple(cpu.retirement_map),
        memory=cpu.memory.snapshot(),
        prf=cpu.prf.snapshot(),
        free_list=cpu.free_list.snapshot(),
        store_queue=cpu.store_queue.snapshot(),
        load_queue=cpu.load_queue.snapshot(),
        dcache=cpu.dcache.snapshot(),
        icache=cpu.icache.snapshot(),
        branch=cpu.branch_unit.snapshot(),
        stats=cpu.stats.snapshot(),
        macros=macros,
        entries=entries,
        rob_len=rob_len,
        issue_queue=issue_queue,
        completions=completions,
        decode_queue=decode_queue,
    )


# ----------------------------------------------------------------------
# Delta snapshots
# ----------------------------------------------------------------------
class DeltaState:
    """Changes between two consecutive checkpoints of one golden run.

    Produced by :func:`capture_delta` from the components' dirty-entry
    sets: only the machine entries touched since the previous checkpoint
    are stored, which shrinks both capture time and the serialized
    timeline payload by orders of magnitude for sparse workloads.  The
    small always-churning fields (in-flight window, stats, free list,
    rename maps) are stored in full; ``None`` in one of the optional
    fields means "unchanged since the previous checkpoint".
    Composition back into a full :class:`CpuState` is exact — the
    timeline's compose step reproduces ``capture_state`` bit for bit,
    which the delta-equivalence tests enforce.
    """

    __slots__ = (
        "cycle", "seq", "fetch_pc", "fetch_stall_until", "halted",
        "exceptions", "last_commit_cycle", "output_suffix",
        "rename_map", "retirement_map", "free_list", "load_queue", "stats",
        "heap_end", "memory_words", "prf_entries", "sq_ctrl", "sq_slots",
        "dcache_lines", "dcache_tick", "l2_sets", "l2_tick",
        "icache_sets", "icache_tick",
        "predictor_entries", "global_history", "btb_entries",
        "macros", "entries", "rob_len", "issue_queue", "completions",
        "decode_queue",
    )

    def as_payload(self) -> Tuple:
        """Flatten into pure data (slot-declaration order)."""
        return tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def from_payload(cls, fields: Tuple) -> "DeltaState":
        delta = cls.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(delta, name, value)
        return delta


def capture_delta(cpu: OutOfOrderCpu, prev: CpuState) -> DeltaState:
    """Capture the changes of ``cpu`` relative to ``prev``.

    ``cpu`` must have dirty tracking enabled since the capture of ``prev``
    (the timeline enables it at its first, full capture); the components'
    dirty sets are drained, so each delta covers exactly one
    inter-checkpoint window.
    """
    delta = DeltaState.__new__(DeltaState)
    delta.cycle = cpu.cycle
    delta.seq = cpu._seq
    delta.fetch_pc = cpu.fetch_pc
    delta.fetch_stall_until = cpu.fetch_stall_until
    delta.halted = cpu.halted
    delta.exceptions = cpu.exceptions
    delta.last_commit_cycle = cpu._last_commit_cycle
    delta.output_suffix = tuple(cpu.output[len(prev.output):])

    rename_map = tuple(cpu.rename_map)
    delta.rename_map = rename_map if rename_map != prev.rename_map else None
    retirement_map = tuple(cpu.retirement_map)
    delta.retirement_map = (
        retirement_map if retirement_map != prev.retirement_map else None
    )
    free_list = cpu.free_list.snapshot()
    delta.free_list = free_list if free_list != prev.free_list else None
    load_queue = cpu.load_queue.snapshot()
    delta.load_queue = load_queue if load_queue != prev.load_queue else None
    delta.stats = cpu.stats.snapshot()

    # Every drained dirty set is sorted before materialisation so the
    # delta dicts — and therefore payload bytes — are order-stable by
    # construction (enforced by the det-set-iter lint rule).
    memory = cpu.memory
    delta.heap_end = memory.heap_end
    delta.memory_words = {
        address: memory.word_at(address)
        for address in sorted(memory.drain_dirty())
    }

    prf = cpu.prf
    values, ready = prf.values, prf.ready
    delta.prf_entries = {
        index: (values[index], ready[index]) for index in sorted(prf.drain_dirty())
    }

    sq = cpu.store_queue
    delta.sq_ctrl = (sq.head, sq.tail, sq.occupancy)
    delta.sq_slots = {
        index: sq.slot_state(index) for index in sorted(sq.drain_dirty())
    }

    dcache = cpu.dcache
    delta.dcache_lines = {
        index: dcache.line_state(index) for index in sorted(dcache.drain_dirty())
    }
    delta.dcache_tick = dcache._tick
    l2 = dcache.l2
    delta.l2_sets = {
        index: l2.set_state(index) for index in sorted(l2.drain_dirty())
    }
    delta.l2_tick = l2._tick
    icache = cpu.icache
    delta.icache_sets = {
        index: icache.set_state(index) for index in sorted(icache.drain_dirty())
    }
    delta.icache_tick = icache.tick

    predictor = cpu.branch_unit.predictor
    predictor_dirty, btb_dirty = cpu.branch_unit.drain_dirty()
    delta.predictor_entries = {
        key: predictor.table_value(*key) for key in sorted(predictor_dirty)
    }
    delta.global_history = predictor.global_history
    btb = cpu.branch_unit.btb
    delta.btb_entries = {index: btb.entry(index) for index in sorted(btb_dirty)}

    (delta.macros, delta.entries, delta.rob_len, delta.issue_queue,
     delta.completions, delta.decode_queue) = _encode_inflight(cpu)
    return delta


def compose_state(prev: CpuState, delta: DeltaState) -> CpuState:
    """Apply ``delta`` on top of ``prev``, yielding the next full state."""
    values, ready = list(prev.prf[0]), list(prev.prf[1])
    for index, (value, rdy) in delta.prf_entries.items():
        values[index] = value
        ready[index] = rdy

    head, tail, occupancy = delta.sq_ctrl
    slots = list(prev.store_queue[3])
    for index, slot in delta.sq_slots.items():
        slots[index] = slot

    lines = list(prev.dcache[0])
    for index, line in delta.dcache_lines.items():
        lines[index] = line
    l2_tags, l2_lru, _ = prev.dcache[1]
    l2_tags, l2_lru = list(l2_tags), list(l2_lru)
    for index, (tags, lru) in delta.l2_sets.items():
        l2_tags[index] = tags
        l2_lru[index] = lru

    i_tags, i_lru, _ = prev.icache
    i_tags, i_lru = list(i_tags), list(i_lru)
    for index, (tags, lru) in delta.icache_sets.items():
        i_tags[index] = tags
        i_lru[index] = lru

    (local, global_, chooser, _), (btb_tags, btb_targets) = prev.branch
    if delta.predictor_entries:
        local, global_, chooser = list(local), list(global_), list(chooser)
        for (table, index), value in delta.predictor_entries.items():
            if table == "local":
                local[index] = value
            elif table == "global":
                global_[index] = value
            else:
                chooser[index] = value
        local, global_, chooser = tuple(local), tuple(global_), tuple(chooser)
    if delta.btb_entries:
        btb_tags, btb_targets = list(btb_tags), list(btb_targets)
        for index, (tag, target) in delta.btb_entries.items():
            btb_tags[index] = tag
            btb_targets[index] = target
        btb_tags, btb_targets = tuple(btb_tags), tuple(btb_targets)

    words = dict(prev.memory[1])
    words.update(delta.memory_words)

    return CpuState(
        cycle=delta.cycle,
        seq=delta.seq,
        fetch_pc=delta.fetch_pc,
        fetch_stall_until=delta.fetch_stall_until,
        halted=delta.halted,
        exceptions=delta.exceptions,
        last_commit_cycle=delta.last_commit_cycle,
        output=prev.output + delta.output_suffix,
        rename_map=delta.rename_map if delta.rename_map is not None else prev.rename_map,
        retirement_map=(delta.retirement_map
                        if delta.retirement_map is not None else prev.retirement_map),
        memory=(delta.heap_end, words),
        prf=(tuple(values), tuple(ready)),
        free_list=delta.free_list if delta.free_list is not None else prev.free_list,
        store_queue=(head, tail, occupancy, tuple(slots)),
        load_queue=delta.load_queue if delta.load_queue is not None else prev.load_queue,
        dcache=(tuple(lines), (tuple(l2_tags), tuple(l2_lru), delta.l2_tick),
                delta.dcache_tick),
        icache=(tuple(i_tags), tuple(i_lru), delta.icache_tick),
        branch=((local, global_, chooser, delta.global_history),
                (btb_tags, btb_targets)),
        stats=delta.stats,
        macros=delta.macros,
        entries=delta.entries,
        rob_len=delta.rob_len,
        issue_queue=delta.issue_queue,
        completions=delta.completions,
        decode_queue=delta.decode_queue,
    )


def merge_deltas(older: DeltaState, newer: DeltaState) -> DeltaState:
    """Collapse two consecutive deltas into one (timeline thinning)."""
    merged = DeltaState.__new__(DeltaState)
    for name in ("cycle", "seq", "fetch_pc", "fetch_stall_until", "halted",
                 "exceptions", "last_commit_cycle", "stats", "heap_end",
                 "sq_ctrl", "dcache_tick", "l2_tick", "icache_tick",
                 "global_history", "macros", "entries", "rob_len",
                 "issue_queue", "completions", "decode_queue"):
        setattr(merged, name, getattr(newer, name))
    merged.output_suffix = older.output_suffix + newer.output_suffix
    for name in ("rename_map", "retirement_map", "free_list", "load_queue"):
        value = getattr(newer, name)
        setattr(merged, name, value if value is not None else getattr(older, name))
    for name in ("memory_words", "prf_entries", "sq_slots", "dcache_lines",
                 "l2_sets", "icache_sets", "predictor_entries", "btb_entries"):
        combined = dict(getattr(older, name))
        combined.update(getattr(newer, name))
        setattr(merged, name, combined)
    return merged


def _restore_touched(cpu: OutOfOrderCpu, state: CpuState) -> None:
    """Rewrite only the component entries dirtied since the last restore.

    Valid only when ``cpu`` was previously fully restored to this *same*
    ``state`` object with dirty tracking active: everything that diverged
    since is exactly the union of the components' dirty sets, so the big
    stable structures (branch predictor tables, L2 tag store, cache lines,
    memory words) are left untouched instead of being rebuilt per run.
    """
    # Physical register file.
    prf = cpu.prf
    values, ready = state.prf
    for index in sorted(prf.drain_dirty()):
        prf.values[index] = values[index]
        prf.ready[index] = ready[index]

    # Store queue (head/tail/occupancy are cheap scalars, always reset).
    sq = cpu.store_queue
    sq.head, sq.tail, sq.occupancy, slot_states = state.store_queue
    for index in sorted(sq.drain_dirty()):
        sq.restore_slot(index, slot_states[index])
    sq.recount_pending()

    # L1 data cache lines + L2 tag store.
    dcache = cpu.dcache
    line_states, l2_state, dcache._tick = state.dcache
    assoc = dcache.assoc
    for line_index in sorted(dcache.drain_dirty()):
        set_index, way = divmod(line_index, assoc)
        line = dcache.lines[set_index][way]
        line.tag, line.valid, line.dirty, data, line.last_use = line_states[line_index]
        line.data[:] = data
    l2 = dcache.l2
    l2_tags, l2_lru, l2._tick = l2_state
    for set_index in sorted(l2.drain_dirty()):
        l2._tags[set_index] = list(l2_tags[set_index])
        l2._lru[set_index] = list(l2_lru[set_index])

    # L1 instruction cache tag store.
    icache = cpu.icache._cache
    i_tags, i_lru, icache._tick = state.icache
    for set_index in sorted(icache.drain_dirty()):
        icache._tags[set_index] = list(i_tags[set_index])
        icache._lru[set_index] = list(i_lru[set_index])

    # Branch predictor tables and BTB.
    predictor_state, btb_state = state.branch
    local, global_, chooser, history = predictor_state
    predictor = cpu.branch_unit.predictor
    predictor.global_history = history
    predictor_dirty, btb_dirty = cpu.branch_unit.drain_dirty()
    for table, index in sorted(predictor_dirty):
        if table == "local":
            predictor._local_table[index] = local[index]
        elif table == "global":
            predictor._global_table[index] = global_[index]
        else:
            predictor._chooser[index] = chooser[index]
    btb = cpu.branch_unit.btb
    btb_tags, btb_targets = btb_state
    for index in sorted(btb_dirty):
        btb._tags[index] = btb_tags[index]
        btb._targets[index] = btb_targets[index]

    # Memory words: a run can add words the state does not have, so dirty
    # addresses absent from the state are removed again.
    memory = cpu.memory
    heap_end, words = state.memory
    memory.heap_end = heap_end
    live = memory._words
    for address in sorted(memory.drain_dirty()):
        stored = words.get(address)
        if stored is None:
            live.pop(address, None)
        else:
            live[address] = stored


def restore_state(cpu: OutOfOrderCpu, state: CpuState) -> None:
    """Restore ``cpu`` in place from ``state``.

    ``cpu`` must have been constructed for the same program and
    configuration the state was captured from; its fault plan is left
    untouched, so a freshly constructed injection CPU keeps its pending
    flips after the restore.  Restoring resets *all* mutable
    machine state, so one CPU object can be reused (restored repeatedly)
    across many injection runs — a campaign's restore pool does exactly
    that to amortise construction cost.  Repeated restores of the *same* state
    object take a fast path: dirty tracking (enabled on the first restore)
    pins down everything the previous run touched, and only those entries
    are rewritten.

    Raises ``ValueError`` when ``cpu`` traces: the state carries no
    structure-read logs, so a traced run after a restore would commit an
    incomplete access trace.
    """
    if cpu.tracer.enabled:
        raise ValueError("cannot restore into a tracing CPU: snapshots "
                         "carry no structure-read logs")
    if cpu._restore_base is state and cpu.delta_tracking:
        _restore_touched(cpu, state)
    else:
        cpu.memory.restore(state.memory)
        cpu.prf.restore(state.prf)
        cpu.store_queue.restore(state.store_queue)
        cpu.dcache.restore(state.dcache)
        cpu.icache.restore(state.icache)
        cpu.branch_unit.restore(state.branch)
        # Arm the fast path for the next restore of this same state.
        cpu.enable_delta_tracking()
        cpu._restore_base = state

    cpu.cycle = state.cycle
    cpu._seq = state.seq
    cpu.fetch_pc = state.fetch_pc
    cpu.fetch_stall_until = state.fetch_stall_until
    cpu.halted = state.halted
    cpu.exceptions = state.exceptions
    cpu._last_commit_cycle = state.last_commit_cycle
    cpu.output = list(state.output)
    cpu.rename_map = list(state.rename_map)
    cpu.retirement_map = list(state.retirement_map)
    cpu.free_list.restore(state.free_list)
    cpu.load_queue.restore(state.load_queue)
    # Install a *fresh* stats object rather than restoring in place: the
    # SimulationResult of a previous run on a reused CPU aliases the old
    # object, and must not be corrupted by the next restore.  The caches
    # hold a reference to the stats, so they are re-pointed too.
    stats = SimStats()
    stats.restore(state.stats)
    cpu.stats = stats
    cpu.dcache.stats = stats
    cpu.icache.stats = stats

    macros = [_decode_macro(encoded, cpu.program) for encoded in state.macros]
    entries = [_decode_entry(encoded, macros) for encoded in state.entries]
    cpu.rob = deque(entries[:state.rob_len])
    cpu.issue_queue = [entries[index] for index in state.issue_queue]
    cpu._completions = {
        cycle: [entries[index] for index in indices]
        for cycle, indices in state.completions
    }
    cpu.decode_queue = deque(macros[index] for index in state.decode_queue)

    # Rebuild the issue-stage wakeup lists (derived state, not encoded):
    # every waiting entry re-registers against the restored ready bits.
    waiters: Dict[int, List[_InFlightUop]] = {}
    ready = cpu.prf.ready
    for entry in cpu.issue_queue:
        pending = 0
        for phys in entry.wait_phys:
            if not ready[phys]:
                pending += 1
                waiters.setdefault(phys, []).append(entry)
        entry.pending = pending
    cpu._waiters = waiters


def new_restore_pool(program, config):
    """Build a pooled injection CPU plus its captured cycle-0 state.

    One such pair per campaign serves every injection: each run restores
    either a golden checkpoint or the initial state into the same CPU
    (repeated restores of one state object take the dirty-set fast path).
    """
    cpu = OutOfOrderCpu(program, config)
    return cpu, capture_state(cpu)


# ----------------------------------------------------------------------
# Dead-cell index
# ----------------------------------------------------------------------
class DeadCellIndex:
    """Where a one-cycle flip into each fault-target cell of one golden
    run is masked, so the golden run alone answers it.

    One rule per structure decides it:

    - **RF: read windows.**  A flip into a register that the golden run
      does not read before it writes it again, or before the run ends, is
      masked, allocated or not.  The index logs every physical register
      access in the order it happens: operand reads at issue and address
      generation, by any uop, squashed and replayed ones included, since
      a wrong-path read can still steer the cache and the timing; the
      pipeline reads register values nowhere else.  Writeback overwrites
      all 64 bits of a register, and within a cycle it runs before issue,
      so a write and a read in the same cycle order as they happen.  A
      :class:`SimulationResult` carries no register values, so a flip
      that is never read leaves every field of it as the golden run's.
      A free register is the special case: it is written before it is
      read.
    - **SQ and L1D: deadness.**  A flip into a store-queue slot that is
      not ``valid``, or into an L1D word whose line is not ``valid``, is
      masked: store-queue data is read only when ``data_ready`` is set,
      and ``set_data`` overwrites the latch before setting it; an invalid
      L1D line is never looked up, evicted or flushed, and ``_fill``
      overwrites every byte of it.  (:func:`_flip_sites_dead` is the same
      predicate on a live CPU, kept as this index's test oracle.)

    Either way, at the boundary ``fault.cycle``, before the fault is
    applied, the injection run equals the golden run, since no fault has
    fired yet; so every later read, and therefore the whole
    :class:`SimulationResult`, equals the golden run's, and
    :func:`~repro.faults.injector.inject_fault` answers the fault with
    the golden result before any restore.  Like the reconvergence exit,
    this holds only for an injection run that ends where the golden run
    did, as the injector checks: a golden run that halted, or a SimPoint
    injection, which stops at the golden run's instruction count.
    Windowed faults (intermittent, stuck-at) are never answered: a later
    application could land after the cell comes back to life.

    Storage is O(state changes), not O(cycles x cells): per unit
    (register, slot, L1D line), the ascending boundaries at which "a flip
    here is masked" toggled, starting with the first observed boundary
    for the units masked there; a flip is masked where an odd number of
    them have passed, so a query is one ``bisect`` per flip entry.
    Capture costs O(changes) too.  :meth:`observe` runs at every cycle
    boundary of the golden run, through
    :meth:`CheckpointTimeline.observe`; at its first boundary it arms the
    store queue and the L1D, which from then on log every unit they move
    into or out of use (``begin_toggle_log``), and the CPU's RF access
    log (``begin_rf_access_log``); each later boundary drains those logs.
    :meth:`finish` drains the run's last step, which no boundary follows,
    and only then writes the RF's list, since a register's last window
    closes at the run's end.
    """

    def __init__(self) -> None:
        #: First and last observed cycle boundaries (None: never observed).
        self.first: Optional[int] = None
        self.last: Optional[int] = None
        #: Per structure, per unit: the boundaries its masking toggled at
        #: (the RF only once :meth:`finish` has closed the run).
        self._toggles: Dict[TargetStructure, List[List[int]]] = {}
        #: (component log, per-unit toggles) pairs drained by observe.
        self._logs: Tuple[Tuple[List[int], List[List[int]]], ...] = ()
        #: While capturing: the CPU's RF access log, the RF toggles so
        #: far, and per register its last accessed cycle and whether the
        #: window ending there is read-first.
        self._rf_capture: Optional[Tuple[List[int], List[List[int]],
                                         List[int], List[bool]]] = None

    def observe(self, cpu: OutOfOrderCpu) -> None:
        """Record the units whose masking changed since the last boundary."""
        cycle = cpu.cycle
        if self.last is None:
            self._start(cpu)
            return
        if cycle != self.last + 1:
            raise ValueError(
                f"dead-cell index observed cycle {cycle} after {self.last}; "
                f"it must see every boundary of one run"
            )
        self.last = cycle
        for log, toggles in self._logs:
            if log:
                for unit in log:
                    toggles[unit].append(cycle)
                log.clear()
        if self._rf_capture is not None:
            self._drain_reads(cycle - 1)

    def finish(self) -> None:
        """Close the run once the golden run has returned.

        The run's last step follows its last observed boundary (an
        instruction budget ends it after a full cycle), so its RF accesses
        are drained here; then every register still waiting for a read
        window to end gets its last one closed, since nothing reads it
        before the run ends.  Until this is called, :meth:`masked` answers
        nothing for the RF.
        """
        if self._rf_capture is None:
            return
        self._drain_reads(self.last)
        _, toggles, seen, live = self._rf_capture
        for reg, cycles in enumerate(toggles):
            if live[reg]:
                cycles.append(seen[reg] + 1)
        self._toggles[TargetStructure.RF] = toggles
        self._rf_capture = None

    def _drain_reads(self, cycle: int) -> None:
        """Fold the RF accesses of ``cycle`` into the RF toggles.

        A register's first access in a cycle decides every boundary since
        the cycle it was last accessed in: the flip at such a boundary is
        read if that access is a read, overwritten if it is a write.
        """
        log, toggles, seen, live = self._rf_capture
        for code in log:
            read = code >= 0
            reg = code if read else ~code
            if seen[reg] != cycle:
                if live[reg] != read:
                    toggles[reg].append(seen[reg] + 1)
                    live[reg] = read
                seen[reg] = cycle
        log.clear()

    def _start(self, cpu: OutOfOrderCpu) -> None:
        cycle = self.first = self.last = cpu.cycle
        dead_units = {
            TargetStructure.SQ: (cpu.store_queue, cpu.store_queue.slots),
            TargetStructure.L1D: (
                cpu.dcache, [line for ways in cpu.dcache.lines for line in ways]),
        }
        logs = []
        for structure, (component, units) in dead_units.items():
            toggles = [[] if unit.valid else [cycle] for unit in units]
            self._toggles[structure] = toggles
            logs.append((component.begin_toggle_log(), toggles))
        self._logs = tuple(logs)
        # Every register starts masked: its first window is not yet read.
        num_regs = cpu.prf.num_regs
        self._rf_capture = (cpu.begin_rf_access_log(),
                            [[cycle] for _ in range(num_regs)],
                            [cycle - 1] * num_regs, [False] * num_regs)

    # ------------------------------------------------------------------
    def masked(self, structure: TargetStructure, entry: int, cycle: int) -> bool:
        """Whether a one-cycle flip into fault-target ``entry`` at boundary
        ``cycle`` is masked.

        False outside the observed boundaries, where the index knows
        nothing, and for the RF before :meth:`finish`.
        """
        units = self._toggles.get(structure)
        if units is None or not self.first <= cycle <= self.last:
            return False
        unit = entry // WORDS_PER_LINE if structure is TargetStructure.L1D else entry
        return bool(bisect.bisect_right(units[unit], cycle) & 1)

    def masked_reason(self, fault) -> Optional[str]:
        """Why the golden run alone shows ``fault`` masked, or None.

        Only one-cycle faults qualify, and every flip entry must be
        masked: ``unread_flip`` for the RF, whose rule is read windows,
        ``dead_flip`` for the SQ and L1D, whose rule is deadness.
        """
        structure, cycle = fault.structure, fault.cycle
        if fault.last_active_cycle != cycle or not all(
                self.masked(structure, entry, cycle)
                for entry in fault.flip_entries()):
            return None
        return "unread_flip" if structure is TargetStructure.RF else "dead_flip"

    # ------------------------------------------------------------------
    def to_payload(self) -> Tuple:
        """Pure data: the observed range, then per structure its unit
        count and the units' toggle cycles (units that never toggle are
        omitted)."""
        return (self.first, self.last, tuple(
            (structure.name,
             len(toggles),
             tuple((unit, tuple(cycles))
                   for unit, cycles in enumerate(toggles) if cycles))
            for structure, toggles in self._toggles.items()
        ))

    @classmethod
    def from_payload(cls, payload: Tuple) -> "DeadCellIndex":
        """Inverse of :meth:`to_payload`; the result answers, never observes."""
        index = cls()
        index.first, index.last, structures = payload
        for name, count, toggled in structures:
            toggles: List[List[int]] = [[] for _ in range(count)]
            for unit, cycles in toggled:
                toggles[unit] = list(cycles)
            index._toggles[TargetStructure[name]] = toggles
        return index


# ----------------------------------------------------------------------
# Checkpoint timeline
# ----------------------------------------------------------------------
class CheckpointTimeline:
    """Evenly spaced golden-run checkpoints with bounded storage.

    Capture via :meth:`observe`, passed as :meth:`OutOfOrderCpu.run`'s
    ``cycle_hook`` during the golden run: it snapshots the machine at the
    first boundary it observes (cycle 0) and then every ``interval``
    cycles at commit boundaries.  When more than ``max_checkpoints``
    accumulate, every other checkpoint is dropped and the interval
    doubles, so storage stays bounded without knowing the run length in
    advance.  Thinning never drops the base, so on a captured timeline
    :meth:`nearest` always finds a restore point.

    Storage is *delta-based*: the first checkpoint is a full
    :class:`CpuState`; every later one is a :class:`DeltaState` holding
    only the entries the machine touched since the previous checkpoint
    (the components report them through their dirty sets, which
    :meth:`observe` arms at the first capture).  ``nearest``/``state_at``
    compose full states on demand and memoise them, so consumers keep
    seeing plain :class:`CpuState` values — one object identity per
    checkpoint, so cycle-adjacent faults restore the same object and keep
    the pooled-restore fast path.
    """

    def __init__(self, interval: int = DEFAULT_INTERVAL,
                 max_checkpoints: int = DEFAULT_MAX_CHECKPOINTS):
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        if max_checkpoints < 1:
            raise ValueError("max_checkpoints must be >= 1")
        self.interval = interval
        self.max_checkpoints = max_checkpoints
        #: records[0] is a full CpuState, the rest are DeltaStates.
        self._records: List[object] = []
        #: Lazily composed full states, parallel to _records.
        self._composed: List[Optional[CpuState]] = []
        self._cycles: List[int] = []
        self._next_cycle = 0
        # When thinning drops the most recent checkpoint, the machine's
        # dirty sets still refer to it: the dropped trailing deltas (and
        # the full state they compose to) are parked here and merged into
        # the next captured delta, which re-bases it onto the last kept
        # checkpoint.
        self._tail_delta: Optional[DeltaState] = None
        self._tail_full: Optional[CpuState] = None
        #: Filled at every cycle boundary, not just at checkpoints.
        self.dead_cells = DeadCellIndex()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def cycles(self) -> List[int]:
        """Checkpointed cycles, ascending."""
        return list(self._cycles)

    # ------------------------------------------------------------------
    def observe(self, cpu: OutOfOrderCpu) -> None:
        """Cycle hook: snapshot ``cpu`` when it reaches the next boundary."""
        self.dead_cells.observe(cpu)
        if cpu.cycle < self._next_cycle:
            return None
        if not self._records:
            state = capture_state(cpu)
            # Arm dirty tracking so every later capture is a delta.
            cpu.enable_delta_tracking()
            self._records.append(state)
            self._composed.append(state)
            cycle = state.cycle
        else:
            if self._tail_delta is not None:
                # The dirty sets cover the window since a checkpoint that
                # thinning dropped: capture against its parked full state,
                # then merge with the parked deltas to re-base onto the
                # last kept checkpoint.
                raw = capture_delta(cpu, self._tail_full)
                delta = merge_deltas(self._tail_delta, raw)
                self._tail_delta = None
                self._tail_full = None
            else:
                delta = capture_delta(cpu, self._full(len(self._records) - 1))
            self._records.append(delta)
            self._composed.append(None)
            cycle = delta.cycle
        self._cycles.append(cycle)
        self._next_cycle = cycle + self.interval
        if len(self._records) > self.max_checkpoints:
            self._thin()
        return None

    def _full(self, index: int) -> CpuState:
        """The composed full state of checkpoint ``index`` (memoised)."""
        composed = self._composed[index]
        if composed is None:
            composed = compose_state(self._full(index - 1), self._records[index])
            self._composed[index] = composed
        return composed

    def states(self) -> List[CpuState]:
        """All checkpoints as composed full states (ascending cycles)."""
        return [self._full(index) for index in range(len(self._records))]

    def _thin(self) -> None:
        """Drop every other checkpoint and double the interval.

        Dropped deltas are merged into their successors.  The base is
        always kept: it is the first record (cycle 0 on a golden run).
        """
        self.interval *= 2
        interval = self.interval
        kept = [i for i, cycle in enumerate(self._cycles)
                if i == 0 or cycle % interval == 0]
        if kept[-1] != len(self._records) - 1:
            # The newest checkpoint is being dropped, but the machine's
            # dirty sets are relative to it: park the trailing deltas and
            # the full state they reach so the next capture can re-base.
            self._tail_full = self._full(len(self._records) - 1)
            self._tail_delta = reduce(merge_deltas, self._records[kept[-1] + 1:])
        self._records = [self._records[0]] + [
            reduce(merge_deltas, self._records[previous + 1:index + 1])
            for previous, index in zip(kept, kept[1:])
        ]
        self._composed = [self._composed[index] for index in kept]
        self._cycles = [self._cycles[index] for index in kept]
        self._next_cycle = self._cycles[-1] + interval

    # ------------------------------------------------------------------
    def nearest(self, cycle: int) -> Optional[CpuState]:
        """The latest checkpoint at-or-before ``cycle``.

        A checkpoint taken *at* the injection cycle is usable: snapshots
        capture the state at the start of a cycle, before that cycle's
        fault application.  None only before the base, which on a golden
        timeline sits at cycle 0.
        """
        index = bisect.bisect_right(self._cycles, cycle) - 1
        if index < 0:
            return None
        return self._full(index)

    def state_at(self, cycle: int) -> Optional[CpuState]:
        """The checkpoint taken exactly at ``cycle``, if any."""
        index = bisect.bisect_left(self._cycles, cycle)
        if index < len(self._cycles) and self._cycles[index] == cycle:
            return self._full(index)
        return None

    # ------------------------------------------------------------------
    # Serialization (artifact cache / cross-process shipping)
    # ------------------------------------------------------------------
    @staticmethod
    def _default_line(line_bytes: int) -> Tuple:
        return (None, False, False, b"\x00" * line_bytes, 0)

    def to_payload(self) -> Tuple:
        """Encode the timeline as pure data (nested tuples of primitives).

        Snapshot fields are already pure data by the snapshot contract,
        so flattening them yields a payload that pickles compactly and
        carries no live object references — the on-disk artifact format
        of :class:`~repro.cluster.artifacts.ArtifactCache`.  Only the
        base checkpoint is stored in full, and even there untouched
        (default-valued, invalid) cache lines are omitted; the deltas are
        sparse by construction.  The :class:`DeadCellIndex` rides along
        as the last element.
        """
        base_payload = None
        delta_payloads: List[Tuple] = []
        if self._records:
            base = self._records[0]
            fields = {
                name: getattr(base, name) for name in CpuState.__dataclass_fields__
            }
            lines, l2_state, tick = fields.pop("dcache")
            line_bytes = len(lines[0][3]) if lines else 0
            default = self._default_line(line_bytes)
            sparse_lines = {
                index: line for index, line in enumerate(lines) if line != default
            }
            fields["dcache"] = (len(lines), line_bytes, sparse_lines, l2_state, tick)
            base_payload = tuple(
                fields[name] for name in CpuState.__dataclass_fields__
            )
            delta_payloads = [
                record.as_payload() for record in self._records[1:]
            ]
        return (
            self.interval,
            self.max_checkpoints,
            self._next_cycle,
            (base_payload, tuple(delta_payloads)),
            self.dead_cells.to_payload(),
        )

    @classmethod
    def from_payload(cls, payload: Tuple) -> "CheckpointTimeline":
        """Inverse of :meth:`to_payload` (absent cache lines are defaults)."""
        (interval, max_checkpoints, next_cycle, (base_payload, deltas),
         dead_cells) = payload
        timeline = cls(interval, max_checkpoints)
        timeline.dead_cells = DeadCellIndex.from_payload(dead_cells)
        if base_payload is not None:
            field_names = tuple(CpuState.__dataclass_fields__)
            fields = dict(zip(field_names, base_payload))
            num_lines, line_bytes, sparse_lines, l2_state, tick = fields["dcache"]
            default = cls._default_line(line_bytes)
            fields["dcache"] = (
                tuple(sparse_lines.get(index, default) for index in range(num_lines)),
                l2_state,
                tick,
            )
            base = CpuState(**fields)
            timeline._records.append(base)
            timeline._composed.append(base)
            timeline._cycles.append(base.cycle)
            for delta_fields in deltas:
                delta = DeltaState.from_payload(delta_fields)
                timeline._records.append(delta)
                timeline._composed.append(None)
                timeline._cycles.append(delta.cycle)
        timeline._next_cycle = next_cycle
        return timeline


# ----------------------------------------------------------------------
# Fast-forwarded injection support
# ----------------------------------------------------------------------
def clone_result(result: SimulationResult) -> SimulationResult:
    """An independent deep copy of a :class:`SimulationResult`."""
    return replace(result, output=list(result.output), stats=replace(result.stats))


def _quick_mismatch(cpu: OutOfOrderCpu, state: CpuState) -> bool:
    """Cheap scalar pre-check before a full state comparison.

    Any microarchitecturally visible divergence from the golden run moves
    at least one of these counters, so diverged runs skip the (heavier)
    full-state comparison almost always.
    """
    return (
        cpu._seq != state.seq
        or cpu.fetch_pc != state.fetch_pc
        or cpu.halted != state.halted
        or cpu.exceptions != state.exceptions
        or tuple(cpu.output) != state.output
        or len(cpu.rob) != state.rob_len
        or cpu.stats.snapshot() != state.stats
    )


def _flip_site_matches(cpu: OutOfOrderCpu, state: CpuState, fault) -> bool:
    """O(flip sites) filter: do the faulted cells themselves match golden?

    A flip that was never read and never overwritten persists in its
    storage cell for the rest of the run; such a run can never reconverge,
    so the (heavier) full-state comparison is pointless while any faulted
    cell still differs.  Every distinct entry of the fault's flip set is
    checked (a multi-bit burst has one, an unlikely hand-built spec may
    span several).  The tuple indices below mirror the component
    ``snapshot()`` layouts in this module's contract: ``prf`` is
    ``(values, ready)``, a store-queue slot is ``(valid, seq, address,
    size, addr_ready, data, …)``, a cache line is ``(tag, valid, dirty,
    data, last_use)`` flattened as ``set * assoc + way``.
    """
    structure = fault.structure
    for entry in fault.flip_entries():
        if structure is TargetStructure.RF:
            if cpu.prf.values[entry] != state.prf[0][entry]:
                return False
        elif structure is TargetStructure.SQ:
            if cpu.store_queue.slots[entry].data != state.store_queue[3][entry][5]:
                return False
        elif structure is TargetStructure.L1D:
            set_index, way, word = cpu.dcache.entry_location(entry)
            line = cpu.dcache.lines[set_index][way]
            stored = state.dcache[0][set_index * cpu.dcache.assoc + way][3]
            lo, hi = word * 8, word * 8 + 8
            if line.data[lo:hi] != stored[lo:hi]:
                return False
    return True


def _flip_sites_dead(cpu: OutOfOrderCpu, fault) -> bool:
    """O(flip sites) check: is every faulted cell free storage right now?

    The sibling of :func:`_flip_site_matches`, with the same per-structure
    dispatch.  A cell is *dead* when its next access must be a full
    overwrite: an RF register on the free list, a store-queue slot that
    is not ``valid``, or an L1D word whose line is not ``valid``.  Every
    distinct entry of the flip set must be dead.  The test oracle of
    :class:`DeadCellIndex`, which answers from the golden run without a
    CPU: for the SQ and L1D the same question, for the RF one that every
    dead register passes (a free register is written before it is read).
    """
    structure = fault.structure
    for entry in fault.flip_entries():
        if structure is TargetStructure.RF:
            if entry not in cpu.free_list:
                return False
        elif structure is TargetStructure.SQ:
            if cpu.store_queue.slots[entry].valid:
                return False
        elif structure is TargetStructure.L1D:
            set_index, way, _ = cpu.dcache.entry_location(entry)
            if cpu.dcache.lines[set_index][way].valid:
                return False
    return True


def make_reconvergence_hook(
    timeline: CheckpointTimeline,
    fault,
    golden_result: SimulationResult,
) -> Callable[[OutOfOrderCpu], Optional[SimulationResult]]:
    """Build a ``cycle_hook`` that ends a run once it reconverges.

    At every checkpointed cycle strictly after the *active window* of
    ``fault`` (a :class:`~repro.faults.model.FaultSpec`) has closed, the
    live state is compared — exactly, field by field — against the golden
    checkpoint.  On equality the simulator is deterministic, so the rest
    of the run *is* the golden run: the hook returns a copy of the golden
    result, which stops the pipeline.  Checkpoints inside a still-open
    window are never candidates: a later re-application (intermittent) or
    re-pin (stuck-at) could diverge state that momentarily matched.  Runs
    that cannot have reconverged pay only O(1) pre-checks per checkpoint
    (scalar divergence counters, then the faulted cells themselves).

    One-cycle faults that land only in RF registers the golden run
    writes, or never accesses, before it reads them, or only in dead SQ
    slots or L1D lines, never get here:
    :func:`~repro.faults.injector.inject_fault` answers them from the
    timeline's :class:`DeadCellIndex` before any restore.
    """
    last_active = fault.last_active_cycle

    def hook(cpu: OutOfOrderCpu) -> Optional[SimulationResult]:
        cycle = cpu.cycle
        if cycle <= last_active:
            return None
        state = timeline.state_at(cycle)
        if state is None or _quick_mismatch(cpu, state):
            return None
        if not _flip_site_matches(cpu, state, fault):
            return None
        if capture_state(cpu) == state:
            return clone_result(golden_result)
        return None

    return hook
