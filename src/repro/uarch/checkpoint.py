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
golden state, determinism guarantees the rest of the run replays the
golden run exactly, so the injection run can stop and return a copy of
the golden result.  The check is wider than equality: a run that differs
from the golden run only in stored values (register values, store-queue
data latches, L1D words) whose next golden access is an overwrite, or
that are never accessed again, ends the same way; one whose differing
values are read only later jumps to the last golden checkpoint before
that read, carrying the values along (:func:`make_reconvergence_hook`).

Dead-cell index
---------------
Many faults need no run at all.  The timeline also records, per
fault-target cell, the golden run's reads and full overwrites in order
(:class:`DeadCellIndex`).  A one-cycle fault whose every flipped cell is
overwritten before it is read, or never read again, is masked exactly,
so the injector answers it from the index before any restore; any other
one-cycle fault starts at the last checkpoint before its cells' first
read, with the flip deferred to that checkpoint.
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
from repro.uarch.structures import (
    WORDS_PER_LINE,
    TargetStructure,
    structure_geometry,
)

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


def _restore_touched(cpu: OutOfOrderCpu, state: CpuState,
                     touched: Tuple[set, ...]) -> None:
    """Rewrite only the component entries dirtied since the last restore,
    plus the ``touched`` ones (per :data:`_KEYED_FIELDS` component).

    Valid only when ``cpu`` was last fully restored, with dirty tracking
    active, to a state that differs from ``state`` at most in the
    ``touched`` entries (none when it is ``state`` itself): everything
    that diverged since is the union of the components' dirty sets, so
    the big stable structures (branch predictor tables, L2 tag store,
    cache lines, memory words) are left untouched instead of being
    rebuilt per run.
    """
    (prf_keys, sq_keys, line_keys, l2_keys, icache_keys, predictor_keys,
     btb_keys, memory_keys) = touched or tuple(set() for _ in _KEYED_FIELDS)
    # Physical register file.
    prf = cpu.prf
    values, ready = state.prf
    for index in sorted(prf.drain_dirty() | prf_keys):
        prf.values[index] = values[index]
        prf.ready[index] = ready[index]

    # Store queue (head/tail/occupancy are cheap scalars, always reset).
    sq = cpu.store_queue
    sq.head, sq.tail, sq.occupancy, slot_states = state.store_queue
    for index in sorted(sq.drain_dirty() | sq_keys):
        sq.restore_slot(index, slot_states[index])
    sq.recount_pending()

    # L1 data cache lines + L2 tag store.
    dcache = cpu.dcache
    line_states, l2_state, dcache._tick = state.dcache
    assoc = dcache.assoc
    for line_index in sorted(dcache.drain_dirty() | line_keys):
        set_index, way = divmod(line_index, assoc)
        line = dcache.lines[set_index][way]
        line.tag, line.valid, line.dirty, data, line.last_use = line_states[line_index]
        line.data[:] = data
    l2 = dcache.l2
    l2_tags, l2_lru, l2._tick = l2_state
    for set_index in sorted(l2.drain_dirty() | l2_keys):
        l2._tags[set_index] = list(l2_tags[set_index])
        l2._lru[set_index] = list(l2_lru[set_index])

    # L1 instruction cache tag store.
    icache = cpu.icache._cache
    i_tags, i_lru, icache._tick = state.icache
    for set_index in sorted(icache.drain_dirty() | icache_keys):
        icache._tags[set_index] = list(i_tags[set_index])
        icache._lru[set_index] = list(i_lru[set_index])

    # Branch predictor tables and BTB.
    predictor_state, btb_state = state.branch
    local, global_, chooser, history = predictor_state
    predictor = cpu.branch_unit.predictor
    predictor.global_history = history
    predictor_dirty, btb_dirty = cpu.branch_unit.drain_dirty()
    predictor_dirty |= predictor_keys
    btb_dirty |= btb_keys
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
    for address in sorted(memory.drain_dirty() | memory_keys):
        stored = words.get(address)
        if stored is None:
            live.pop(address, None)
        else:
            live[address] = stored


def restore_state(cpu: OutOfOrderCpu, state: CpuState,
                  timeline: Optional["CheckpointTimeline"] = None) -> None:
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
    are rewritten.  So does a restore of another checkpoint of
    ``timeline`` than the one the CPU was last restored from: the entries
    the golden run touched between the two are rewritten too.

    Raises ``ValueError`` when ``cpu`` traces: the state carries no
    structure-read logs, so a traced run after a restore would commit an
    incomplete access trace.
    """
    if cpu.tracer.enabled:
        raise ValueError("cannot restore into a tracing CPU: snapshots "
                         "carry no structure-read logs")
    base = cpu._restore_base
    touched = None
    if base is not None and base is not state and timeline is not None:
        touched = timeline.touched(base, state)
    if cpu.delta_tracking and (base is state or touched is not None):
        _restore_touched(cpu, state, touched)
        cpu._restore_base = state
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
    """The golden run's physical accesses to every fault-target cell, so
    that the golden run alone answers where a stored value is read next.

    One representation serves all three structures: per unit (an RF
    register, an SQ data latch, an L1D word), the ordered accesses that
    either *read* the stored value or *fully overwrite* it.  A read is
    anything that lets a value reach the rest of the machine; the logs
    (:meth:`OutOfOrderCpu.begin_access_log`) list them per structure:

    - **RF:** operand reads at issue and address generation, by any uop,
      squashed and replayed ones included, since a wrong-path read can
      still steer the cache and the timing; a writeback overwrites all 64
      bits.
    - **SQ:** store-to-load forwarding (a partial ``forward_value`` and a
      squashed load included) and the drain of a committed store, during
      the run or at its end, read the latch; ``set_data`` overwrites it.
    - **L1D:** loads (squashed ones included), a dirty line's write-back
      on eviction and the end-of-run flush (``memory_hash`` is a result
      field) read; ``_fill`` overwrites the whole line; a store overwrites
      the words it covers whole, and counts as a read of a word it covers
      in part.

    A :class:`SimulationResult` carries no stored value other than through
    these reads.  So if, at a cycle boundary, a run equals the golden run
    except in a set of cells, it *is* the golden run, those cells aside,
    until the earliest next read of any of them; a cell overwritten before
    then holds the golden value from its overwrite on.  When no cell is
    read again, the run's result is the golden result:
    :func:`~repro.faults.injector.inject_fault` answers a one-cycle fault
    whose every flipped cell is masked (:meth:`masked_reason`) with it
    before any restore.  Otherwise the run may resume at any golden
    checkpoint up to that read, holding the faulty values of the cells not
    yet overwritten there: the injector restores the checkpoint before the
    flipped cells' first read (:meth:`next_read`), and
    :func:`make_reconvergence_hook` applies the same rule at later
    checkpoints (:meth:`next_access`).  A cell overwritten after that
    read, or never accessed again, must be carried along: past the read
    the run may leave the golden path and read it.  Like the
    reconvergence exit, an answer holds only for an injection run that
    ends where the golden run did, as the injector checks: a golden run
    that halted, or a SimPoint injection, which stops at the golden run's
    instruction count.
    (:func:`_flip_sites_dead` is a stricter predicate on a live CPU,
    "the cell is free storage", kept as this index's test oracle: every
    dead cell must be answered masked.)

    Storage is O(accesses): per unit, ascending codes ``2 * cycle +
    read``, one per cycle (the first access in a cycle decides every
    boundary before it), with a run of overwrites kept only as its last;
    a query is one ``bisect``.  :meth:`observe` runs at every cycle
    boundary of the golden run, through
    :meth:`CheckpointTimeline.observe`: at its first boundary it arms the
    CPU's access logs, and each later boundary drains them.
    :meth:`finish` drains the run's last step and its end-of-run drains,
    which no boundary follows; until then the index answers nothing.
    """

    def __init__(self) -> None:
        #: First and last observed cycle boundaries (None: never observed).
        self.first: Optional[int] = None
        self.last: Optional[int] = None
        #: Per structure, per unit: its access codes (once finished).
        self._accesses: Dict[TargetStructure, List[List[int]]] = {}
        #: While capturing: per structure, the CPU's access log and the
        #: per-unit codes so far.
        self._capture: Dict[TargetStructure, Tuple[List[int], List[List[int]]]] = {}

    def observe(self, cpu: OutOfOrderCpu) -> None:
        """Record the accesses of the cycle that ended at this boundary."""
        cycle = cpu.cycle
        if self.last is None:
            self.first = self.last = cycle
            logs = cpu.begin_access_log()
            self._capture = {
                structure: (log, [[] for _ in range(
                    structure_geometry(structure, cpu.config).num_entries)])
                for structure, log in logs.items()
            }
            return
        if cycle != self.last + 1:
            raise ValueError(
                f"dead-cell index observed cycle {cycle} after {self.last}; "
                f"it must see every boundary of one run"
            )
        self.last = cycle
        self._drain(cycle - 1)

    def finish(self) -> None:
        """Close the run once the golden run has returned.

        The run's last step follows its last observed boundary (an
        instruction budget ends it after a full cycle), and the end-of-run
        store drain and L1D flush follow that step; their accesses are
        drained here, as the last boundary's.  Until this is called the
        index answers nothing, since a value the run never reads might
        still reach the end-of-run flush.
        """
        if not self._capture:
            return
        self._drain(self.last)
        self._accesses = {structure: units
                          for structure, (_, units) in self._capture.items()}
        self._capture = {}

    def _drain(self, cycle: int) -> None:
        """Fold the logged accesses of ``cycle`` into the per-unit codes."""
        read, write = 2 * cycle + 1, 2 * cycle
        for log, units in self._capture.values():
            for code in log:
                if code >= 0:
                    codes, new = units[code], read
                else:
                    codes, new = units[~code], write
                if codes:
                    last = codes[-1]
                    if last >> 1 == cycle:
                        continue
                    if not (last | new) & 1:
                        codes[-1] = new
                        continue
                codes.append(new)
            log.clear()

    # ------------------------------------------------------------------
    def next_access(self, structure: TargetStructure, entry: int,
                    cycle: int) -> Optional[Tuple[int, bool]]:
        """The golden run's next access to fault-target ``entry`` from
        boundary ``cycle`` on, as ``(cycle, is_read)``; None when it is
        never accessed again.

        Where the index knows nothing (outside the observed boundaries,
        or before :meth:`finish`) the answer is a read at ``cycle`` itself.
        """
        units = self._accesses.get(structure)
        if units is None or not self.first <= cycle <= self.last:
            return cycle, True
        codes = units[entry]
        position = bisect.bisect_left(codes, 2 * cycle)
        if position == len(codes):
            return None
        code = codes[position]
        return code >> 1, bool(code & 1)

    def next_read(self, structure: TargetStructure, entry: int,
                  cycle: int) -> Optional[int]:
        """The cycle of the golden run's next read of fault-target
        ``entry``, from boundary ``cycle`` on; None when its next access
        is a full overwrite, or when it is never accessed again."""
        access = self.next_access(structure, entry, cycle)
        if access is None or not access[1]:
            return None
        return access[0]

    def masked(self, structure: TargetStructure, entry: int, cycle: int) -> bool:
        """Whether a one-cycle flip into fault-target ``entry`` at boundary
        ``cycle`` is masked: overwritten before it is read, or never read."""
        return self.next_read(structure, entry, cycle) is None

    def masked_reason(self, fault) -> Optional[str]:
        """Why the golden run alone shows ``fault`` masked, or None.

        Only one-cycle faults qualify, and every flip entry must be
        masked: ``unread_flip`` for the RF, ``dead_flip`` for the SQ and
        L1D.
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
        count and the units' access codes (units never accessed are
        omitted)."""
        return (self.first, self.last, tuple(
            (structure.name,
             len(units),
             tuple((unit, tuple(codes))
                   for unit, codes in enumerate(units) if codes))
            for structure, units in self._accesses.items()
        ))

    @classmethod
    def from_payload(cls, payload: Tuple) -> "DeadCellIndex":
        """Inverse of :meth:`to_payload`; the result answers, never observes."""
        index = cls()
        index.first, index.last, structures = payload
        for name, count, accessed in structures:
            units: List[List[int]] = [[] for _ in range(count)]
            for unit, codes in accessed:
                units[unit] = list(codes)
            index._accesses[TargetStructure[name]] = units
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

    def touched(self, one: CpuState, other: CpuState) -> Optional[Tuple[set, ...]]:
        """Per entry-keyed component (:data:`_KEYED_FIELDS`), the entries
        the golden run touched between checkpoints ``one`` and ``other``
        (in either order), a superset of those in which they differ; None
        unless both are this timeline's checkpoint objects."""
        cycles = self._cycles
        positions = []
        for state in (one, other):
            position = bisect.bisect_left(cycles, state.cycle)
            if position >= len(cycles) or self._composed[position] is not state:
                return None
            positions.append(position)
        first, last = sorted(positions)
        keys = tuple(set() for _ in _KEYED_FIELDS)
        for record in self._records[first + 1:last + 1]:
            for union, name in zip(keys, _KEYED_FIELDS):
                union.update(getattr(record, name))
        return keys

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


def _flip_sites_dead(cpu: OutOfOrderCpu, fault) -> bool:
    """O(flip sites) check: is every faulted cell free storage right now?

    A cell is *dead* when its next access must be a full overwrite: an RF
    register on the free list, a store-queue slot that is not ``valid``,
    or an L1D word whose line is not ``valid``.  Every distinct entry of
    the flip set must be dead.  The test oracle of :class:`DeadCellIndex`,
    which answers from the golden run without a CPU a wider question that
    every dead cell passes: is the cell overwritten before it is read, or
    never read again?
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


#: The DeltaState fields keyed by component entries that
#: :func:`value_divergence` compares entry by entry, in the order of
#: :func:`_live_dirty`.
_KEYED_FIELDS = ("prf_entries", "sq_slots", "dcache_lines", "l2_sets",
                 "icache_sets", "predictor_entries", "btb_entries",
                 "memory_words")


def _live_dirty(cpu: OutOfOrderCpu) -> Tuple[set, ...]:
    """The CPU's dirty sets, in :data:`_KEYED_FIELDS` order, undrained."""
    branch = cpu.branch_unit
    return (cpu.prf._dirty, cpu.store_queue._dirty, cpu.dcache._dirty,
            cpu.dcache.l2._dirty, cpu.icache._cache._dirty,
            branch.predictor._dirty, branch.btb._dirty, cpu.memory._dirty)


def _compared_keys(cpu: OutOfOrderCpu, timeline: "CheckpointTimeline",
                   state: CpuState) -> Tuple:
    """Per keyed component, the entries in which ``cpu`` can differ from
    ``state``: those dirtied since ``cpu`` was restored from a checkpoint
    of ``timeline``, and those the golden run touched between that
    checkpoint and ``state``."""
    base = cpu._restore_base
    touched = None if base is None else timeline.touched(base, state)
    if touched is None:
        raise ValueError("value_divergence needs a CPU restored from a "
                         "checkpoint of the same timeline")
    return tuple(live | golden for live, golden in zip(_live_dirty(cpu), touched))


def value_divergence(cpu: OutOfOrderCpu, timeline: "CheckpointTimeline",
                     state: CpuState) -> Optional[List[Tuple]]:
    """The value cells in which ``cpu`` differs from ``timeline``'s
    checkpoint ``state``, taken at ``cpu``'s cycle; None when it differs
    anywhere else.

    A value cell is an RF register's value, an SQ slot's data latch or an
    L1D word; each is returned as ``(structure, entry, live value)``.
    Everything else must be equal: memory, ready bits, slot and line
    control fields, the in-flight uops with their values, cache tags and
    LRU, the branch predictor, timing and statistics.  The cost is
    O(touched entries): ``cpu`` must have been restored from a checkpoint
    of ``timeline`` (every injection CPU is), and only the entries in its
    dirty sets since that restore, read without draining, and those the
    golden run's deltas touched between that checkpoint and ``state`` can
    differ.
    """
    if (_quick_mismatch(cpu, state)
            or cpu.fetch_stall_until != state.fetch_stall_until
            or cpu._last_commit_cycle != state.last_commit_cycle
            or tuple(cpu.rename_map) != state.rename_map
            or tuple(cpu.retirement_map) != state.retirement_map
            or cpu.free_list.snapshot() != state.free_list
            or cpu.load_queue.snapshot() != state.load_queue):
        return None
    (prf_keys, sq_keys, line_keys, l2_keys, icache_keys, predictor_keys,
     btb_keys, memory_keys) = _compared_keys(cpu, timeline, state)

    # Branch predictor tables and BTB.
    (local, global_, chooser, history), (btb_tags, btb_targets) = state.branch
    predictor = cpu.branch_unit.predictor
    if predictor.global_history != history:
        return None
    tables = {"local": local, "global": global_, "chooser": chooser}
    for table, index in predictor_keys:
        if predictor.table_value(table, index) != tables[table][index]:
            return None
    btb = cpu.branch_unit.btb
    for index in btb_keys:
        if btb.entry(index) != (btb_tags[index], btb_targets[index]):
            return None

    # Tag stores: L1I and L2.
    i_tags, i_lru, i_tick = state.icache
    icache = cpu.icache._cache
    if icache._tick != i_tick:
        return None
    for index in icache_keys:
        if icache.set_state(index) != (i_tags[index], i_lru[index]):
            return None
    line_states, (l2_tags, l2_lru, l2_tick), d_tick = state.dcache
    dcache = cpu.dcache
    l2 = dcache.l2
    if l2._tick != l2_tick or dcache._tick != d_tick:
        return None
    for index in l2_keys:
        if l2.set_state(index) != (l2_tags[index], l2_lru[index]):
            return None

    # Memory words.
    heap_end, words = state.memory
    live_words = cpu.memory._words
    if cpu.memory.heap_end != heap_end:
        return None
    for address in memory_keys:
        if live_words.get(address) != words.get(address):
            return None

    cells: List[Tuple] = []
    # Store queue: only the data latch (field 5) may differ.
    sq = cpu.store_queue
    head, tail, occupancy, slot_states = state.store_queue
    if (sq.head, sq.tail, sq.occupancy) != (head, tail, occupancy):
        return None
    for index in sorted(sq_keys):
        live, golden = sq.slot_state(index), slot_states[index]
        if live != golden:
            if live[:5] != golden[:5] or live[6:] != golden[6:]:
                return None
            cells.append((TargetStructure.SQ, index, live[5]))

    # L1D lines: only data words may differ.
    for line_index in sorted(line_keys):
        tag, valid, dirty, data, last_use = dcache.line_state(line_index)
        g_tag, g_valid, g_dirty, g_data, g_last_use = line_states[line_index]
        if (tag, valid, dirty, last_use) != (g_tag, g_valid, g_dirty, g_last_use):
            return None
        if data != g_data:
            first = line_index * WORDS_PER_LINE
            for word in range(WORDS_PER_LINE):
                low = word * 8
                value = data[low:low + 8]
                if value != g_data[low:low + 8]:
                    cells.append((TargetStructure.L1D, first + word, value))

    # Physical register file: ready bits equal, values may differ.
    live_values, live_ready = cpu.prf.values, cpu.prf.ready
    values, ready = state.prf
    for index in sorted(prf_keys):
        if live_ready[index] != ready[index]:
            return None
        if live_values[index] != values[index]:
            cells.append((TargetStructure.RF, index, live_values[index]))

    # The in-flight window last: it is the dearest to encode.
    if _encode_inflight(cpu) != (state.macros, state.entries, state.rob_len,
                                 state.issue_queue, state.completions,
                                 state.decode_queue):
        return None
    return cells


def write_cells(cpu: OutOfOrderCpu, cells) -> None:
    """Store the ``(structure, entry, value)`` cells of
    :func:`value_divergence` into ``cpu``, marking each dirty."""
    for structure, entry, value in cells:
        if structure is TargetStructure.RF:
            cpu.prf.values[entry] = value
            cpu.prf._dirty.add(entry)
        elif structure is TargetStructure.SQ:
            cpu.store_queue.slots[entry].data = value
            cpu.store_queue._dirty.add(entry)
        else:
            dcache = cpu.dcache
            set_index, way, word = dcache.entry_location(entry)
            dcache.lines[set_index][way].data[word * 8:word * 8 + 8] = value
            dcache._dirty.add(set_index * dcache.assoc + way)


class ValueSkip:
    """What a fast-forwarded run's reconvergence hook found about the
    run's value-only divergence from the golden run.

    ``jump`` is ``(checkpoint, cells)`` when the run may restore that
    golden checkpoint, store those :func:`value_divergence` cells and go
    on; the caller does so between ``OutOfOrderCpu.run`` calls and
    clears it.  ``unread`` is set when the hook ended the run on cells
    that differ from the golden run but are never read again.
    """

    __slots__ = ("jump", "unread")

    def __init__(self) -> None:
        self.jump: Optional[Tuple[CpuState, List[Tuple]]] = None
        self.unread = False


def make_reconvergence_hook(
    timeline: CheckpointTimeline,
    fault,
    golden_result: SimulationResult,
    skip: ValueSkip,
) -> Callable[[OutOfOrderCpu], Optional[SimulationResult]]:
    """Build a ``cycle_hook`` that ends a run once the rest of it provably
    equals the golden run, and hands ``skip`` the jumps it may take.

    At every checkpointed cycle strictly after the *active window* of
    ``fault`` (a :class:`~repro.faults.model.FaultSpec`) has closed, the
    live state is compared with the golden checkpoint by
    :func:`value_divergence`, in O(touched entries); the run must have
    been restored from a checkpoint of ``timeline``.  If it differs
    anywhere but in stored values, the run goes on.  Otherwise each
    differing cell's next golden access is looked up
    (:meth:`DeadCellIndex.next_access`):

    - If no cell is read again — the state was equal (exact
      reconvergence), or every differing value is overwritten before it
      is read, or never accessed — the simulator's determinism makes the
      rest of the run the golden run, and the hook returns a copy of the
      golden result, which stops the pipeline.
    - Otherwise the run is the golden run, those cells aside, until the
      earliest next read.  If a golden checkpoint lies past this one and
      at or before that read, the hook sets ``skip.jump`` to the last such
      checkpoint with every cell the golden run has not overwritten by
      then: those read later, those overwritten at or after it, and those
      never accessed again, which past the read the run may still reach.
      That checkpoint plus those values *is* the run's state there.  The
      hook does not stop the run for it; the caller does, and restores
      between ``OutOfOrderCpu.run`` calls (see
      :func:`~repro.faults.injector.inject_fault`).

    Checkpoints inside a still-open window are never candidates: a later
    re-application (intermittent) or re-pin (stuck-at) could diverge
    state that momentarily matched.  One-cycle faults whose every flipped
    cell the golden run overwrites, or never accesses, before it reads it
    never get here: :func:`~repro.faults.injector.inject_fault` answers
    them from the timeline's :class:`DeadCellIndex` before any restore.
    """
    last_active = fault.last_active_cycle
    index = timeline.dead_cells

    def hook(cpu: OutOfOrderCpu) -> Optional[SimulationResult]:
        nonlocal last_active
        cycle = cpu.cycle
        if cycle <= last_active:
            return None
        state = timeline.state_at(cycle)
        if state is None:
            return None
        cells = value_divergence(cpu, timeline, state)
        if cells is None:
            return None
        accesses = [index.next_access(structure, entry, cycle)
                    for structure, entry, _ in cells]
        reads = [access[0] for access in accesses if access and access[1]]
        if not reads:
            skip.unread = bool(cells)
            return clone_result(golden_result)
        target = timeline.nearest(min(reads))
        if target.cycle > cycle:
            skip.jump = (target, [
                cell for cell, access in zip(cells, accesses)
                if access is None or access[1] or access[0] >= target.cycle])
            # The landing checkpoint holds these same cells.
            last_active = target.cycle
        return None

    return hook
