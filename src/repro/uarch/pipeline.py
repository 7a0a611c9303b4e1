"""Cycle-level out-of-order pipeline.

The pipeline implements the classical physical-register-file out-of-order
organisation of Table 1: fetch with a tournament predictor and BTB, decode
into micro-ops, rename onto a physical integer register file, dispatch into
a unified issue queue and the load/store queue, out-of-order issue and
execution, in-order commit from the ROB, and post-commit store drain into a
write-back L1 data cache.

Everything the fault-injection framework and the ACE-like analysis need is
exposed here:

* a *fault plan* (cycle -> list of bit operations: transient flips or
  stuck-at set0/set1 pins) applied at the start of each target cycle to
  the physical register file, the store-queue data latches or the L1D
  data array;
* an :class:`repro.uarch.trace.AccessTracer` that records physical writes
  and committed reads of those structures, with the (RIP, uPC) of the
  reading micro-operation;
* precise architectural observation: program output, the number of
  recoverable ("demand") exceptions, crashes and timeouts.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.isa.alu import apply_binary, apply_unary, evaluate_condition
from repro.isa.errors import ProgramCrash, SimulatorAssertError
from repro.isa.instructions import Opcode
from repro.isa.memory import AccessClass, DATA_BASE, MEM_LIMIT, MemoryImage, STACK_LOW
from repro.isa.microops import MicroOp, MicroOpKind, RefKind
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, Reg, to_unsigned
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import DataCache, InstructionCache
from repro.uarch.config import MicroarchConfig
from repro.uarch.lsq import LoadQueue, StoreQueue
from repro.uarch.regfile import FreeList, PhysicalRegisterFile
from repro.uarch.stats import SimStats
from repro.uarch.structures import BitOp, TargetStructure
from repro.uarch.trace import AccessKind, AccessTracer


class TerminationKind(enum.Enum):
    """How a simulation run ended."""

    HALTED = "halted"
    INTERVAL_END = "interval_end"
    TIMEOUT = "timeout"
    DEADLOCK = "deadlock"
    CRASH = "crash"
    ASSERT = "assert"


@dataclass
class SimulationResult:
    """Architecturally visible outcome of a pipeline run."""

    termination: TerminationKind
    output: List[int]
    cycles: int
    committed_instructions: int
    committed_uops: int
    exceptions: int
    crash_reason: Optional[str] = None
    stats: SimStats = field(default_factory=SimStats)
    memory_hash: int = 0

    @property
    def completed(self) -> bool:
        return self.termination is TerminationKind.HALTED


class _MacroContext:
    """Dynamic state shared by the micro-ops of one fetched macro-instruction.

    ``uop_count``/``dest_count``/``has_store``/``has_load`` are copied from
    the program's decoded-instruction cache at fetch so the rename stage's
    resource check reads four attributes instead of re-deriving them from
    the micro-op list every cycle.
    """

    __slots__ = (
        "rip",
        "predicted_next",
        "predicted_taken",
        "history_snapshot",
        "is_conditional",
        "temp_map",
        "temp_allocs",
        "sq_index",
        "uops",
        "uop_count",
        "dest_count",
        "has_store",
        "has_load",
    )

    def __init__(self, rip: int, predicted_next: int, predicted_taken: bool,
                 history_snapshot: int, is_conditional: bool):
        self.rip = rip
        self.predicted_next = predicted_next
        self.predicted_taken = predicted_taken
        self.history_snapshot = history_snapshot
        self.is_conditional = is_conditional
        self.temp_map: Dict[int, int] = {}
        self.temp_allocs: List[int] = []
        self.sq_index: Optional[int] = None
        self.uops: List[MicroOp] = []
        self.uop_count = 0
        self.dest_count = 0
        self.has_store = False
        self.has_load = False

    def attach_uops(self, uops: List[MicroOp], dest_count: int,
                    has_store: bool, has_load: bool) -> None:
        self.uops = uops
        self.uop_count = len(uops)
        self.dest_count = dest_count
        self.has_store = has_store
        self.has_load = has_load


class _InFlightUop:
    """A renamed micro-op flowing through the back end.

    ``fu_class`` mirrors the micro-op's decode-time issue-port class and
    ``wait_phys`` holds only the physical source registers this micro-op
    actually waits on (immediates filtered out at rename), so the per-cycle
    issue scan touches no dead operand slots.
    """

    __slots__ = (
        "uop",
        "macro",
        "seq",
        "fu_index",
        "wait_phys",
        "pending",
        "phys_dest",
        "prev_phys",
        "src_phys",
        "src_imm",
        "issued",
        "complete",
        "squashed",
        "result",
        "latency",
        "demand",
        "crash_reason",
        "rf_reads",
        "sq_reads",
        "l1d_reads",
        "actual_next",
        "actual_taken",
        "mem_address",
        "lq_allocated",
    )

    def __init__(self, uop: MicroOp, macro: _MacroContext, seq: int):
        self.uop = uop
        self.macro = macro
        self.seq = seq
        self.fu_index = uop.fu_index
        self.wait_phys: List[int] = []
        self.pending = 0
        self.phys_dest: Optional[int] = None
        self.prev_phys: Optional[int] = None
        # Parallel lists: physical source registers and immediate operands
        # in positional order (src1, src2, mem_base).  Both constructors
        # (rename and checkpoint decode) overwrite them, so no lists are
        # allocated here; same for the read logs, which stay pointed at
        # the shared empty list unless this CPU traces.
        self.src_phys: List[Optional[int]] = _NO_READS
        self.src_imm: List[Optional[int]] = _NO_READS
        self.issued = False
        self.complete = False
        self.squashed = False
        self.result: int = 0
        self.latency: int = 1
        self.demand = False
        self.crash_reason: Optional[str] = None
        self.rf_reads: List[Tuple[int, int]] = _NO_READS
        self.sq_reads: List[Tuple[int, int]] = _NO_READS
        self.l1d_reads: List[Tuple[int, int]] = _NO_READS
        self.actual_next: Optional[int] = None
        self.actual_taken: bool = False
        self.mem_address: Optional[int] = None
        self.lq_allocated = False

    @property
    def rip(self) -> int:
        return self.uop.rip

    @property
    def upc(self) -> int:
        return self.uop.upc


#: Shared placeholder for the read logs of micro-ops on non-tracing CPUs
#: and of micro-ops decoded from a snapshot (which carries no read logs;
#: restored CPUs never trace): nothing ever appends to it (every append
#: site is guarded by ``record_reads``), so one list serves every entry
#: allocation-free.
_NO_READS: List = []


class OutOfOrderCpu:
    """The out-of-order core."""

    def __init__(
        self,
        program: Program,
        config: Optional[MicroarchConfig] = None,
        tracer: Optional[AccessTracer] = None,
        fault_plan: Optional[Dict[int, List[Tuple]]] = None,
    ):
        self.program = program
        self.config = config or MicroarchConfig()
        self.tracer = tracer or AccessTracer(enabled=False)
        self.fault_plan = fault_plan or {}
        self.stats = SimStats()
        # Whether in-flight micro-ops log their structure reads
        # (rf/sq/l1d read lists).  Only the commit-time tracer reads the
        # logs and snapshots leave them out, so a CPU records exactly when
        # it traces.
        self.record_reads = self.tracer.enabled
        # Physical RF and SQ data-latch accesses in the order they happen
        # (a read as the register or slot, a full overwrite as its
        # complement) while a dead-cell index records the run (None
        # otherwise); the L1D keeps its own log.
        self._rf_log: Optional[List[int]] = None  # repro-lint: transient -- capture-time event log, drained every cycle
        self._sq_log: Optional[List[int]] = None  # repro-lint: transient -- capture-time event log, drained every cycle

        self.memory: MemoryImage = program.initial_memory()
        self.icache = InstructionCache(self.config, self.stats)
        self.dcache = DataCache(self.config, self.memory, self.stats, self.tracer)
        self.branch_unit = BranchUnit(self.config)
        self.prf = PhysicalRegisterFile(self.config.num_phys_int_regs)
        self.free_list = FreeList(self.config.num_phys_int_regs)
        self.store_queue = StoreQueue(self.config.store_queue_entries)
        self.load_queue = LoadQueue(self.config.load_queue_entries)

        # Identity-map architectural registers onto the first 16 physical
        # registers; give RSP its reset value.
        self.rename_map: List[int] = list(range(NUM_ARCH_REGS))
        self.retirement_map: List[int] = list(range(NUM_ARCH_REGS))
        for arch in range(NUM_ARCH_REGS):
            self.prf.write(arch, 0)
        self.prf.write(int(Reg.RSP), program.initial_stack_pointer)
        if self.tracer.enabled:
            for arch in range(NUM_ARCH_REGS):
                self.tracer.record_rf(arch, 0, AccessKind.WRITE)

        # Hot-loop constants, resolved once per CPU instead of per cycle.
        # Issue capacity as a dense list in FU_INDEX order (see microops).
        _capacity = self.config.functional_units.issue_capacity()
        self._capacity_template = [
            _capacity[name] for name in ("alu", "complex", "load", "store", "branch")
        ]
        self._num_instructions = program.num_instructions
        self._fetch_info = program.fetch_info_table
        self._alu_latency = self.config.alu_latency
        self._mul_latency = self.config.mul_latency
        self._div_latency = self.config.div_latency
        self._l1_hit_latency = self.config.l1_hit_latency
        self.delta_tracking = False
        # The CpuState this CPU was last fully restored to while dirty
        # tracking was active; restoring the same object again only rewrites
        # the entries the run in between actually touched.
        self._restore_base = None

        self.cycle = 0
        self._seq = 0
        self.fetch_pc = program.entry
        self.fetch_stall_until = 0
        self.decode_queue: Deque[_MacroContext] = deque()
        self.rob: Deque[_InFlightUop] = deque()
        self.issue_queue: List[_InFlightUop] = []
        self._completions: Dict[int, List[_InFlightUop]] = {}
        # Wakeup lists: waiting issue-queue entries per not-yet-ready
        # physical source register.  A register write decrements each
        # waiter's ``pending`` count, so the issue scan skips blocked
        # micro-ops with one attribute test instead of re-polling their
        # operands every cycle.
        self._waiters: Dict[int, List[_InFlightUop]] = {}

        self.output: List[int] = []
        self.exceptions = 0
        self.halted = False
        self._last_commit_cycle = 0
        # Committed macro-instruction log (rip, commit cycle), recorded only
        # during profiling runs; used by the Relyzer control-equivalence
        # baseline of Section 4.4.4.
        self.commit_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 2_000_000,
            max_instructions: Optional[int] = None,
            cycle_hook: Optional[Callable[["OutOfOrderCpu"],
                                          Optional[SimulationResult]]] = None,
            ) -> SimulationResult:
        """Run until HALT commits, a crash/assert occurs or ``max_cycles`` pass.

        When ``max_instructions`` is given the run additionally stops once
        that many macro-instructions have committed (``INTERVAL_END``
        termination) — this models terminating a fault-injection run at the
        end of a SimPoint interval, as in Section 4.4.3.4 of the paper.

        ``cycle_hook`` (if given) is invoked at every cycle boundary —
        before the cycle's fault application and commit — with the CPU as
        argument.  It is the checkpoint subsystem's attachment point: the
        golden run passes :meth:`~repro.uarch.checkpoint.CheckpointTimeline.observe`
        to snapshot state, and fast-forwarded injection runs pass a
        reconvergence check that may return a :class:`SimulationResult` to
        finish the run immediately with that result.
        """
        termination = TerminationKind.TIMEOUT
        crash_reason: Optional[str] = None
        deadlock_cycles = self.config.deadlock_cycles
        stats = self.stats
        # Per-cycle phase sequence inlined from _step (the method itself is
        # kept for single-cycle callers); the bound methods are hoisted so
        # the loop body pays no attribute lookups.
        apply_faults = self._apply_faults
        commit = self._commit
        drain_store = self._drain_store
        writeback = self._writeback
        issue = self._issue
        rename = self._rename
        fetch = self._fetch
        check_wild_fetch = self._check_wild_fetch
        try:
            while self.cycle < max_cycles:
                if cycle_hook is not None:
                    early = cycle_hook(self)
                    if early is not None:
                        return early
                if self.fault_plan:
                    apply_faults()
                commit()
                if self.halted:
                    self.cycle += 1
                    termination = TerminationKind.HALTED
                    break
                drain_store()
                writeback()
                issue()
                rename()
                fetch()
                check_wild_fetch()
                self.cycle += 1
                if (max_instructions is not None
                        and stats.committed_instructions >= max_instructions):
                    termination = TerminationKind.INTERVAL_END
                    break
                if self.cycle - self._last_commit_cycle > deadlock_cycles:
                    termination = TerminationKind.DEADLOCK
                    break
        except ProgramCrash as crash:
            termination = TerminationKind.CRASH
            crash_reason = crash.reason
        except SimulatorAssertError as failure:
            termination = TerminationKind.ASSERT
            crash_reason = str(failure)

        self.stats.cycles = self.cycle
        self._drain_remaining_stores()
        self.dcache.flush_dirty_to_memory()
        return SimulationResult(
            termination=termination,
            output=list(self.output),
            cycles=self.cycle,
            committed_instructions=self.stats.committed_instructions,
            committed_uops=self.stats.committed_uops,
            exceptions=self.exceptions,
            crash_reason=crash_reason,
            stats=self.stats,
            memory_hash=self.memory.content_hash(),
        )

    def snapshot(self):
        """Snapshot the complete restorable machine state at a cycle boundary.

        Delegates to :func:`repro.uarch.checkpoint.capture_state`; see that
        module for the snapshot/restore contract.  Must only be called
        between cycles (e.g. from a ``cycle_hook``), never mid-``_step``.
        """
        from repro.uarch.checkpoint import capture_state

        return capture_state(self)

    def restore(self, state, timeline=None) -> None:
        """Restore this CPU in place from a :meth:`snapshot` value.

        The CPU must target the same program and configuration the state
        was captured from, and must not trace; the fault plan is preserved.
        With the golden ``timeline`` the state belongs to, moving between
        its checkpoints rewrites only what changed (see
        :func:`~repro.uarch.checkpoint.restore_state`).
        """
        from repro.uarch.checkpoint import restore_state

        restore_state(self, state, timeline)

    def enable_delta_tracking(self) -> None:
        """Start dirty-entry tracking on every stateful component.

        The checkpoint timeline calls this at its first (full) capture so
        later captures only read the entries touched since the previous
        one.  Tracking adds one predictable branch to each component
        mutator and nothing to the issue/commit hot path.
        """
        self.prf.begin_dirty_tracking()
        self.store_queue.begin_dirty_tracking()
        self.dcache.begin_dirty_tracking()
        self.icache.begin_dirty_tracking()
        self.branch_unit.begin_dirty_tracking()
        self.memory.begin_dirty_tracking()
        self.delta_tracking = True

    def begin_access_log(self) -> Dict[TargetStructure, List[int]]:
        """Log every read and full overwrite of a fault-target cell from now on.

        Returns one log per structure; the caller drains them.  A read
        appends the cell's fault-target entry, an overwrite its
        complement, in the order they happen.  RF: a read at issue or at
        address generation, by any uop, squashed or replayed ones
        included; a writeback overwrites.  SQ: store-to-load forwarding
        (squashed loads included) and the drain of a committed store,
        during the run or at its end, read the data latch; ``set_data``
        overwrites it.  L1D: see :meth:`DataCache.begin_access_log`.
        """
        self._rf_log = []
        self._sq_log = []
        return {
            TargetStructure.RF: self._rf_log,
            TargetStructure.SQ: self._sq_log,
            TargetStructure.L1D: self.dcache.begin_access_log(),
        }

    def _drain_remaining_stores(self) -> None:
        """Drain committed stores left in the SQ when the run stops.

        This keeps the final memory image architecturally consistent so that
        end-of-run state comparisons (used by the SimPoint-interval
        classification) are meaningful.
        """
        while True:
            slot = self.store_queue.head_slot()
            if slot is None or not slot.committed:
                break
            if slot.addr_ready and slot.data_ready:
                if self._sq_log is not None:
                    self._sq_log.append(slot.index)
                self.dcache.write(slot.address, slot.data, slot.size, self.cycle)
            self.store_queue.release_head()

    # ------------------------------------------------------------------
    # Per-cycle machinery
    # ------------------------------------------------------------------
    def _step(self) -> None:
        self._apply_faults()
        self._commit()
        if self.halted:
            self.cycle += 1
            return
        self._drain_store()
        self._writeback()
        self._issue()
        self._rename()
        self._fetch()
        self._check_wild_fetch()
        self.cycle += 1

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _apply_faults(self) -> None:
        flips = self.fault_plan.get(self.cycle)
        if not flips:
            return
        for flip in flips:
            # Legacy 3-tuple plans mean a transient XOR; generalized plans
            # carry an explicit BitOp (flip, or set0/set1 for stuck-at
            # windows re-applied at every cycle boundary of the window).
            if len(flip) == 3:
                structure, entry, bit = flip
                op = BitOp.FLIP
            else:
                structure, entry, bit, op = flip
            if structure is TargetStructure.RF:
                target = self.prf
            elif structure is TargetStructure.SQ:
                target = self.store_queue
            elif structure is TargetStructure.L1D:
                target = self.dcache
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown fault target {structure}")
            if op is BitOp.FLIP:
                target.flip_bit(entry, bit)
            else:
                target.set_bit(entry, bit, 1 if op is BitOp.SET1 else 0)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(self) -> None:
        rob = self.rob
        if not rob or not rob[0].complete:
            return
        committed = 0
        commit_width = self.config.commit_width
        stats = self.stats
        tracer = self.tracer
        tracing = tracer.enabled
        cycle = self.cycle
        retirement_map = self.retirement_map
        free_list = self.free_list
        while rob and committed < commit_width:
            entry = rob[0]
            if not entry.complete:
                break
            rob.popleft()
            committed += 1
            self._last_commit_cycle = cycle
            stats.committed_uops += 1

            if entry.crash_reason is not None:
                raise ProgramCrash(entry.crash_reason, cycle=cycle)
            if entry.demand:
                self.exceptions += 1
                stats.demand_exceptions += 1

            uop = entry.uop
            if tracing:
                rip, upc = uop.rip, uop.upc
                for phys, read_cycle in entry.rf_reads:
                    tracer.record_rf(phys, read_cycle, AccessKind.READ, rip, upc)
                for slot, read_cycle in entry.sq_reads:
                    tracer.record_sq(slot, read_cycle, AccessKind.READ, rip, upc)
                for word, read_cycle in entry.l1d_reads:
                    tracer.record_l1d(word, read_cycle, AccessKind.READ, rip, upc)

            if uop.dest_is_reg and entry.phys_dest is not None:
                retirement_map[uop.dest_value] = entry.phys_dest
                if entry.prev_phys is not None:
                    free_list.release(entry.prev_phys)

            code = uop.exec_code
            if code == 3 and entry.macro.sq_index is not None:  # STORE_DATA
                self.store_queue.mark_committed(entry.macro.sq_index)
            elif code == 1 and entry.lq_allocated:  # LOAD
                self.load_queue.release(entry.seq)
            elif code == 6:  # OUT
                self.output.append(entry.result)
            elif code == 8:  # HALT
                self.halted = True

            if uop.is_last:
                stats.committed_instructions += 1
                if tracing:
                    self.commit_log.append((uop.rip, cycle))
                macro = entry.macro
                if macro.temp_allocs:
                    for phys in macro.temp_allocs:
                        free_list.release(phys)
                    macro.temp_allocs = []
                if code == 8:
                    return

    # ------------------------------------------------------------------
    # Store drain (post-commit)
    # ------------------------------------------------------------------
    def _drain_store(self) -> None:
        if self.store_queue.occupancy == 0:
            return
        slot = self.store_queue.head_slot()
        if slot is None or not slot.committed:
            return
        if not (slot.addr_ready and slot.data_ready):
            raise SimulatorAssertError("committed store drained without address or data")
        if self._sq_log is not None:
            self._sq_log.append(slot.index)
        result = self.dcache.write(slot.address, slot.data, slot.size, self.cycle)
        self.stats.stores_committed += 1
        if self.tracer.enabled:
            self.tracer.record_sq(slot.index, self.cycle, AccessKind.READ, slot.rip, slot.upc)
            for word in result.touched_entries:
                self.tracer.record_l1d(word, self.cycle, AccessKind.WRITE, slot.rip, slot.upc)
        self.store_queue.release_head()

    # ------------------------------------------------------------------
    # Writeback / branch resolution
    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        finishing = self._completions.pop(self.cycle, None)
        if not finishing:
            return
        prf = self.prf
        tracing = self.tracer.enabled
        rf_log = self._rf_log
        waiters = self._waiters
        for entry in finishing:
            if entry.squashed:
                continue
            entry.complete = True
            uop = entry.uop
            phys_dest = entry.phys_dest
            if uop.dest is not None and phys_dest is not None:
                prf.write(phys_dest, entry.result)
                if rf_log is not None:
                    rf_log.append(~phys_dest)
                waiting = waiters.pop(phys_dest, None)
                if waiting is not None:
                    for waiter in waiting:
                        waiter.pending -= 1
                if tracing:
                    self.tracer.record_rf(phys_dest, self.cycle, AccessKind.WRITE)
            if uop.is_control:
                self._resolve_control(entry)

    def _resolve_control(self, entry: _InFlightUop) -> None:
        macro = entry.macro
        uop = entry.uop
        actual_next = entry.actual_next
        if actual_next is None:
            raise SimulatorAssertError("control micro-op completed without a target")

        if uop.kind is MicroOpKind.BRANCH:
            self.stats.branches += 1
            self.branch_unit.predictor.update(
                uop.rip, entry.actual_taken, macro.history_snapshot
            )
        elif uop.is_indirect:
            self.branch_unit.btb.update(uop.rip, actual_next)

        if actual_next != macro.predicted_next:
            self.stats.branch_mispredicts += 1
            self._squash_after(entry.seq)
            self.branch_unit.predictor.restore_history(macro.history_snapshot)
            if uop.kind is MicroOpKind.BRANCH:
                self.branch_unit.predictor.speculative_update_history(entry.actual_taken)
            self.fetch_pc = actual_next
            self.fetch_stall_until = max(
                self.fetch_stall_until, self.cycle + self.config.mispredict_penalty
            )

    def _squash_after(self, seq: int) -> None:
        self.stats.squashes += 1
        survivors: Deque[_InFlightUop] = deque()
        squashed_count = 0
        for entry in self.rob:
            if entry.seq > seq:
                entry.squashed = True
                squashed_count += 1
            else:
                survivors.append(entry)
        self.rob = survivors
        self.stats.squashed_uops += squashed_count
        self.issue_queue = [e for e in self.issue_queue if e.seq <= seq]
        self.decode_queue.clear()
        self.store_queue.squash_younger(seq)
        self.load_queue.squash_younger(seq)

        # Rebuild the speculative rename map: start from the committed map and
        # replay the surviving (older, uncommitted) destinations in order.
        self.rename_map = list(self.retirement_map)
        for entry in self.rob:
            dest = entry.uop.dest
            if dest is not None and dest.is_reg and entry.phys_dest is not None:
                self.rename_map[dest.value] = entry.phys_dest

        # Rebuild the free list from the set of live physical registers.
        in_use = set(self.retirement_map)
        for entry in self.rob:
            if entry.phys_dest is not None:
                in_use.add(entry.phys_dest)
            if entry.prev_phys is not None:
                in_use.add(entry.prev_phys)
            for phys in entry.macro.temp_allocs:
                in_use.add(phys)
        self.free_list.rebuild(in_use)

    # ------------------------------------------------------------------
    # Issue / execute
    # ------------------------------------------------------------------
    def _issue(self) -> None:
        # The issue queue is maintained in ascending seq order (entries are
        # appended at rename in allocation order and every removal filter
        # preserves relative order), so oldest-first selection needs no
        # per-cycle sort.  Blocked entries cost one ``pending`` test: the
        # wakeup lists maintained by the writeback stage decrement the
        # count as source registers become ready.
        queue = self.issue_queue
        if not queue:
            return
        capacity = self._capacity_template[:]
        issue_width = self.config.issue_width
        store_queue = self.store_queue
        stats = self.stats
        cycle = self.cycle
        completions = self._completions
        alu_latency = self._alu_latency
        issued_total = 0
        for entry in queue:
            if issued_total >= issue_width:
                break
            if entry.pending:
                continue
            fu_index = entry.fu_index
            if capacity[fu_index] <= 0:
                continue

            # Execute (dispatch inlined on the decode-time small-int code;
            # each arm sets result/latency).
            uop = entry.uop
            code = uop.exec_code
            entry.latency = alu_latency
            if code == 0:  # ALU
                self._execute_alu(entry)
            elif code == 1:  # LOAD
                if not store_queue.all_older_addresses_known(entry.seq):
                    continue
                if not self._execute_load(entry):
                    # Load replay: leave the micro-op in the issue queue.
                    stats.load_replays += 1
                    continue
            elif code == 2:  # STORE_ADDR
                self._execute_store_addr(entry)
            elif code == 3:  # STORE_DATA
                self._execute_store_data(entry)
            elif code == 4:  # BRANCH
                lhs = self._source_value(entry, 0)
                rhs = self._source_value(entry, 1)
                entry.actual_taken = evaluate_condition(uop.condition, lhs, rhs)
                entry.actual_next = uop.target if entry.actual_taken else uop.rip + 1
            elif code == 5:  # JUMP
                if uop.is_indirect:
                    entry.actual_next = self._source_value(entry, 0)
                else:
                    entry.actual_next = uop.target
                entry.actual_taken = True
            elif code == 6:  # OUT
                entry.result = self._source_value(entry, 0)
            elif code == 7 or code == 8:  # NOP / HALT
                pass
            else:  # pragma: no cover - defensive
                raise SimulatorAssertError(
                    f"cannot execute micro-op kind {uop.kind}")

            capacity[fu_index] -= 1
            issued_total += 1
            entry.issued = True
            latency = entry.latency
            finish = cycle + (latency if latency > 1 else 1)
            bucket = completions.get(finish)
            if bucket is None:
                completions[finish] = [entry]
            else:
                bucket.append(entry)
        if issued_total:
            self.issue_queue = [e for e in queue if not e.issued]

    def _source_value(self, entry: _InFlightUop, position: int) -> int:
        phys = entry.src_phys[position]
        if phys is not None:
            if self.record_reads:
                entry.rf_reads.append((phys, self.cycle))
            if self._rf_log is not None:
                self._rf_log.append(phys)
            return self.prf.values[phys]
        imm = entry.src_imm[position]
        return to_unsigned(imm if imm is not None else 0)

    def _execute_alu(self, entry: _InFlightUop) -> None:
        uop = entry.uop
        op = uop.alu_op
        if uop.alu_unary:
            value = self._source_value(entry, 0)
            try:
                entry.result = apply_unary(op, value)
            except ProgramCrash as crash:  # pragma: no cover - unary ops cannot crash
                entry.crash_reason = crash.reason
            return
        lhs = self._source_value(entry, 0)
        rhs = self._source_value(entry, 1)
        if op is Opcode.MUL:
            entry.latency = self._mul_latency
        elif op in (Opcode.DIV, Opcode.MOD):
            entry.latency = self._div_latency
        try:
            entry.result = apply_binary(op, lhs, rhs)
        except ProgramCrash as crash:
            entry.crash_reason = crash.reason
            entry.result = 0

    def _memory_address(self, entry: _InFlightUop) -> int:
        phys = entry.src_phys[2]
        if phys is not None:
            if self.record_reads:
                entry.rf_reads.append((phys, self.cycle))
            if self._rf_log is not None:
                self._rf_log.append(phys)
            base = self.prf.values[phys]
        else:
            imm = entry.src_imm[2]
            base = to_unsigned(imm if imm is not None else 0)
        return to_unsigned(base + entry.uop.mem_disp)

    def _execute_load(self, entry: _InFlightUop) -> bool:
        uop = entry.uop
        # Address generation inlined from _memory_address (hot path).
        phys = entry.src_phys[2]
        if phys is not None:
            if self.record_reads:
                entry.rf_reads.append((phys, self.cycle))
            if self._rf_log is not None:
                self._rf_log.append(phys)
            base = self.prf.values[phys]
        else:
            imm = entry.src_imm[2]
            base = to_unsigned(imm if imm is not None else 0)
        address = to_unsigned(base + uop.mem_disp)
        entry.mem_address = address
        size = uop.mem_size
        # Region classification inlined (see MemoryImage.classify_access):
        # the bounds are run constants, and loads are the hottest memory
        # path in the simulator.
        end = address + size
        if end > MEM_LIMIT or address < DATA_BASE:
            entry.crash_reason = f"invalid memory read at {address:#x}"
            entry.result = 0
            return True
        entry.demand = not (end <= self.memory.heap_end or address >= STACK_LOW)

        action, slot = self.store_queue.forwarding_source(entry.seq, address, size)
        if action is not None:
            if action == "stall":
                # Overlapping older store that cannot forward: replay next cycle.
                entry.rf_reads.clear()
                entry.demand = False
                return False
            entry.result = slot.forward_value(address, size)
            if self._sq_log is not None:
                self._sq_log.append(slot.index)
            if self.record_reads:
                entry.sq_reads.append((slot.index, self.cycle))
            entry.latency = self._l1_hit_latency
            self.stats.store_forwards += 1
            self.stats.loads_executed += 1
            return True

        result = self.dcache.read(address, size, self.cycle)
        entry.result = result.value
        entry.latency = result.latency
        if self.record_reads:
            cycle = self.cycle
            l1d_reads = entry.l1d_reads
            for word in result.touched_entries:
                l1d_reads.append((word, cycle))
        self.stats.loads_executed += 1
        return True

    def _execute_store_addr(self, entry: _InFlightUop) -> None:
        uop = entry.uop
        address = self._memory_address(entry)
        entry.mem_address = address
        klass = self.memory.classify_access(address, uop.mem_size)
        crash = None
        demand = False
        if klass is AccessClass.CRASH:
            crash = f"invalid memory write at {address:#x}"
            entry.crash_reason = crash
        elif klass is AccessClass.DEMAND:
            demand = True
            entry.demand = True
        if entry.macro.sq_index is None:
            raise SimulatorAssertError("store address executed without a store-queue slot")
        self.store_queue.set_address(entry.macro.sq_index, address, demand, crash)

    def _execute_store_data(self, entry: _InFlightUop) -> None:
        value = self._source_value(entry, 0)
        entry.result = value
        if entry.macro.sq_index is None:
            raise SimulatorAssertError("store data executed without a store-queue slot")
        self.store_queue.set_data(entry.macro.sq_index, value)
        if self._sq_log is not None:
            self._sq_log.append(~entry.macro.sq_index)
        if self.tracer.enabled:
            self.tracer.record_sq(entry.macro.sq_index, self.cycle, AccessKind.WRITE)

    # ------------------------------------------------------------------
    # Rename / dispatch
    # ------------------------------------------------------------------
    def _rename(self) -> None:
        decode_queue = self.decode_queue
        if not decode_queue:
            return
        budget = self.config.rename_width
        config = self.config
        while decode_queue and budget > 0:
            macro = decode_queue[0]
            count = macro.uop_count
            if count > budget:
                break
            # Resource check inlined from _resources_available.
            if (len(self.rob) + count > config.rob_entries
                    or len(self.issue_queue) + count > config.issue_queue_entries
                    or not self.free_list.has_free(macro.dest_count)
                    or (macro.has_store and not self.store_queue.has_free())
                    or (macro.has_load and not self.load_queue.has_free())):
                self.stats.rename_stalls += 1
                break
            decode_queue.popleft()
            for uop in macro.uops:
                self._rename_uop(uop, macro)
            budget -= count

    def _rename_uop(self, uop: MicroOp, macro: _MacroContext) -> None:
        self._seq += 1
        entry = _InFlightUop(uop, macro, self._seq)

        # Static operand layout comes from the decode-time templates; only
        # the REG/TMP positions need the rename map.
        entry.src_phys = src_phys = [None, None, None]
        entry.src_imm = list(uop.src_imm_init)
        if self.record_reads:
            entry.rf_reads = []
            entry.sq_reads = []
            entry.l1d_reads = []
        rename_map = self.rename_map
        wait_phys = entry.wait_phys
        ready = self.prf.ready
        waiters = self._waiters
        pending = 0
        for position, ref in uop.dyn_sources:
            if ref.kind is RefKind.REG:
                phys = rename_map[ref.value]
            else:
                if ref.value not in macro.temp_map:
                    raise SimulatorAssertError("temporary read before being written")
                phys = macro.temp_map[ref.value]
            src_phys[position] = phys
            wait_phys.append(phys)
            if not ready[phys]:
                pending += 1
                bucket = waiters.get(phys)
                if bucket is None:
                    waiters[phys] = [entry]
                else:
                    bucket.append(entry)
        entry.pending = pending

        if uop.dest is not None:
            phys = self.free_list.allocate()
            self.prf.mark_not_ready(phys)
            entry.phys_dest = phys
            dest_value = uop.dest_value
            if uop.dest_is_reg:
                entry.prev_phys = rename_map[dest_value]
                rename_map[dest_value] = phys
            else:
                macro.temp_map[dest_value] = phys
                macro.temp_allocs.append(phys)

        if uop.kind is MicroOpKind.STORE_ADDR:
            macro.sq_index = self.store_queue.allocate(
                entry.seq, uop.rip, uop.upc + 1, uop.mem_size
            )
        elif uop.kind is MicroOpKind.LOAD:
            self.load_queue.allocate(entry.seq)
            entry.lq_allocated = True

        self.rob.append(entry)
        self.issue_queue.append(entry)

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------
    def _fetch(self) -> None:
        if self.cycle < self.fetch_stall_until:
            self.stats.fetch_stall_cycles += 1
            return
        fetch_width = self.config.fetch_width
        decode_queue = self.decode_queue
        if len(decode_queue) >= 2 * fetch_width:
            return
        fetch_info = self._fetch_info
        num_instructions = self._num_instructions
        stats = self.stats
        branch_unit = self.branch_unit
        fetched = 0
        while fetched < fetch_width:
            rip = self.fetch_pc
            if rip < 0 or rip >= num_instructions:
                return
            latency = self.icache.fetch_latency(rip)
            (_, uops, is_control, is_conditional, is_indirect, static_target,
             _, dest_count, has_store, has_load) = fetch_info[rip]
            stats.fetched_instructions += 1
            fetched += 1

            if is_control:
                predicted_next, predicted_taken, history = branch_unit.predict_next(
                    rip, is_conditional, static_target, is_indirect
                )
            else:
                predicted_next = rip + 1
                predicted_taken = False
                history = branch_unit.predictor.global_history

            macro = _MacroContext(
                rip=rip,
                predicted_next=predicted_next,
                predicted_taken=predicted_taken,
                history_snapshot=history,
                is_conditional=is_conditional,
            )
            macro.attach_uops(uops, dest_count, has_store, has_load)
            decode_queue.append(macro)
            self.fetch_pc = predicted_next

            if latency > 0:
                self.fetch_stall_until = self.cycle + latency
                return
            if is_control and predicted_taken:
                return

    def _check_wild_fetch(self) -> None:
        """Crash when the correct path has left the program and nothing is in flight."""
        if self.halted:
            return
        if self.program.in_range(self.fetch_pc):
            return
        if self.rob or self.decode_queue:
            return
        raise ProgramCrash(f"instruction fetch outside program at RIP {self.fetch_pc}",
                           cycle=self.cycle)
