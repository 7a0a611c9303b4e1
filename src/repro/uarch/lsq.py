"""Load and store queues.

The store queue models the *data field* targeted by the paper's fault
injection: each slot owns a persistent 64-bit data latch that keeps its
value when the slot is deallocated (faults in free slots are possible and
naturally masked when the slot is refilled).

Store-to-load forwarding follows a conservative but correct policy: a load
may only issue once every older store knows its address; a load that
overlaps an older store either forwards from it (full coverage, data ready)
or replays until the store has drained to the L1D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa.errors import SimulatorAssertError


@dataclass
class StoreQueueSlot:
    """One store-queue slot."""

    index: int
    valid: bool = False
    seq: int = -1
    address: int = 0
    size: int = 8
    addr_ready: bool = False
    data: int = 0
    data_ready: bool = False
    committed: bool = False
    rip: int = -1
    upc: int = 0
    demand: bool = False
    crash: Optional[str] = None

    def reset(self) -> None:
        """Deallocate the slot; the data latch intentionally keeps its value."""
        self.valid = False
        self.seq = -1
        self.addr_ready = False
        self.data_ready = False
        self.committed = False
        self.demand = False
        self.crash = None

    def overlaps(self, address: int, size: int) -> bool:
        """True when this store's byte range intersects [address, address+size)."""
        if not self.addr_ready:
            return False
        return not (address + size <= self.address or self.address + self.size <= address)

    def covers(self, address: int, size: int) -> bool:
        """True when this store's byte range fully covers the load's range."""
        if not self.addr_ready:
            return False
        return self.address <= address and address + size <= self.address + self.size

    def forward_value(self, address: int, size: int) -> int:
        """Extract the loaded bytes out of this store's data."""
        offset = address - self.address
        return (self.data >> (8 * offset)) & ((1 << (8 * size)) - 1)


class StoreQueue:
    """Circular store queue with persistent per-slot data latches."""

    def __init__(self, num_entries: int):
        self.num_entries = num_entries
        self.slots: List[StoreQueueSlot] = [StoreQueueSlot(i) for i in range(num_entries)]
        self.head = 0
        self.tail = 0
        self.occupancy = 0
        #: Valid slots still waiting for their address micro-op; lets the
        #: per-load disambiguation check short-circuit to a counter test.
        # Derived from the slots; rebuilt by recount_pending() after any
        # bulk restore, so it is deliberately outside the delta contract.
        self._addr_pending = 0  # repro-lint: transient -- derived counter, rebuilt by recount_pending()
        # Delta-checkpoint support: indices of slots mutated since the last
        # drain (None while tracking is disabled).
        self._dirty = None

    # ------------------------------------------------------------------
    def has_free(self) -> bool:
        return self.occupancy < self.num_entries

    def _occupied(self):
        """The valid slots in allocation (= ascending seq) order."""
        slots = self.slots
        head = self.head
        num = self.num_entries
        for k in range(self.occupancy):
            yield slots[(head + k) % num]

    def allocate(self, seq: int, rip: int, upc: int, size: int) -> int:
        """Allocate the slot at the tail for the store with sequence ``seq``."""
        if not self.has_free():
            raise SimulatorAssertError("store queue overflow")
        slot = self.slots[self.tail]
        if slot.valid:
            raise SimulatorAssertError("store queue tail slot still valid")
        slot.valid = True
        slot.seq = seq
        slot.rip = rip
        slot.upc = upc
        slot.size = size
        slot.addr_ready = False
        slot.data_ready = False
        slot.committed = False
        slot.demand = False
        slot.crash = None
        index = self.tail
        self.tail = (self.tail + 1) % self.num_entries
        self.occupancy += 1
        self._addr_pending += 1
        if self._dirty is not None:
            self._dirty.add(index)
        return index

    def set_address(self, index: int, address: int, demand: bool, crash: Optional[str]) -> None:
        slot = self.slots[index]
        slot.address = address
        slot.addr_ready = True
        slot.demand = demand
        slot.crash = crash
        self._addr_pending -= 1
        if self._dirty is not None:
            self._dirty.add(index)

    def set_data(self, index: int, value: int) -> None:
        slot = self.slots[index]
        slot.data = value & 0xFFFFFFFFFFFFFFFF
        slot.data_ready = True
        if self._dirty is not None:
            self._dirty.add(index)

    def mark_committed(self, index: int) -> None:
        self.slots[index].committed = True
        if self._dirty is not None:
            self._dirty.add(index)

    def _reset_slot(self, slot: StoreQueueSlot) -> None:
        """Deallocate ``slot``, maintaining the pending-address counter."""
        if not slot.addr_ready:
            self._addr_pending -= 1
        slot.reset()
        if self._dirty is not None:
            self._dirty.add(slot.index)

    # ------------------------------------------------------------------
    def older_stores(self, seq: int) -> List[StoreQueueSlot]:
        """Return valid slots holding stores older than ``seq`` (oldest first)."""
        result = []
        for slot in self._occupied():
            if slot.seq >= seq:
                break
            result.append(slot)
        return result

    def all_older_addresses_known(self, seq: int) -> bool:
        """Conservative disambiguation: all older stores must know their address."""
        if self._addr_pending == 0:
            return True
        for slot in self._occupied():
            if slot.seq >= seq:
                break
            if not slot.addr_ready:
                return False
        return True

    def forwarding_source(self, seq: int, address: int, size: int) -> Tuple[Optional[str], Optional[StoreQueueSlot]]:
        """Find the forwarding source for a load.

        Returns one of ``("forward", slot)``, ``("stall", slot)`` or
        ``(None, None)`` when no older store overlaps.
        """
        # Walk the occupied slots youngest-first; the first older store
        # that overlaps is the youngest one, i.e. the forwarding source.
        # The overlap test is inlined — this runs once per executed load.
        slots = self.slots
        tail = self.tail
        num = self.num_entries
        end = address + size
        for k in range(1, self.occupancy + 1):
            slot = slots[(tail - k) % num]
            if slot.seq >= seq or not slot.addr_ready:
                continue
            slot_address = slot.address
            if end <= slot_address or slot_address + slot.size <= address:
                continue
            # Youngest overlapping older store found.
            if (slot.data_ready and slot_address <= address
                    and end <= slot_address + slot.size):
                return "forward", slot
            return "stall", slot
        return None, None

    # ------------------------------------------------------------------
    def head_slot(self) -> Optional[StoreQueueSlot]:
        """Return the oldest valid slot, or None when the queue is empty."""
        if self.occupancy == 0:
            return None
        slot = self.slots[self.head]
        if not slot.valid:
            raise SimulatorAssertError("store queue head slot not valid")
        return slot

    def release_head(self) -> None:
        """Free the head slot after its store has drained to the cache."""
        if self.occupancy == 0:
            raise SimulatorAssertError("store queue underflow on release")
        self._reset_slot(self.slots[self.head])
        self.head = (self.head + 1) % self.num_entries
        self.occupancy -= 1

    def squash_younger(self, seq: int) -> None:
        """Deallocate every store younger than ``seq`` and rewind the tail."""
        while self.occupancy > 0:
            last = (self.tail - 1) % self.num_entries
            slot = self.slots[last]
            if slot.valid and slot.seq > seq and not slot.committed:
                self._reset_slot(slot)
                self.tail = last
                self.occupancy -= 1
            else:
                break

    # ------------------------------------------------------------------
    def flip_bit(self, entry: int, bit: int) -> None:
        """Flip one bit of a slot's data latch (fault-injection hook)."""
        if not 0 <= bit < 64:
            raise ValueError(f"bit out of range: {bit}")
        self.slots[entry].data ^= 1 << bit
        if self._dirty is not None:
            self._dirty.add(entry)

    def set_bit(self, entry: int, bit: int, value: int) -> None:
        """Pin one bit of a slot's data latch (stuck-at fault hook).

        Works on free slots too — their latches persist, exactly like
        :meth:`flip_bit` faults landing in them.
        """
        if not 0 <= bit < 64:
            raise ValueError(f"bit out of range: {bit}")
        if value:
            self.slots[entry].data |= 1 << bit
        else:
            self.slots[entry].data &= ~(1 << bit) & 0xFFFF_FFFF_FFFF_FFFF
        if self._dirty is not None:
            self._dirty.add(entry)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def slot_state(self, index: int) -> Tuple:
        """One slot's snapshot tuple — the single definition of the slot
        field layout, shared by full snapshots and delta captures."""
        slot = self.slots[index]
        return (slot.valid, slot.seq, slot.address, slot.size, slot.addr_ready,
                slot.data, slot.data_ready, slot.committed, slot.rip, slot.upc,
                slot.demand, slot.crash)

    def restore_slot(self, index: int, fields: Tuple) -> None:
        """Inverse of :meth:`slot_state` for one slot (callers fix up the
        pending-address counter afterwards via :meth:`recount_pending`)."""
        slot = self.slots[index]
        (slot.valid, slot.seq, slot.address, slot.size, slot.addr_ready,
         slot.data, slot.data_ready, slot.committed, slot.rip, slot.upc,
         slot.demand, slot.crash) = fields

    def recount_pending(self) -> None:
        """Recompute the pending-address counter after bulk slot writes."""
        self._addr_pending = sum(
            1 for slot in self.slots if slot.valid and not slot.addr_ready
        )

    def snapshot(self) -> Tuple:
        """Capture head/tail pointers and every slot, including the
        persistent data latches of *free* slots.  A fault in a free latch
        changes machine state until the slot is refilled, so state
        equality must see it; it never changes the outcome, because
        ``set_data`` overwrites the latch before any read (which is why
        the golden run's :class:`~repro.uarch.checkpoint.DeadCellIndex`
        answers such a flip without a run).

        Snapshot/restore contract: immutable, picklable, ``==`` iff the
        queues are bit-identical.
        """
        return (
            self.head,
            self.tail,
            self.occupancy,
            tuple(self.slot_state(index) for index in range(self.num_entries)),
        )

    def restore(self, state: Tuple) -> None:
        """Restore the store queue in place from a :meth:`snapshot` value."""
        self.head, self.tail, self.occupancy, slot_states = state
        for index, fields in enumerate(slot_states):
            self.restore_slot(index, fields)
        self.recount_pending()
        self._dirty = None

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        """Start recording mutated slot indices (delta checkpoints)."""
        self._dirty = set()

    def drain_dirty(self) -> set:
        """Return and clear the slot indices mutated since the last drain."""
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()


class LoadQueue:
    """Load queue modelled for occupancy only (no data field in gem5 either)."""

    def __init__(self, num_entries: int):
        self.num_entries = num_entries
        self._seqs: List[int] = []

    def has_free(self) -> bool:
        return len(self._seqs) < self.num_entries

    def allocate(self, seq: int) -> None:
        if not self.has_free():
            raise SimulatorAssertError("load queue overflow")
        self._seqs.append(seq)

    def release(self, seq: int) -> None:
        try:
            self._seqs.remove(seq)
        except ValueError:
            raise SimulatorAssertError("load queue release of unknown load") from None

    def squash_younger(self, seq: int) -> None:
        self._seqs = [s for s in self._seqs if s <= seq]

    @property
    def occupancy(self) -> int:
        return len(self._seqs)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[int, ...]:
        """Capture the in-flight load sequence numbers (insertion order)."""
        return tuple(self._seqs)

    def restore(self, state: Tuple[int, ...]) -> None:
        """Restore the load queue in place from a :meth:`snapshot` value."""
        self._seqs = list(state)
