"""Physical integer register file."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.isa.errors import SimulatorAssertError
from repro.isa.registers import NUM_ARCH_REGS, WORD_MASK


class PhysicalRegisterFile:
    """Bit-addressable physical register storage with ready bits.

    The value array is persistent: registers on the free list still hold
    their last value, so faults injected into free registers behave exactly
    as in hardware (they are overwritten when the register is reallocated
    and written back).
    """

    def __init__(self, num_regs: int):
        if num_regs <= NUM_ARCH_REGS:
            raise ValueError("need more physical than architectural registers")
        self.num_regs = num_regs
        self.values: List[int] = [0] * num_regs
        self.ready: List[bool] = [False] * num_regs
        # Delta-checkpoint support: indices whose value or ready bit changed
        # since the last drain (None while tracking is disabled).
        self._dirty = None

    def read(self, index: int) -> int:
        return self.values[index]

    def write(self, index: int, value: int) -> None:
        self.values[index] = value & WORD_MASK
        self.ready[index] = True
        if self._dirty is not None:
            self._dirty.add(index)

    def mark_not_ready(self, index: int) -> None:
        self.ready[index] = False
        if self._dirty is not None:
            self._dirty.add(index)

    def is_ready(self, index: int) -> bool:
        return self.ready[index]

    def flip_bit(self, index: int, bit: int) -> None:
        """Flip one bit of a physical register (fault-injection hook)."""
        if not 0 <= bit < 64:
            raise ValueError(f"bit out of range: {bit}")
        self.values[index] ^= 1 << bit
        if self._dirty is not None:
            self._dirty.add(index)

    def set_bit(self, index: int, bit: int, value: int) -> None:
        """Pin one bit of a physical register (stuck-at fault hook)."""
        if not 0 <= bit < 64:
            raise ValueError(f"bit out of range: {bit}")
        if value:
            self.values[index] |= 1 << bit
        else:
            self.values[index] &= ~(1 << bit) & 0xFFFF_FFFF_FFFF_FFFF
        if self._dirty is not None:
            self._dirty.add(index)

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        """Start recording mutated register indices (delta checkpoints)."""
        self._dirty = set()

    def drain_dirty(self) -> set:
        """Return and clear the indices mutated since the last drain."""
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[bool, ...]]:
        """Capture values and ready bits (snapshot/restore contract:
        immutable, picklable, ``==`` iff states are bit-identical)."""
        return tuple(self.values), tuple(self.ready)

    def restore(self, state: Tuple[Tuple[int, ...], Tuple[bool, ...]]) -> None:
        """Restore the register file in place from a :meth:`snapshot` value."""
        values, ready = state
        self.values = list(values)
        self.ready = list(ready)
        self._dirty = None


class FreeList:
    """Free list of physical registers with underflow checking."""

    def __init__(self, num_regs: int, reserved: int = NUM_ARCH_REGS):
        self._free: Deque[int] = deque(range(reserved, num_regs))
        self.num_regs = num_regs

    def __len__(self) -> int:
        return len(self._free)

    def __contains__(self, index: int) -> bool:
        return index in self._free

    def allocate(self) -> int:
        if not self._free:
            raise SimulatorAssertError("physical register free list underflow")
        return self._free.popleft()

    def release(self, index: int) -> None:
        self._free.append(index)

    def has_free(self, count: int = 1) -> bool:
        return len(self._free) >= count

    def rebuild(self, in_use: set) -> None:
        """Rebuild the free list after a squash from the set of live registers."""
        self._free = deque(reg for reg in range(self.num_regs) if reg not in in_use)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[int, ...]:
        """Capture the free list *in allocation order* (order matters: it
        determines which physical register the next rename receives)."""
        return tuple(self._free)

    def restore(self, state: Tuple[int, ...]) -> None:
        """Restore the free list in place from a :meth:`snapshot` value."""
        self._free = deque(state)
