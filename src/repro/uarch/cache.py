"""Write-back cache hierarchy.

The L1 data cache is fully data-holding: resident lines carry the actual
bytes, loads read from them, committed stores write into them, dirty
evictions copy the line back to memory.  This matters for fault injection —
a bit flipped in the L1D data array propagates to the program exactly the
way it would in hardware (through a later load or through a write-back).

The L1 instruction cache and the unified L2 are modelled tag-only: they only
contribute hit/miss latencies (the L2 never needs to hold data because L1D
write-backs go straight to memory, which is the point of visibility for the
reliability analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.memory import MemoryImage
from repro.uarch.config import MicroarchConfig
from repro.uarch.stats import SimStats
from repro.uarch.structures import WORDS_PER_LINE
from repro.uarch.trace import AccessKind, AccessTracer, WRITEBACK_RIP


class CacheLine:
    """A single cache line with persistent data storage.

    The data array exists physically whether or not the line is valid, which
    is why ``data`` is allocated once and never replaced: faults injected
    into an invalid line's data array are possible (and harmless until the
    line is refilled), exactly as in hardware.
    """

    __slots__ = ("tag", "valid", "dirty", "data", "last_use")

    def __init__(self, line_bytes: int):
        self.tag: Optional[int] = None
        self.valid = False
        self.dirty = False
        self.data = bytearray(line_bytes)
        self.last_use = 0


class TagOnlyCache:
    """Set-associative tag store used for the L1I and the L2."""

    def __init__(self, size_kb: int, assoc: int, line_bytes: int):
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_kb * 1024 // (line_bytes * assoc)
        self._tags: List[List[Optional[int]]] = [
            [None] * assoc for _ in range(self.num_sets)
        ]
        self._lru: List[List[int]] = [[0] * assoc for _ in range(self.num_sets)]
        self._tick = 0
        # Delta-checkpoint support: set indices whose tags/LRU changed since
        # the last drain (None while tracking is disabled).
        self._dirty = None

    def _locate(self, address: int) -> Tuple[int, int]:
        block = address // self.line_bytes
        return block % self.num_sets, block // self.num_sets

    def access(self, address: int, allocate: bool = True) -> bool:
        """Probe the cache; returns True on hit. Misses allocate by default."""
        self._tick += 1
        set_index, tag = self._locate(address)
        tags = self._tags[set_index]
        lru = self._lru[set_index]
        for way, existing in enumerate(tags):
            if existing == tag:
                lru[way] = self._tick
                if self._dirty is not None:
                    self._dirty.add(set_index)
                return True
        if allocate:
            victim = min(range(self.assoc), key=lambda way: lru[way])
            tags[victim] = tag
            lru[victim] = self._tick
            if self._dirty is not None:
                self._dirty.add(set_index)
        return False

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        """Start recording mutated set indices (delta checkpoints)."""
        self._dirty = set()

    def drain_dirty(self) -> set:
        """Return and clear the set indices mutated since the last drain."""
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()

    def set_state(self, set_index: int) -> Tuple:
        """The (tags, lru) tuple of one set, as stored in :meth:`snapshot`."""
        return tuple(self._tags[set_index]), tuple(self._lru[set_index])

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Capture tags, LRU ticks and the tick counter.

        Snapshot/restore contract: immutable, picklable, ``==`` iff the
        caches are bit-identical (LRU state included — replacement
        decisions shape future hit/miss timing).
        """
        return (
            tuple(tuple(ways) for ways in self._tags),
            tuple(tuple(ways) for ways in self._lru),
            self._tick,
        )

    def restore(self, state: Tuple) -> None:
        """Restore the tag store in place from a :meth:`snapshot` value."""
        tags, lru, self._tick = state
        self._tags = [list(ways) for ways in tags]
        self._lru = [list(ways) for ways in lru]
        self._dirty = None


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of an L1D access."""

    value: int
    latency: int
    hit: bool
    touched_entries: List[int]


class DataCache:
    """The L1 data cache: set-associative, write-back, write-allocate, LRU."""

    def __init__(
        self,
        config: MicroarchConfig,
        memory: MemoryImage,
        stats: SimStats,
        tracer: Optional[AccessTracer] = None,
    ):
        self.config = config
        self.memory = memory
        self.stats = stats
        self.tracer = tracer
        self.line_bytes = config.cache_line_bytes
        self.assoc = config.l1d_assoc
        self.num_sets = config.l1d_num_sets
        self.lines: List[List[CacheLine]] = [
            [CacheLine(self.line_bytes) for _ in range(self.assoc)]
            for _ in range(self.num_sets)
        ]
        self.l2 = TagOnlyCache(config.l2_size_kb, config.l2_assoc, config.cache_line_bytes)
        self._tick = 0
        # Delta-checkpoint support: flat line indices (set * assoc + way)
        # mutated since the last drain (None while tracking is disabled).
        self._dirty = None
        # Data-array accesses in the order they happen, while a dead-cell
        # index records the run (None otherwise): a read as the word's
        # fault-target entry, a full overwrite as its complement.
        self._access_log: Optional[List[int]] = None  # repro-lint: transient -- capture-time event log, drained every cycle

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _locate(self, address: int) -> Tuple[int, int, int]:
        """Return (set_index, tag, offset) for a byte address."""
        offset = address % self.line_bytes
        block = address // self.line_bytes
        return block % self.num_sets, block // self.num_sets, offset

    def entry_index(self, set_index: int, way: int, word: int) -> int:
        """Flatten (set, way, word) into a fault-target entry index."""
        return (set_index * self.assoc + way) * WORDS_PER_LINE + word

    def entry_location(self, entry: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`entry_index`."""
        line_index, word = divmod(entry, WORDS_PER_LINE)
        set_index, way = divmod(line_index, self.assoc)
        return set_index, way, word

    @property
    def num_entries(self) -> int:
        return self.num_sets * self.assoc * WORDS_PER_LINE

    # ------------------------------------------------------------------
    # Fault injection hook
    # ------------------------------------------------------------------
    def flip_bit(self, entry: int, bit: int) -> None:
        """Flip one bit of the data array (used by the fault injector)."""
        set_index, way, word = self.entry_location(entry)
        line = self.lines[set_index][way]
        byte_index = word * 8 + bit // 8
        line.data[byte_index] ^= 1 << (bit % 8)
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + way)

    def set_bit(self, entry: int, bit: int, value: int) -> None:
        """Pin one bit of the data array (stuck-at fault hook).

        Invalid lines are legal targets — their data latches persist and
        become visible if the line is later filled without a full
        overwrite, exactly as for :meth:`flip_bit`.
        """
        set_index, way, word = self.entry_location(entry)
        line = self.lines[set_index][way]
        byte_index = word * 8 + bit // 8
        if value:
            line.data[byte_index] |= 1 << (bit % 8)
        else:
            line.data[byte_index] &= ~(1 << (bit % 8)) & 0xFF
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + way)

    # ------------------------------------------------------------------
    # Line management
    # ------------------------------------------------------------------
    def _find_way(self, set_index: int, tag: int) -> Optional[int]:
        for way, line in enumerate(self.lines[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    def _line_base_address(self, set_index: int, tag: int) -> int:
        return (tag * self.num_sets + set_index) * self.line_bytes

    def _evict(self, set_index: int, way: int, cycle: int) -> None:
        line = self.lines[set_index][way]
        if not line.valid:
            return
        if line.dirty:
            base = self._line_base_address(set_index, line.tag)
            self.memory.load_bytes(base, bytes(line.data))
            self.stats.l1d_writebacks += 1
            self.l2.access(base)
            if self._access_log is not None:
                self._log_line(set_index, way, read=True)
            if self.tracer is not None and self.tracer.enabled:
                # A dirty write-back reads every word of the line on behalf of
                # no committed instruction (sentinel RIP), see DESIGN.md.
                for word in range(WORDS_PER_LINE):
                    self.tracer.record_l1d(
                        self.entry_index(set_index, way, word),
                        cycle,
                        AccessKind.READ,
                        WRITEBACK_RIP,
                        0,
                    )
        line.valid = False
        line.dirty = False
        line.tag = None
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + way)

    def _log_line(self, set_index: int, way: int, read: bool) -> None:
        """Log a read or a full overwrite of every word of one line."""
        first = self.entry_index(set_index, way, 0)
        entries = range(first, first + WORDS_PER_LINE)
        self._access_log.extend(entries if read else [~entry for entry in entries])

    def _fill(self, set_index: int, tag: int, cycle: int) -> Tuple[int, int]:
        """Bring the line (set, tag) into the cache; returns (way, extra latency)."""
        lru_way = 0
        lru_tick = None
        for way, line in enumerate(self.lines[set_index]):
            if not line.valid:
                lru_way = way
                break
            if lru_tick is None or line.last_use < lru_tick:
                lru_tick = line.last_use
                lru_way = way
        else:
            self._evict(set_index, lru_way, cycle)

        base = self._line_base_address(set_index, tag)
        latency = self.config.l2_hit_latency if self.l2.access(base) else self.config.memory_latency
        if latency == self.config.l2_hit_latency:
            self.stats.l2_hits += 1
        else:
            self.stats.l2_misses += 1

        line = self.lines[set_index][lru_way]
        line.data[:] = self.memory.read_bytes(base, self.line_bytes)
        line.tag = tag
        line.valid = True
        line.dirty = False
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + lru_way)
        if self._access_log is not None:
            self._log_line(set_index, lru_way, read=False)
        if self.tracer is not None and self.tracer.enabled:
            for word in range(WORDS_PER_LINE):
                self.tracer.record_l1d(
                    self.entry_index(set_index, lru_way, word),
                    cycle,
                    AccessKind.WRITE,
                    WRITEBACK_RIP,
                    0,
                )
        return lru_way, latency

    def _access_line(self, address: int, cycle: int) -> Tuple[int, int, int, int, bool]:
        """Return (set_index, way, offset, latency, hit) with the line resident."""
        self._tick += 1
        set_index, tag, offset = self._locate(address)
        way = self._find_way(set_index, tag)
        hit = way is not None
        latency = self.config.l1_hit_latency
        if hit:
            self.stats.l1d_hits += 1
        else:
            self.stats.l1d_misses += 1
            way, extra = self._fill(set_index, tag, cycle)
            latency += extra
        line = self.lines[set_index][way]
        line.last_use = self._tick
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + way)
        return set_index, way, offset, latency, hit

    # ------------------------------------------------------------------
    # Public access API (used by the pipeline)
    # ------------------------------------------------------------------
    def _touched_entries(self, set_index: int, way: int, offset: int,
                         size: int) -> List[int]:
        """Fault-target entry indices covered by an access (see
        :meth:`entry_index`); single-word accesses take the common path."""
        first = offset >> 3
        last = (offset + size - 1) >> 3
        base_entry = (set_index * self.assoc + way) * WORDS_PER_LINE
        if first == last:
            return [base_entry + first]
        return [base_entry + w for w in range(first, last + 1)]

    def read(self, address: int, size: int, cycle: int) -> CacheAccessResult:
        """Read ``size`` bytes; the value comes from the (possibly faulty) line."""
        set_index, way, offset, latency, hit = self._access_line(address, cycle)
        line = self.lines[set_index][way]
        value = int.from_bytes(line.data[offset:offset + size], "little")
        touched = self._touched_entries(set_index, way, offset, size)
        if self._access_log is not None:
            self._access_log.extend(touched)
        return CacheAccessResult(value=value, latency=latency, hit=hit, touched_entries=touched)

    def write(self, address: int, value: int, size: int, cycle: int) -> CacheAccessResult:
        """Write ``size`` bytes (write-allocate); marks the line dirty."""
        set_index, way, offset, latency, hit = self._access_line(address, cycle)
        line = self.lines[set_index][way]
        line.data[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        line.dirty = True
        if self._dirty is not None:
            self._dirty.add(set_index * self.assoc + way)
        touched = self._touched_entries(set_index, way, offset, size)
        log = self._access_log
        if log is not None:
            # A store covering a whole word overwrites it; a narrower one
            # keeps the word's other bytes, so it is logged as a read.
            end = offset + size
            for entry in touched:
                low = (entry % WORDS_PER_LINE) * 8
                log.append(~entry if offset <= low and low + 8 <= end else entry)
        return CacheAccessResult(value=value, latency=latency, hit=hit, touched_entries=touched)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Capture every line (tag/valid/dirty/data/LRU), the L2 tag store
        and the tick counter.  The data bytes of *invalid* lines are
        captured too: the array physically persists, so faults injected
        there must survive a checkpoint round trip.

        The backing :class:`MemoryImage` is shared with the pipeline and is
        checkpointed separately by the CPU-level snapshot.
        """
        return (
            tuple(
                (line.tag, line.valid, line.dirty, bytes(line.data), line.last_use)
                for ways in self.lines
                for line in ways
            ),
            self.l2.snapshot(),
            self._tick,
        )

    def restore(self, state: Tuple) -> None:
        """Restore the cache in place from a :meth:`snapshot` value."""
        line_states, l2_state, self._tick = state
        flat = iter(line_states)
        for ways in self.lines:
            for line in ways:
                tag, valid, dirty, data, last_use = next(flat)
                line.tag = tag
                line.valid = valid
                line.dirty = dirty
                line.data[:] = data
                line.last_use = last_use
        self.l2.restore(l2_state)
        self._dirty = None

    def flush_dirty_to_memory(self) -> None:
        """Write every dirty line back to memory (used at end of simulation)."""
        for set_index in range(self.num_sets):
            for way, line in enumerate(self.lines[set_index]):
                if line.valid and line.dirty:
                    base = self._line_base_address(set_index, line.tag)
                    self.memory.load_bytes(base, bytes(line.data))
                    if self._access_log is not None:
                        self._log_line(set_index, way, read=True)
                    line.dirty = False
                    if self._dirty is not None:
                        self._dirty.add(set_index * self.assoc + way)

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        """Start recording mutated line indices; the L2 tracks its sets."""
        self._dirty = set()
        self.l2.begin_dirty_tracking()

    def drain_dirty(self) -> set:
        """Return and clear the line indices mutated since the last drain."""
        dirty = self._dirty
        self._dirty = set()
        return dirty if dirty is not None else set()

    def begin_access_log(self) -> List[int]:
        """Log every read and full overwrite of a data-array word from now on.

        A load reads the words it covers, squashed loads included; a dirty
        line's write-back, on eviction or in the end-of-run flush, reads
        every word of the line; ``_fill`` overwrites every word of the
        line; a store overwrites each word it covers whole and reads (is
        conservatively logged as reading) each word it covers in part.
        A read appends the word's fault-target entry, an overwrite its
        complement.  Returns the log; the caller drains it.
        """
        self._access_log = []
        return self._access_log

    def line_state(self, line_index: int) -> Tuple:
        """One line's (tag, valid, dirty, data, last_use) snapshot tuple."""
        set_index, way = divmod(line_index, self.assoc)
        line = self.lines[set_index][way]
        return (line.tag, line.valid, line.dirty, bytes(line.data), line.last_use)


class InstructionCache:
    """Tag-only L1 instruction cache: contributes fetch latency only."""

    def __init__(self, config: MicroarchConfig, stats: SimStats):
        self.config = config
        self.stats = stats
        self._cache = TagOnlyCache(config.l1i_size_kb, config.l1i_assoc, config.cache_line_bytes)

    def fetch_latency(self, rip: int) -> int:
        """Return the latency of fetching the instruction at ``rip``.

        The tag probe is inlined (one probe per fetched instruction is the
        front end's hottest cache interaction); misses fall back to the
        generic allocate path.
        """
        cache = self._cache
        cache._tick += 1
        block = (rip * 4) // cache.line_bytes
        set_index = block % cache.num_sets
        tag = block // cache.num_sets
        tags = cache._tags[set_index]
        for way, existing in enumerate(tags):
            if existing == tag:
                cache._lru[set_index][way] = cache._tick
                if cache._dirty is not None:
                    cache._dirty.add(set_index)
                self.stats.l1i_hits += 1
                return 0
        lru = cache._lru[set_index]
        victim = min(range(cache.assoc), key=lambda way: lru[way])
        tags[victim] = tag
        lru[victim] = cache._tick
        if cache._dirty is not None:
            cache._dirty.add(set_index)
        self.stats.l1i_misses += 1
        return self.config.l2_hit_latency

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Capture the tag store (fetch timing depends on its contents)."""
        return self._cache.snapshot()

    def restore(self, state: Tuple) -> None:
        """Restore the instruction cache in place from a snapshot."""
        self._cache.restore(state)

    # ------------------------------------------------------------------
    # Delta-checkpoint hooks (delegate to the tag store)
    # ------------------------------------------------------------------
    def begin_dirty_tracking(self) -> None:
        self._cache.begin_dirty_tracking()

    def drain_dirty(self) -> set:
        return self._cache.drain_dirty()

    def set_state(self, set_index: int) -> Tuple:
        return self._cache.set_state(set_index)

    @property
    def tick(self) -> int:
        return self._cache._tick
