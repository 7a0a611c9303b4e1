"""MeRLiN's two-step fault-grouping algorithm (Section 3.2).

Step 1 classifies every fault of the initial list:

* faults landing outside every vulnerable interval are Masked without any
  injection (the ACE-like pruning);
* the remaining faults are grouped by the (RIP, uPC) of the committed
  micro-operation that reads the faulty entry at the end of the interval
  the fault falls in.

Step 2 splits each (RIP, uPC) group by the byte position of the flipped bit
(logical masking differs across bytes) and picks one representative per
byte sub-group, preferring representatives from *different dynamic
instances* of the same static instruction to increase time diversity
(Figure 5).

Generalized fault models flow through both steps keyed by their *first
vulnerable application* — the earliest (active cycle, flip entry) pair in
plan order that lands inside a vulnerable interval (for the paper's
single-bit transients this is the classic single anchor lookup).  A fault
is ACE-masked only when *every* application of its window misses every
interval; grouping and the byte split then use the keying interval and
the anchor's byte.  Representative propagation within a group stays exact
because every member of a group applies the same model with the same
geometry relative to its anchor.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.intervals import IntervalSet, VulnerableInterval
from repro.faults.model import FaultList, FaultSpec


@dataclass
class GroupedFault:
    """A fault together with the vulnerable interval it landed in."""

    fault: FaultSpec
    interval: VulnerableInterval

    @property
    def byte(self) -> int:
        return self.fault.byte

    @property
    def dynamic_instance(self) -> int:
        """The interval end cycle identifies the dynamic instance of the reader."""
        return self.interval.end_cycle


@dataclass
class FaultGroup:
    """A final group produced by step 2 (one (RIP, uPC, byte) combination)."""

    rip: int
    upc: int
    byte: int
    members: List[GroupedFault]
    representative: FaultSpec

    @property
    def key(self) -> Tuple[int, int, int]:
        return self.rip, self.upc, self.byte

    @property
    def reader_key(self) -> Tuple[int, int]:
        return self.rip, self.upc

    @property
    def size(self) -> int:
        return len(self.members)

    def member_fault_ids(self) -> List[int]:
        return [member.fault.fault_id for member in self.members]


@dataclass
class GroupedFaults:
    """Output of the two-step grouping algorithm."""

    structure_name: str
    initial_faults: int
    masked_fault_ids: List[int]
    groups: List[FaultGroup]

    @property
    def faults_in_groups(self) -> int:
        return sum(group.size for group in self.groups)

    @property
    def faults_after_ace(self) -> int:
        """Faults that survived the ACE-like pruning (hit vulnerable intervals)."""
        return self.initial_faults - len(self.masked_fault_ids)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def injections_required(self) -> int:
        """Number of representatives that must actually be injected."""
        return len(self.groups)

    @property
    def ace_speedup(self) -> float:
        """Fault-list reduction achieved by the ACE-like step alone."""
        if self.faults_after_ace == 0:
            return float(self.initial_faults) if self.initial_faults else 1.0
        return self.initial_faults / self.faults_after_ace

    @property
    def total_speedup(self) -> float:
        """Fault-list reduction achieved by ACE-like pruning plus grouping."""
        injections = self.injections_required
        if injections == 0:
            return float(self.initial_faults) if self.initial_faults else 1.0
        return self.initial_faults / injections

    @property
    def grouping_speedup(self) -> float:
        """Reduction contributed by grouping on top of the ACE-like step."""
        injections = self.injections_required
        if injections == 0:
            return float(self.faults_after_ace) if self.faults_after_ace else 1.0
        return self.faults_after_ace / injections

    def group_of_fault(self) -> Dict[int, FaultGroup]:
        """Map every grouped fault id to its final group."""
        mapping: Dict[int, FaultGroup] = {}
        for group in self.groups:
            for member in group.members:
                mapping[member.fault.fault_id] = group
        return mapping

    def group_sizes(self) -> List[int]:
        return [group.size for group in self.groups]

    def describe(self) -> str:
        return (
            f"GroupedFaults({self.structure_name}: {self.initial_faults} initial, "
            f"{len(self.masked_fault_ids)} ACE-masked, {self.num_groups} groups, "
            f"{self.injections_required} injections, "
            f"speedup {self.total_speedup:.1f}x)"
        )


def _select_representative(members: List[GroupedFault],
                           instance_usage: Counter) -> FaultSpec:
    """Pick the member whose dynamic instance is least used by this static instruction.

    This realises the time-diversity rule of step 2: representatives of the
    byte sub-groups of one static instruction are drawn from different
    dynamic instances whenever possible.
    """
    best = min(
        members,
        key=lambda member: (
            instance_usage[member.dynamic_instance],
            member.dynamic_instance,
            member.fault.fault_id,
        ),
    )
    instance_usage[best.dynamic_instance] += 1
    return best.fault


def first_vulnerable_interval(fault: FaultSpec,
                              intervals: IntervalSet) -> Optional[VulnerableInterval]:
    """The first vulnerable interval any application of ``fault`` lands in.

    Applications are scanned in plan order — active cycles outermost,
    flip entries in spec order within a cycle — so a single-bit transient
    reduces to the classic one-lookup anchor check, while a windowed
    fault (intermittent re-application, stuck-at pin) is prunable only if
    *every* application misses every vulnerable interval: a pin whose
    anchor lands in dead time but whose window covers a later interval of
    the entry corrupts a consumed value and must not be ACE-masked.
    """
    entries = fault.flip_entries()
    for cycle in fault.active_cycles():
        for entry in entries:
            interval = intervals.find(entry, cycle)
            if interval is not None:
                return interval
    return None


def group_faults(fault_list: FaultList, intervals: IntervalSet) -> GroupedFaults:
    """Run both grouping steps over ``fault_list``."""
    masked_ids: List[int] = []
    step1: Dict[Tuple[int, int], List[GroupedFault]] = defaultdict(list)

    for fault in fault_list:
        interval = first_vulnerable_interval(fault, intervals)
        if interval is None:
            masked_ids.append(fault.fault_id)
            continue
        step1[interval.reader_key].append(GroupedFault(fault=fault, interval=interval))

    groups: List[FaultGroup] = []
    for (rip, upc), members in sorted(step1.items()):
        by_byte: Dict[int, List[GroupedFault]] = defaultdict(list)
        for member in members:
            by_byte[member.byte].append(member)
        instance_usage: Counter = Counter()
        for byte, byte_members in sorted(by_byte.items()):
            groups.append(FaultGroup(
                rip=rip, upc=upc, byte=byte, members=list(byte_members),
                representative=_select_representative(byte_members, instance_usage),
            ))

    return GroupedFaults(
        structure_name=fault_list.structure.short_name,
        initial_faults=len(fault_list),
        masked_fault_ids=masked_ids,
        groups=groups,
    )
