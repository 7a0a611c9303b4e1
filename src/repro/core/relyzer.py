"""Relyzer's control-equivalence heuristic applied at the microarchitecture level.

Section 4.4.4 of the paper evaluates what happens if Relyzer's
control-equivalence pruning (one randomly chosen pilot per dynamic
control-flow path of depth 5 following the static instruction) is used in
MeRLiN's place, starting from the same post-ACE-like fault list.  This
module reproduces that comparison point:

* faults are first pruned with the same ACE-like step;
* the remaining faults are grouped by the static instruction that reads the
  faulty entry *and* the sequence of the next ``path_depth`` basic blocks
  the committed instruction stream visits after that read (the dynamic
  control-flow path);
* a single pilot is selected at random per group and its outcome is
  propagated to the whole group.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.grouping import GroupedFault, first_vulnerable_interval
from repro.core.intervals import IntervalSet
from repro.core.merlin import propagate
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultList, FaultSpec
from repro.uarch.trace import WRITEBACK_RIP

#: Control-flow path depth used by Relyzer (and by the paper's comparison).
DEFAULT_PATH_DEPTH = 5


@dataclass
class RelyzerGroup:
    """Faults sharing a static reader instruction and a depth-K control path."""

    rip: int
    path: Tuple[int, ...]
    members: List[GroupedFault]
    pilot: FaultSpec

    @property
    def size(self) -> int:
        return len(self.members)

    def member_fault_ids(self) -> List[int]:
        return [member.fault.fault_id for member in self.members]


@dataclass
class RelyzerResult:
    """Outcome of the control-equivalence campaign."""

    benchmark_name: str
    structure_name: str
    groups: List[RelyzerGroup]
    masked_fault_ids: List[int]
    initial_faults: int
    counts_final: ClassificationCounts
    counts_after_ace: ClassificationCounts
    predicted_outcomes: Dict[int, FaultEffectClass]
    injections_performed: int

    @property
    def faults_after_ace(self) -> int:
        return self.initial_faults - len(self.masked_fault_ids)

    @property
    def total_speedup(self) -> float:
        if self.injections_performed == 0:
            return float(self.initial_faults) if self.initial_faults else 1.0
        return self.initial_faults / self.injections_performed

    @property
    def grouping_speedup(self) -> float:
        if self.injections_performed == 0:
            return float(self.faults_after_ace) if self.faults_after_ace else 1.0
        return self.faults_after_ace / self.injections_performed

    def single_pilot_large_rip_fraction(self, threshold: int = 100) -> float:
        """Fraction of fault-heavy static instructions left with a single pilot.

        The paper reports that Relyzer's heuristic leaves ~9% of the static
        instructions with a large fault population (more than ``threshold``
        faults) represented by a single pilot, versus less than 2% for
        MeRLiN (Section 4.4.4).
        """
        faults_per_rip: Dict[int, int] = defaultdict(int)
        pilots_per_rip: Dict[int, int] = defaultdict(int)
        for group in self.groups:
            faults_per_rip[group.rip] += group.size
            pilots_per_rip[group.rip] += 1
        large_rips = [rip for rip, count in faults_per_rip.items() if count > threshold]
        if not large_rips:
            return 0.0
        single = sum(1 for rip in large_rips if pilots_per_rip[rip] <= 1)
        return single / len(large_rips)


class RelyzerCampaign:
    """Control-equivalence pruning over a post-ACE-like fault list."""

    def __init__(
        self,
        golden: GoldenRecord,
        fault_list: FaultList,
        intervals: IntervalSet,
        path_depth: int = DEFAULT_PATH_DEPTH,
        seed: int = 0,
        baseline: Optional[ComprehensiveCampaign] = None,
    ):
        if golden.tracer is None:
            raise ValueError("Relyzer grouping needs a traced golden run")
        self.golden = golden
        self.fault_list = fault_list
        self.intervals = intervals
        self.path_depth = path_depth
        self.seed = seed
        self._baseline = baseline
        self._commit_rips, self._commit_cycles = self._commit_arrays(golden)
        self._block_of = golden.program.basic_block_of()

    @staticmethod
    def _commit_arrays(golden: GoldenRecord) -> Tuple[List[int], List[int]]:
        log = getattr(golden, "commit_log", None)
        if log is None:
            log = []
        rips = [rip for rip, _ in log]
        cycles = [cycle for _, cycle in log]
        return rips, cycles

    # ------------------------------------------------------------------
    def _dynamic_path(self, rip: int, read_cycle: int) -> Tuple[int, ...]:
        """Basic-block path of depth ``path_depth`` after the dynamic read."""
        if not self._commit_cycles:
            return (self._block_of.get(rip, rip),)
        start = bisect.bisect_left(self._commit_cycles, read_cycle)
        # Find the first commit of this static instruction at or after the read.
        index = start
        while index < len(self._commit_rips) and self._commit_rips[index] != rip:
            index += 1
        if index >= len(self._commit_rips):
            index = min(start, len(self._commit_rips) - 1)
        path: List[int] = []
        seen_blocks = 0
        last_block = None
        position = index
        while position < len(self._commit_rips) and seen_blocks < self.path_depth:
            block = self._block_of.get(self._commit_rips[position], self._commit_rips[position])
            if block != last_block:
                path.append(block)
                seen_blocks += 1
                last_block = block
            position += 1
        return tuple(path)

    # ------------------------------------------------------------------
    def build_groups(self) -> Tuple[List[RelyzerGroup], List[int]]:
        """Group the fault list by (static reader, control path); prune non-ACE faults."""
        masked_ids: List[int] = []
        grouped: Dict[Tuple[int, Tuple[int, ...]], List[GroupedFault]] = defaultdict(list)
        for fault in self.fault_list:
            # Same windowed-model-aware pruning as MeRLiN's grouping: a
            # fault is non-ACE only if every application of its window
            # misses every vulnerable interval.
            interval = first_vulnerable_interval(fault, self.intervals)
            if interval is None:
                masked_ids.append(fault.fault_id)
                continue
            if interval.rip == WRITEBACK_RIP:
                path: Tuple[int, ...] = (WRITEBACK_RIP,)
            else:
                path = self._dynamic_path(interval.rip, interval.end_cycle)
            grouped[(interval.rip, path)].append(GroupedFault(fault=fault, interval=interval))

        rng = np.random.default_rng(self.seed)
        groups: List[RelyzerGroup] = []
        for (rip, path), members in sorted(grouped.items()):
            pilot_index = int(rng.integers(0, len(members)))
            groups.append(RelyzerGroup(rip=rip, path=path, members=members,
                                       pilot=members[pilot_index].fault))
        return groups, masked_ids

    def run(self) -> RelyzerResult:
        """Inject one pilot per group and propagate its outcome.

        Pilots go through :meth:`ComprehensiveCampaign.run_shard` of the
        shared ``baseline`` when one was given, otherwise of a cold
        campaign local to this run.
        """
        groups, masked_ids = self.build_groups()
        campaign = self._baseline or ComprehensiveCampaign(self.golden, self.fault_list)
        outcomes = campaign.run_shard([group.pilot for group in groups])
        propagated = propagate(
            ((group.pilot.fault_id, group.member_fault_ids()) for group in groups),
            masked_ids,
            lambda fault_id: outcomes[fault_id].effect,
        )

        return RelyzerResult(
            benchmark_name=self.golden.program.name,
            structure_name=self.fault_list.structure.short_name,
            groups=groups,
            masked_fault_ids=masked_ids,
            initial_faults=len(self.fault_list),
            counts_final=propagated.counts_final,
            counts_after_ace=propagated.counts_after_ace,
            predicted_outcomes=propagated.predicted_outcomes,
            injections_performed=len(groups),
        )
