"""The MeRLiN campaign: preprocessing, fault-list reduction, injection.

:class:`MerlinCampaign` runs the three phases of Figure 2 on top of a
:class:`~repro.faults.campaign.ComprehensiveCampaign`, which owns the
golden profiling run, the initial fault list and the injection loop
(pooled restore CPU, checkpoint-batch scheduling).  Its result carries
everything the evaluation section of the paper reports: the final
classification over the *initial* fault list (representative outcomes
propagated to their groups plus the ACE-like pruned faults counted as
Masked), the classification restricted to faults that hit vulnerable
intervals (Figure 14), the speedups of the two phases (Figures 8-10, 12,
13) and the per-fault predicted outcomes used for accuracy and
homogeneity studies.

The middle of the pipeline is written once and shared by every route:
:func:`reduce_fault_list` is the reduction (intervals plus two-step
grouping) that the cluster planner and the experiment harness call too,
and :func:`propagate` spreads representative outcomes over their groups
for this campaign, for Relyzer's pilots and for the cluster merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.grouping import GroupedFaults, group_faults
from repro.core.intervals import build_interval_set
from repro.faults.campaign import ComprehensiveCampaign, ProgressCallback
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord
# Not called here (representatives inject through the campaign's
# run_shard); kept bound so call-site tracers that patch this module's
# injector name by attribute keep resolving it.
from repro.faults.injector import inject_fault  # noqa: F401
from repro.faults.model import FaultList
from repro.uarch.structures import TargetStructure


def reduce_fault_list(golden: GoldenRecord, fault_list: FaultList) -> GroupedFaults:
    """Phase 2: prune and group ``fault_list`` with the golden run's intervals."""
    if golden.tracer is None:
        raise ValueError("MeRLiN needs a traced golden run")
    intervals = build_interval_set(golden.tracer, fault_list.structure)
    return group_faults(fault_list, intervals)


@dataclass
class Propagation:
    """Representative effects spread over their groups."""

    counts_final: ClassificationCounts
    counts_after_ace: ClassificationCounts
    predicted_outcomes: Dict[int, FaultEffectClass]
    representative_outcomes: Dict[int, FaultEffectClass]


def propagate(
    groups: Iterable[Tuple[int, Sequence[int]]],
    masked_fault_ids: Iterable[int],
    effect_of: Callable[[int], FaultEffectClass],
) -> Propagation:
    """Give every member of a group its representative's effect.

    ``groups`` yields ``(representative fault id, member fault ids)`` in
    group order and ``effect_of`` looks a representative's outcome up;
    ACE-like pruned faults are predicted Masked and count only towards
    the final classification.
    """
    result = Propagation(ClassificationCounts.empty(), ClassificationCounts.empty(), {}, {})
    for representative_id, member_ids in groups:
        effect = effect_of(representative_id)
        result.representative_outcomes[representative_id] = effect
        for fault_id in member_ids:
            result.predicted_outcomes[fault_id] = effect
            result.counts_final.add(effect)
            result.counts_after_ace.add(effect)
    for fault_id in masked_fault_ids:
        result.predicted_outcomes[fault_id] = FaultEffectClass.MASKED
        result.counts_final.add(FaultEffectClass.MASKED)
    return result


@dataclass
class MerlinResult:
    """Outcome of a full MeRLiN campaign."""

    benchmark_name: str
    structure: TargetStructure
    grouped: GroupedFaults
    counts_final: ClassificationCounts
    counts_after_ace: ClassificationCounts
    predicted_outcomes: Dict[int, FaultEffectClass]
    representative_outcomes: Dict[int, FaultEffectClass]
    injections_performed: int
    wall_clock_seconds: float
    golden_cycles: int

    @staticmethod
    def assemble(golden: GoldenRecord, structure: TargetStructure,
                 grouped: GroupedFaults,
                 effect_of: Callable[[int], FaultEffectClass],
                 wall_clock_seconds: float) -> "MerlinResult":
        """The result of injecting ``grouped``'s representatives.

        ``effect_of`` maps a representative's fault id to its outcome.
        """
        propagated = propagate(
            ((group.representative.fault_id, group.member_fault_ids())
             for group in grouped.groups),
            grouped.masked_fault_ids,
            effect_of,
        )
        return MerlinResult(
            benchmark_name=golden.program.name,
            structure=structure,
            grouped=grouped,
            counts_final=propagated.counts_final,
            counts_after_ace=propagated.counts_after_ace,
            predicted_outcomes=propagated.predicted_outcomes,
            representative_outcomes=propagated.representative_outcomes,
            injections_performed=grouped.injections_required,
            wall_clock_seconds=wall_clock_seconds,
            golden_cycles=golden.cycles,
        )

    @property
    def avf(self) -> float:
        return self.counts_final.avf()

    @property
    def ace_speedup(self) -> float:
        return self.grouped.ace_speedup

    @property
    def total_speedup(self) -> float:
        return self.grouped.total_speedup

    @property
    def grouping_speedup(self) -> float:
        return self.grouped.grouping_speedup

    def describe(self) -> str:
        return (
            f"MeRLiN {self.benchmark_name}/{self.structure.short_name}: "
            f"{self.grouped.initial_faults} initial faults -> "
            f"{self.injections_performed} injections "
            f"({self.total_speedup:.1f}x), AVF={self.avf:.4f}"
        )


class MerlinCampaign:
    """Run the MeRLiN methodology over a comprehensive campaign's inputs.

    ``campaign`` supplies the golden run, the initial fault list and the
    injection loop.  When the same campaign also runs the baseline, its
    outcome memo means representatives are simulated once for both.
    """

    def __init__(self, campaign: ComprehensiveCampaign):
        self.campaign = campaign

    def run(self, progress: Optional[ProgressCallback] = None) -> MerlinResult:
        """Reduce the fault list, inject the representatives, propagate.

        ``progress`` receives ``(injections done, injections planned)``
        after each representative injection.
        """
        started = time.perf_counter()
        campaign = self.campaign
        grouped = reduce_fault_list(campaign.golden, campaign.fault_list)
        outcomes = campaign.run_shard(
            [group.representative for group in grouped.groups], progress)
        return MerlinResult.assemble(
            campaign.golden, campaign.fault_list.structure, grouped,
            lambda fault_id: outcomes[fault_id].effect,
            time.perf_counter() - started,
        )
