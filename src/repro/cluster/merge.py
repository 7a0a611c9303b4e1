"""Merge per-shard fault outcomes into a campaign outcome, bit-identically.

The cluster engine's hosts (pool workers or remote agents) return
nothing but ``fault_id -> (effect label, simulated cycles)`` maps.  Everything else in a
:class:`~repro.api.result.CampaignOutcome` is a deterministic function of
the spec, the golden run, the structure geometry, the fault list and — for
MeRLiN — the grouping, all of which the coordinator derives locally.  The
merge therefore reproduces the outcome of
:class:`~repro.api.engine.SerialEngine` (``Session.run``) field for field
(the differential harness in
``tests/integration/test_cluster_equivalence.py`` enforces it): the
classification histograms are rebuilt by replaying the same ``add`` calls
the serial campaigns make, MeRLiN group propagation walks the same groups
in the same order, and the AVF/speedup numbers fall out of the identical
integer counts.  Wall-clock fields are the only legitimate difference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.api.result import CampaignOutcome, ComprehensiveSummary, MerlinSummary
from repro.api.spec import CampaignSpec
from repro.core.grouping import GroupedFaults
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultList
from repro.uarch.structures import StructureGeometry

#: fault_id -> (effect label, simulated cycles), the union of shard results.
FaultOutcomes = Dict[int, Tuple[str, int]]


class MergeError(Exception):
    """Shard outcomes are incomplete for the campaign being merged."""


def _require(outcomes: FaultOutcomes, fault_id: int, run_id: str) -> Tuple[str, int]:
    try:
        return outcomes[fault_id]
    except KeyError:
        raise MergeError(
            f"campaign {run_id}: no shard outcome for fault #{fault_id}; "
            "the journal is missing shards (resume the run to fill them in)"
        ) from None


def merge_shard_outcomes(
    spec: CampaignSpec,
    golden: GoldenRecord,
    geometry: StructureGeometry,
    fault_list: FaultList,
    grouped: Optional[GroupedFaults],
    outcomes: FaultOutcomes,
    wall_clock_seconds: float = 0.0,
) -> CampaignOutcome:
    """Assemble the campaign outcome from the union of shard outcomes.

    ``grouped`` must be the campaign's fault grouping when the spec runs
    MeRLiN and ``None`` otherwise; ``outcomes`` must cover every fault the
    spec's method injects (the whole fault list for comprehensive/both,
    the group representatives for merlin-only) — a gap raises
    :class:`MergeError` rather than silently mis-counting.
    """
    run_id = spec.run_id()

    merlin: Optional[MerlinSummary] = None
    if spec.runs_merlin:
        if grouped is None:
            raise MergeError(f"campaign {run_id}: merlin merge needs the grouping")
        counts_final = ClassificationCounts.empty()
        counts_after_ace = ClassificationCounts.empty()
        injections = 0
        for group in grouped.groups:
            if group.representative is None:
                continue
            effect, _ = _require(outcomes, group.representative.fault_id, run_id)
            injections += 1
            for _ in group.member_fault_ids():
                counts_final.add(effect)
                counts_after_ace.add(effect)
        for _ in grouped.masked_fault_ids:
            counts_final.add(FaultEffectClass.MASKED)
        merlin = MerlinSummary(
            counts=dict(counts_final.counts),
            counts_after_ace=dict(counts_after_ace.counts),
            initial_faults=grouped.initial_faults,
            pruned_faults=len(grouped.masked_fault_ids),
            num_groups=grouped.num_groups,
            injections=injections,
            ace_speedup=grouped.ace_speedup,
            grouping_speedup=grouped.grouping_speedup,
            total_speedup=grouped.total_speedup,
            avf=counts_final.avf(),
            wall_clock_seconds=wall_clock_seconds,
        )

    comprehensive: Optional[ComprehensiveSummary] = None
    if spec.runs_comprehensive:
        counts = ClassificationCounts.empty()
        simulated_cycles = 0
        for fault in fault_list:
            effect, cycles = _require(outcomes, fault.fault_id, run_id)
            counts.add(effect)
            simulated_cycles += cycles
        comprehensive = ComprehensiveSummary(
            counts=dict(counts.counts),
            injections=len(fault_list),
            avf=counts.avf(),
            wall_clock_seconds=wall_clock_seconds,
            simulated_cycles=simulated_cycles,
        )

    return CampaignOutcome(
        spec=spec,
        golden_cycles=golden.cycles,
        committed_instructions=golden.committed_instructions,
        total_bits=geometry.total_bits,
        merlin=merlin,
        comprehensive=comprehensive,
    )
