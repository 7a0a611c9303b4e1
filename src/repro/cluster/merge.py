"""Merge per-shard fault outcomes into a campaign outcome, bit-identically.

The cluster engine's hosts (pool workers or remote agents) return
nothing but ``fault_id -> (effect label, simulated cycles)`` maps.  Everything else in a
:class:`~repro.api.result.CampaignOutcome` is a deterministic function of
the :class:`~repro.api.session.PreparedCampaign` (spec, golden run,
structure geometry, fault list) and — for MeRLiN — the grouping, all of
which the coordinator derives locally.  The merge therefore reproduces
the outcome of :class:`~repro.api.engine.SerialEngine` (``Session.run``)
field for field (the differential harness in
``tests/integration/test_cluster_equivalence.py`` enforces it): it calls
the same propagation (:meth:`MerlinResult.assemble
<repro.core.merlin.MerlinResult.assemble>`), the same comprehensive
tally (:meth:`CampaignResult.tally
<repro.faults.campaign.CampaignResult.tally>`) and the same outcome
assembly (:meth:`PreparedCampaign.outcome
<repro.api.session.PreparedCampaign.outcome>`) as the serial campaigns,
so the AVF/speedup numbers fall out of identical integer counts.
Wall-clock fields are the only legitimate difference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.api.result import CampaignOutcome
from repro.api.session import PreparedCampaign
from repro.core.grouping import GroupedFaults
from repro.core.merlin import MerlinResult
from repro.faults.campaign import CampaignResult
from repro.faults.classification import FaultEffectClass

#: fault_id -> (effect label, simulated cycles), the union of shard results.
FaultOutcomes = Dict[int, Tuple[str, int]]


class MergeError(Exception):
    """Shard outcomes are incomplete for the campaign being merged."""


def _require(outcomes: FaultOutcomes, fault_id: int,
             run_id: str) -> Tuple[FaultEffectClass, int]:
    try:
        label, cycles = outcomes[fault_id]
    except KeyError:
        raise MergeError(
            f"campaign {run_id}: no shard outcome for fault #{fault_id}; "
            "the journal is missing shards (resume the run to fill them in)"
        ) from None
    return FaultEffectClass(label), cycles


def merge_shard_outcomes(
    prepared: PreparedCampaign,
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
    spec = prepared.spec
    run_id = spec.run_id()

    merlin: Optional[MerlinResult] = None
    if spec.runs_merlin:
        if grouped is None:
            raise MergeError(f"campaign {run_id}: merlin merge needs the grouping")
        merlin = MerlinResult.assemble(
            prepared.golden, spec.structure, grouped,
            lambda fault_id: _require(outcomes, fault_id, run_id)[0],
            wall_clock_seconds,
        )

    comprehensive: Optional[CampaignResult] = None
    if spec.runs_comprehensive:
        comprehensive = CampaignResult.tally(
            prepared.fault_list.structure.short_name,
            prepared.golden.program.name,
            ((fault.fault_id, *_require(outcomes, fault.fault_id, run_id))
             for fault in prepared.fault_list),
            wall_clock_seconds,
        )

    return prepared.outcome(merlin, comprehensive)
