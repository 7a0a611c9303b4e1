"""Deterministic, checkpoint-aligned sharding of a campaign's fault list.

A :class:`FaultShard` is the cluster engine's unit of work: a contiguous,
cycle-sorted slice of one campaign's injection targets, cut so that every
shard restores from a contiguous range of golden checkpoints.  Sharding is
a pure function of (campaign run id, targets, checkpoint timeline, shard
size): the same campaign always produces the same shards with the same
content-hashed :attr:`FaultShard.shard_id`, which is what lets a resumed
run recognise the journal entries of a killed one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.faults.model import FaultSpec
from repro.uarch.checkpoint import CheckpointTimeline
from repro.uarch.structures import TargetStructure

#: Default faults per shard.  Small enough that a 2k-fault campaign spreads
#: over every worker of a small pool, large enough that the per-shard fixed
#: costs (task dispatch, cache lookup) stay negligible.
DEFAULT_SHARD_SIZE = 250


def _jsonable(value: Any) -> Any:
    """Tuples (possibly nested, as in fault payloads) to JSON arrays."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


@dataclass(frozen=True)
class FaultShard:
    """A contiguous, cycle-sorted slice of one campaign's injection targets.

    ``faults`` carries each fault's full payload
    (:meth:`~repro.faults.model.FaultSpec.to_payload`) so a worker needs
    nothing beyond the shard and the campaign spec to run it — no
    fault-list regeneration, no grouping, no model-registry lookup.
    Single-bit transients keep the seed's ``(fault_id, entry, bit,
    cycle)`` 4-tuple encoding, so their shard ids (and therefore journaled
    runs) are unchanged by the fault-model generalization; windowed and
    multi-site faults carry extended tuples.  ``campaign_run_id`` ties the
    shard to its campaign; :meth:`shard_id` content-hashes the whole thing.
    """

    campaign_run_id: str
    index: int
    structure: str
    faults: Tuple[Tuple, ...]

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def fault_ids(self) -> Tuple[int, ...]:
        return tuple(fault[0] for fault in self.faults)

    @property
    def cycle_range(self) -> Tuple[int, int]:
        """(first, last) anchor cycle covered (shard faults are cycle-sorted)."""
        return self.faults[0][3], self.faults[-1][3]

    def shard_id(self) -> str:
        """Deterministic content hash of this shard's identity and payload."""
        canonical = json.dumps(
            [self.campaign_run_id, self.index, self.structure,
             _jsonable(self.faults)],
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def fault_specs(self) -> List[FaultSpec]:
        """Materialise the shard's payload back into :class:`FaultSpec`s."""
        structure = TargetStructure[self.structure]
        return [
            FaultSpec.from_payload(structure, payload)
            for payload in self.faults
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign_run_id": self.campaign_run_id,
            "index": self.index,
            "structure": self.structure,
            "faults": _jsonable(self.faults),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultShard":
        # Payload tuples survive JSON as (possibly nested) lists; the
        # canonical in-memory form is nested tuples, restored here so
        # shard ids and equality are stable across the round-trip.
        def as_tuple(value: Any) -> Any:
            if isinstance(value, (list, tuple)):
                return tuple(as_tuple(item) for item in value)
            return value

        return FaultShard(
            campaign_run_id=data["campaign_run_id"],
            index=data["index"],
            structure=data["structure"],
            faults=as_tuple(data["faults"]),
        )

    def describe(self) -> str:
        first, last = self.cycle_range if self.faults else (0, 0)
        return (
            f"shard {self.shard_id()} #{self.index} of {self.campaign_run_id}: "
            f"{len(self)} faults, cycles {first}..{last}"
        )


def shard_faults(
    campaign_run_id: str,
    faults: Iterable[FaultSpec],
    timeline: Optional[CheckpointTimeline],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> List[FaultShard]:
    """Cut ``faults`` into deterministic, checkpoint-aligned shards.

    Faults are cycle-sorted (the order
    :meth:`~repro.faults.campaign.ComprehensiveCampaign.run_shard` injects
    in on the fast-forward path) and batched by shared restore checkpoint,
    ``timeline.nearest(cycle)``; the batches are packed greedily into
    shards of at most ``shard_size`` faults.  A shard boundary always
    coincides with a batch boundary unless a single batch exceeds the shard
    size, in which case the batch is split into contiguous chunks; either
    way each shard covers a contiguous checkpoint range, so a worker
    restores from a warm, monotonically advancing set of checkpoints.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    ordered = sorted(faults, key=lambda fault: (fault.cycle, fault.fault_id))

    def restore_point(fault: FaultSpec) -> Optional[int]:
        if timeline is None:
            return None
        return timeline.nearest(fault.cycle).cycle

    packed: List[List[FaultSpec]] = []
    current: List[FaultSpec] = []
    for _, group in groupby(ordered, key=restore_point):
        batch = list(group)
        if current and len(current) + len(batch) > shard_size:
            packed.append(current)
            current = []
        if len(batch) > shard_size:
            # One checkpoint's batch overflows a shard: split it into
            # contiguous chunks (they all restore from the same checkpoint).
            remaining = batch
            while len(current) + len(remaining) > shard_size:
                space = shard_size - len(current)
                packed.append(current + remaining[:space])
                current = []
                remaining = remaining[space:]
            current = current + remaining if current else list(remaining)
        else:
            current.extend(batch)
        if len(current) == shard_size:
            packed.append(current)
            current = []
    if current:
        packed.append(current)

    shards: List[FaultShard] = []
    for index, members in enumerate(packed):
        shards.append(FaultShard(
            campaign_run_id=campaign_run_id,
            index=index,
            structure=members[0].structure.name,
            faults=tuple(fault.to_payload() for fault in members),
        ))
    return shards
