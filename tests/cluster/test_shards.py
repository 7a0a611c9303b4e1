"""Sharding: deterministic, checkpoint-aligned, covering, round-trippable."""

from collections import Counter

import pytest

from repro.cluster.shards import DEFAULT_SHARD_SIZE, FaultShard, shard_faults
from repro.testing import shared_fault_list, shared_loop_golden
from repro.uarch.structures import TargetStructure


@pytest.fixture(scope="module")
def golden():
    record = shared_loop_golden(iterations=40)
    record.ensure_checkpoints()
    return record


@pytest.fixture(scope="module")
def faults(golden):
    return shared_fault_list(golden, TargetStructure.RF, sample_size=120, seed=5)


def test_shards_cover_the_fault_list_exactly(golden, faults):
    shards = shard_faults("run0", faults, golden.checkpoints, shard_size=13)
    ids = [fid for shard in shards for fid in shard.fault_ids]
    assert sorted(ids) == sorted(f.fault_id for f in faults)
    assert len(ids) == len(set(ids)), "shards must be disjoint"
    assert all(len(shard) <= 13 for shard in shards)


def test_sharding_is_deterministic(golden, faults):
    first = shard_faults("run0", faults, golden.checkpoints, shard_size=13)
    second = shard_faults("run0", list(faults), golden.checkpoints, shard_size=13)
    assert [s.shard_id() for s in first] == [s.shard_id() for s in second]
    assert [s.faults for s in first] == [s.faults for s in second]


def test_shard_id_depends_on_campaign_and_payload(golden, faults):
    shards = shard_faults("run0", faults, golden.checkpoints, shard_size=13)
    other = shard_faults("run1", faults, golden.checkpoints, shard_size=13)
    assert all(a.shard_id() != b.shard_id() for a, b in zip(shards, other))


def test_shards_are_cycle_sorted_and_contiguous(golden, faults):
    shards = shard_faults("run0", faults, golden.checkpoints, shard_size=13)
    previous_last = None
    for shard in shards:
        cycles = [fault[3] for fault in shard.faults]
        assert cycles == sorted(cycles)
        if previous_last is not None:
            assert cycles[0] >= previous_last
        previous_last = cycles[-1]


def test_shard_boundaries_align_with_checkpoint_batches(golden, faults):
    """No shard may straddle a batch boundary while batches still fit."""
    timeline = golden.checkpoints
    restore_point = {fault.fault_id: timeline.nearest(fault.cycle).cycle
                     for fault in faults}
    # A batch is the faults sharing one restore checkpoint, numbered in
    # cycle order.
    used = sorted(set(restore_point.values()))
    batch_of = {fid: used.index(cycle) for fid, cycle in restore_point.items()}
    size = max(Counter(batch_of.values()).values())
    shards = shard_faults("run0", faults, timeline, shard_size=size)
    for shard in shards:
        spanned = {batch_of[fid] for fid in shard.fault_ids}
        # Contiguous run of whole batches: spans [min..max] with no holes
        # and no batch shared with another shard.
        assert spanned == set(range(min(spanned), max(spanned) + 1))
    owners = {}
    for shard in shards:
        for fid in shard.fault_ids:
            owner = owners.setdefault(batch_of[fid], shard.index)
            assert owner == shard.index, "batch split although it fits a shard"


def test_oversized_batches_split_contiguously(golden, faults):
    shards = shard_faults("run0", faults, golden.checkpoints, shard_size=1)
    assert all(len(shard) == 1 for shard in shards)
    assert len(shards) == len(faults)


def test_round_trip_and_fault_specs(golden, faults):
    shard = shard_faults("run0", faults, golden.checkpoints, shard_size=7)[0]
    clone = FaultShard.from_dict(shard.to_dict())
    assert clone == shard
    assert clone.shard_id() == shard.shard_id()
    rebuilt = clone.fault_specs()
    by_id = faults.by_id()
    assert all(by_id[fault.fault_id] == fault for fault in rebuilt)


def test_no_timeline_yields_one_cold_batch(faults):
    shards = shard_faults("run0", faults, None, shard_size=50)
    assert sum(len(shard) for shard in shards) == len(faults)


def test_empty_targets_and_bad_size(golden):
    assert shard_faults("run0", [], golden.checkpoints) == []
    with pytest.raises(ValueError, match=">= 1"):
        shard_faults("run0", [], golden.checkpoints, shard_size=0)


def test_default_shard_size_is_sane():
    assert 1 <= DEFAULT_SHARD_SIZE <= 10_000
