"""Property suite for the remote coordinator's exactly-once guarantee.

Two invariants the differential tests spot-check, hypothesis sweeps:

1. Under *arbitrary* host-death/steal/duplicate/torn schedules, every
   shard task is delivered to the journal callback exactly once — never
   dropped, never twice — as long as one host survives.
2. The order shards merge in never affects the campaign's classification
   fingerprint: real per-shard payloads, merged under seeded
   permutations, always reduce to the same outcome.

``derandomize=True`` keeps both properties seeded and reproducible in CI.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.cluster.artifacts import ArtifactCache
from repro.cluster.engine import _execute_shard
from repro.cluster.merge import merge_shard_outcomes
from repro.cluster.remote import Coordinator, validate_shard_payload
from repro.cluster.shards import FaultShard, shard_faults
from repro.cluster.transport import FakeTransport, ShardTask
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

#: The full chaos vocabulary except ``fatal`` (which aborts by contract).
ACTIONS = ["run", "run", "slow:2", "slow:5", "late:4", "late:8",
           "die", "torn", "duplicate", "fail"]


def synthetic_executor(task: ShardTask) -> dict:
    shard = FaultShard.from_dict(task.shard)
    return {
        "shard_id": shard.shard_id(),
        "outcomes": {str(fault_id): ["Masked", 100 + fault_id]
                     for fault_id in shard.fault_ids},
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    count=st.integers(min_value=1, max_value=10),
    workers=st.integers(min_value=1, max_value=4),
    schedule=st.lists(st.sampled_from(ACTIONS), max_size=16),
)
def test_every_shard_delivered_exactly_once_under_chaos(
        count, workers, schedule):
    tasks, lookup = [], {}
    for index in range(count):
        shard = FaultShard("runP", index, "RF", ((index, 0, 0, 5),))
        task = ShardTask(task_id=f"0:{shard.shard_id()}", spec={},
                         shard=shard.to_dict(), obs_enabled=False, warm_key="g")
        tasks.append(task)
        lookup[task.task_id] = shard
    transport = FakeTransport(workers=workers, schedule=schedule,
                              executor=synthetic_executor)
    coordinator = Coordinator(
        transport, lease_timeout=3.0, poll_interval=0.0,
        max_attempts=100, sleep=lambda _seconds: None,
    )
    journal: list = []
    with obs.observe() as ctx:
        coordinator.run(
            tasks,
            lambda task, payload: journal.append(task.task_id),
            validate=lambda task, payload: validate_shard_payload(
                lookup[task.task_id], payload),
        )
    assert sorted(journal) == sorted(task.task_id for task in tasks), (
        "every task must reach the journal exactly once")
    assert ctx.registry.total("repro_remote_host_shards_total") == count


@pytest.fixture(scope="module")
def merge_world(tmp_path_factory):
    """Real per-shard payloads for one campaign, computed once."""
    cache_dir = str(tmp_path_factory.mktemp("property-cache"))
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=small_config(),
        scale=1, faults=30, seed=9, method="comprehensive",
    )
    session = Session(checkpointing=True,
                      artifact_cache=ArtifactCache(cache_dir))
    prepared = session.prepare(spec)
    shards = shard_faults(spec.run_id(), list(prepared.fault_list),
                          prepared.golden.checkpoints, 7)
    payloads = [_execute_shard(spec, shard, cache_dir)
                for shard in shards]
    return prepared, payloads


def merged_fingerprint(merge_world, order) -> str:
    prepared, payloads = merge_world
    outcomes: dict = {}
    for position in order:
        for fault_id, (effect, cycles) in payloads[position]["outcomes"].items():
            outcomes[int(fault_id)] = (effect, cycles)
    outcome = merge_shard_outcomes(prepared, None, outcomes,
                                   wall_clock_seconds=0.0)
    return outcome.classification_fingerprint()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_merge_order_never_affects_fingerprint(merge_world, seed):
    reference = merged_fingerprint(
        merge_world, range(len(merge_world[1])))
    order = list(range(len(merge_world[1])))
    random.Random(seed).shuffle(order)
    assert merged_fingerprint(merge_world, order) == reference
