"""Coordinator semantics under injected chaos, and remote-engine wiring.

Every scenario drives the real :class:`~repro.cluster.remote.Coordinator`
over a :class:`~repro.cluster.transport.FakeTransport` with a synthetic
(instant) executor, so the lease/steal/retry logic is tested at unit
speed; the integration suite replays the same chaos against real shard
execution.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import CampaignSpec
from repro.api.engine import ENGINES, make_engine
from repro.cluster import ClusterEngine
from repro.cluster.remote import (
    Coordinator,
    parse_hosts,
    validate_shard_payload,
)
from repro.cluster.shards import FaultShard
from repro.cluster.transport import FakeTransport, ShardTask, TcpAgentTransport
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

#: The coordinator's obs counters, by the middle of their metric names.
REMOTE_COUNTERS = ("shard_steals", "heartbeat_misses", "duplicate_results",
                   "torn_results", "transport_retries", "hosts_lost",
                   "host_shards")


def make_world(count: int):
    """``count`` synthetic single-fault shards plus their task lookup."""
    tasks, lookup = [], {}
    for index in range(count):
        shard = FaultShard("runX", index, "RF", ((index, 0, 0, 5),))
        task = ShardTask(
            task_id=f"0:{shard.shard_id()}",
            spec={}, shard=shard.to_dict(), obs_enabled=False,
            warm_key="golden-key",
        )
        tasks.append(task)
        lookup[task.task_id] = shard
    return tasks, lookup


def synthetic_executor(task: ShardTask) -> dict:
    shard = FaultShard.from_dict(task.shard)
    return {
        "shard_id": shard.shard_id(),
        "outcomes": {str(fault_id): ["Masked", 100 + fault_id]
                     for fault_id in shard.fault_ids},
        "obs": None,
    }


def remote_counts(registry) -> dict:
    """The coordinator's counters in ``registry``, by short name."""
    return {name: registry.total(f"repro_remote_{name}_total")
            for name in REMOTE_COUNTERS}


def run_chaos(count: int, workers: int, schedule, *,
              lease_timeout: float = 3.0, max_attempts: int = 5,
              protect_last_host: bool = True):
    """Drive ``count`` synthetic shards through chaos, observed.

    Returns ``(metrics registry, delivered, sleeps, tasks)``.
    """
    tasks, lookup = make_world(count)
    transport = FakeTransport(workers=workers, schedule=schedule,
                              executor=synthetic_executor,
                              protect_last_host=protect_last_host)
    sleeps: list = []
    coordinator = Coordinator(
        transport, lease_timeout=lease_timeout, poll_interval=0.0,
        max_attempts=max_attempts, sleep=sleeps.append,
        describe=lambda task: f"task {task.task_id}",
    )
    delivered: list = []
    with obs.observe() as ctx:
        coordinator.run(
            tasks,
            lambda task, payload: delivered.append((task.task_id, payload)),
            validate=lambda task, payload: validate_shard_payload(
                lookup[task.task_id], payload),
        )
    return ctx.registry, delivered, sleeps, tasks


def test_clean_run_completes_everything_exactly_once():
    metrics, delivered, sleeps, tasks = run_chaos(6, 3, [])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    counts = remote_counts(metrics)
    assert counts["host_shards"] == 6
    assert counts["shard_steals"] == 0
    assert counts["hosts_lost"] == 0
    assert counts["duplicate_results"] == 0
    assert sleeps == []


def test_host_death_mid_shard_steals_the_lease():
    metrics, delivered, _, tasks = run_chaos(4, 3, ["die"])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    counts = remote_counts(metrics)
    assert counts["hosts_lost"] == 1
    assert counts["shard_steals"] == 1
    # The lost shard was re-executed elsewhere, not dropped.
    assert counts["host_shards"] == 4


def test_silent_host_misses_heartbeat_and_late_result_is_dropped():
    # Host 0 goes silent for 8 ticks (lease expires at 3); host 1 is
    # merely slow and must NOT be stolen from; the stale delivery at
    # tick 8 arrives after the steal completed the shard elsewhere.
    metrics, delivered, _, tasks = run_chaos(
        3, 3, ["late:8", "slow:12", "run"])
    assert sorted(tid for tid, _ in delivered) == sorted(
        task.task_id for task in tasks)
    counts = remote_counts(metrics)
    assert counts["heartbeat_misses"] == 1
    assert counts["shard_steals"] == 1
    assert counts["duplicate_results"] == 1
    assert counts["host_shards"] == 3


def test_torn_result_is_requeued_not_journaled():
    metrics, delivered, _, _ = run_chaos(1, 1, ["torn"])
    counts = remote_counts(metrics)
    assert counts["torn_results"] == 1
    assert counts["host_shards"] == 1
    # Only the intact payload reached on_result.
    [(task_id, payload)] = delivered
    assert len(payload["outcomes"]) == 1


def test_duplicate_delivery_is_counted_and_dropped():
    metrics, delivered, _, _ = run_chaos(2, 2, ["duplicate"])
    assert remote_counts(metrics)["duplicate_results"] == 1
    assert len(delivered) == 2


def test_transient_failure_retries_with_backoff():
    metrics, delivered, sleeps, _ = run_chaos(1, 1, ["fail", "fail"])
    counts = remote_counts(metrics)
    assert counts["transport_retries"] == 2
    assert counts["host_shards"] == 1
    assert len(sleeps) == 2
    assert sleeps[1] > sleeps[0], "backoff must grow"


def test_shard_gives_up_after_max_attempts():
    with pytest.raises(RuntimeError, match="failed 3 times, giving up"):
        run_chaos(1, 1, ["fail"] * 10, max_attempts=3)


def test_fatal_worker_failure_aborts_the_run():
    with pytest.raises(RuntimeError, match="failed in a worker"):
        run_chaos(2, 2, ["fatal"])


def test_all_hosts_lost_raises_with_resume_hint():
    with pytest.raises(RuntimeError, match="all 2 hosts lost"):
        run_chaos(4, 2, ["die", "die"], protect_last_host=False)


def test_hosts_are_warmed_once_per_golden_identity():
    tasks, lookup = make_world(8)
    transport = FakeTransport(workers=2, executor=synthetic_executor)
    coordinator = Coordinator(transport, poll_interval=0.0,
                              sleep=lambda _seconds: None)
    coordinator.run(tasks, lambda task, payload: None)
    # 8 shards share one warm key: each of the 2 hosts warms exactly once.
    assert len(transport.warms) == len(set(transport.warms)) == 2
    assert {key for _, key in transport.warms} == {"golden-key"}


def test_coordinator_reports_chaos_to_obs():
    metrics, _, _, _ = run_chaos(3, 3, ["late:8", "duplicate", "die"])
    counts = remote_counts(metrics)
    assert counts["shard_steals"] >= 1
    assert counts["heartbeat_misses"] >= 1
    assert counts["duplicate_results"] >= 1
    assert counts["hosts_lost"] >= 1
    assert counts["host_shards"] == 3
    assert metrics.value("repro_pool_queue_depth") == 0.0


def test_rejects_duplicate_task_ids():
    tasks, _ = make_world(1)
    transport = FakeTransport(workers=1, executor=synthetic_executor)
    coordinator = Coordinator(transport)
    with pytest.raises(ValueError, match="duplicate task ids"):
        coordinator.run(tasks + tasks, lambda task, payload: None)


def test_coordinator_validates_max_attempts():
    transport = FakeTransport(workers=1, executor=synthetic_executor)
    with pytest.raises(ValueError, match="max_attempts"):
        Coordinator(transport, max_attempts=0)


# ----------------------------------------------------------------------
# Payload validation
# ----------------------------------------------------------------------
def test_validate_shard_payload_catalogue():
    shard = FaultShard("runX", 0, "RF", ((1, 0, 0, 5), (2, 0, 1, 9)))
    good = {"shard_id": shard.shard_id(),
            "outcomes": {"1": ["Masked", 10], "2": ["SDC", 11]}}
    assert validate_shard_payload(shard, good) is None
    assert "mapping" in validate_shard_payload(shard, None)
    assert "claims shard" in validate_shard_payload(
        shard, {**good, "shard_id": "somebody-else"})
    assert "no outcomes" in validate_shard_payload(
        shard, {"shard_id": shard.shard_id()})
    assert "torn" in validate_shard_payload(
        shard, {**good, "outcomes": {"1": ["Masked", 10]}})
    assert "torn" in validate_shard_payload(
        shard, {**good, "outcomes": {**good["outcomes"],
                                     "3": ["Masked", 12]}})
    assert "non-integer" in validate_shard_payload(
        shard, {**good, "outcomes": {"one": ["Masked", 10]}})
    assert "malformed" in validate_shard_payload(
        shard, {**good, "outcomes": {"1": ["Masked", 10], "2": "SDC"}})


# ----------------------------------------------------------------------
# Engine construction and CLI wiring
# ----------------------------------------------------------------------
def test_remote_is_a_registered_engine():
    assert "remote" in ENGINES
    engine = make_engine("remote", hosts="127.0.0.1:7651")
    assert isinstance(engine, ClusterEngine)
    assert isinstance(engine.transport, TcpAgentTransport)
    assert engine.transport.hosts == ["127.0.0.1:7651"]
    assert engine.progress_unit == "shards"


def test_remote_engine_requires_hosts_or_transport():
    with pytest.raises(ValueError, match="--hosts"):
        make_engine("remote")
    engine = ClusterEngine(transport=FakeTransport(workers=1))
    assert engine.transport is not None
    # The pool size belongs to the default local transport only.
    with pytest.raises(ValueError, match="explicit transport"):
        ClusterEngine(max_workers=2, transport=FakeTransport(workers=1))


def test_make_engine_rejects_misplaced_flags():
    with pytest.raises(ValueError, match="hosts does not apply"):
        make_engine("serial", hosts="127.0.0.1:7651")
    with pytest.raises(ValueError, match="workers does not apply"):
        make_engine("remote", hosts="127.0.0.1:7651", max_workers=4)
    with pytest.raises(ValueError):
        make_engine("remote")  # no hosts


def test_parse_hosts_formats():
    assert parse_hosts("10.0.0.5:7651, 10.0.0.6:7651,") == [
        "10.0.0.5:7651", "10.0.0.6:7651"]
    assert parse_hosts(["a:1", "b:2"]) == ["a:1", "b:2"]
    assert parse_hosts(None) == []
    with pytest.raises(ValueError, match="HOST:PORT"):
        parse_hosts("nocolon")
    with pytest.raises(ValueError, match="HOST:PORT"):
        parse_hosts("host:notaport")


def test_remote_engine_cache_dir_flows_into_transport(tmp_path):
    transport = FakeTransport(workers=1)
    engine = ClusterEngine(transport=transport, cache_dir=tmp_path / "cache")
    assert transport.cache_dir is None
    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=6, seed=0,
                        method="comprehensive")
    engine.run([spec])
    assert transport.cache_dir == str(tmp_path / "cache")
