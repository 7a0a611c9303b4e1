"""Pooled restore-CPU reuse across runs, shards and batches."""

from __future__ import annotations

import pytest

from repro.core.intervals import build_interval_set
from repro.core.merlin import MerlinCampaign
from repro.core.relyzer import RelyzerCampaign
from repro.faults.campaign import ComprehensiveCampaign
from repro.testing import shared_fault_list, shared_loop_golden
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure


def _campaign(use_checkpoints=False, faults=24, seed=3):
    golden = shared_loop_golden(trace=True)
    fault_list = shared_fault_list(golden, sample_size=faults, seed=seed)
    return ComprehensiveCampaign(golden, fault_list,
                                 use_checkpoints=use_checkpoints), fault_list


def test_pool_is_created_once_per_campaign():
    campaign, _ = _campaign()
    cpu_a, state_a = campaign._restore_pool()
    cpu_b, state_b = campaign._restore_pool()
    assert cpu_a is cpu_b
    assert state_a is state_b


def test_run_and_shards_share_one_pooled_cpu():
    campaign, fault_list = _campaign()
    faults = list(fault_list)
    first = campaign.run_shard(faults[:8])
    pooled_cpu = campaign._pooled_cpu
    assert pooled_cpu is not None, "shard run must build the pool"
    # Consecutive shard calls (and a full run) keep reusing the same CPU.
    second = campaign.run_shard(faults[8:16])
    assert campaign._pooled_cpu is pooled_cpu
    campaign.run()
    assert campaign._pooled_cpu is pooled_cpu
    assert set(first) | set(second) <= set(f.fault_id for f in faults)


def test_pooled_outcomes_match_unpooled_reference():
    """The pooled cold path restores the captured cycle-0 state per fault;
    outcomes must match a second campaign injecting the same list."""
    campaign, fault_list = _campaign(faults=30, seed=11)
    pooled = campaign.run()

    reference, _ = _campaign(faults=30, seed=11)
    assert reference.run().outcomes == pooled.outcomes


def test_checkpointed_campaign_reuses_pool_across_batches():
    campaign, _ = _campaign(use_checkpoints=True)
    result = campaign.run()
    pooled_cpu = campaign._pooled_cpu
    assert pooled_cpu is not None
    # Cold reference for the same faults.
    reference, _ = _campaign(use_checkpoints=False)
    assert reference.run().outcomes == result.outcomes


@pytest.fixture
def cpus_built(monkeypatch):
    """Record every OutOfOrderCpu constructed while the test runs."""
    built = []
    original = OutOfOrderCpu.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(OutOfOrderCpu, "__init__", counting_init)
    return built


def test_run_shard_reports_progress_per_injection():
    campaign, fault_list = _campaign(faults=12)
    faults = list(fault_list)[:7]
    calls = []
    outcomes = campaign.run_shard(faults, progress=lambda *call: calls.append(call))
    assert calls == [(k, 7) for k in range(1, 8)]
    assert set(outcomes) == {fault.fault_id for fault in faults}


def test_standalone_relyzer_builds_one_cpu(cpus_built):
    golden = shared_loop_golden(trace=True)
    fault_list = shared_fault_list(golden, sample_size=60, seed=5)
    intervals = build_interval_set(golden.tracer, TargetStructure.RF)
    del cpus_built[:]
    result = RelyzerCampaign(golden, fault_list, intervals).run()
    assert result.injections_performed > 1
    assert len(cpus_built) == 1


@pytest.mark.parametrize("use_checkpoints", [False, True],
                         ids=["cold", "checkpointed"])
def test_standalone_merlin_builds_one_cpu(cpus_built, use_checkpoints):
    golden = shared_loop_golden(trace=True)
    if use_checkpoints:
        golden.ensure_checkpoints()
    fault_list = shared_fault_list(golden, sample_size=60, seed=5)
    campaign = MerlinCampaign(ComprehensiveCampaign(
        golden, fault_list, use_checkpoints=use_checkpoints))
    del cpus_built[:]
    result = campaign.run()
    assert result.injections_performed > 1
    assert len(cpus_built) == 1
