"""Tests for the MeRLiN campaign, the Relyzer baseline and the timing model."""

import pytest

from repro.core.merlin import MerlinCampaign, reduce_fault_list
from repro.core.relyzer import RelyzerCampaign
from repro.core.timing import (
    CampaignTimeEstimate,
    DETAILED_CYCLES_PER_SECOND,
    EvaluationCostModel,
    speedup,
)
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import FaultEffectClass
from repro.faults.golden import capture_golden
from repro.faults.sampling import generate_fault_list
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure, structure_geometry

from tests.conftest import build_loop_program

CONFIG = MicroarchConfig().with_register_file(64).with_store_queue(16).with_l1d(16)


@pytest.fixture(scope="module")
def golden():
    return capture_golden(build_loop_program(), CONFIG)


@pytest.fixture(scope="module")
def fault_list(golden):
    geometry = structure_geometry(TargetStructure.RF, CONFIG)
    return generate_fault_list(geometry, golden.cycles, sample_size=120, seed=11)


@pytest.fixture(scope="module")
def baseline(golden, fault_list):
    campaign = ComprehensiveCampaign(golden, fault_list)
    campaign.run()
    return campaign


@pytest.fixture(scope="module")
def merlin_result(golden, fault_list, baseline):
    return MerlinCampaign(baseline).run()


def test_merlin_covers_every_initial_fault(merlin_result, fault_list):
    assert merlin_result.counts_final.total == len(fault_list)
    assert set(merlin_result.predicted_outcomes) == {f.fault_id for f in fault_list}


def test_merlin_injects_fewer_faults_than_baseline(merlin_result, fault_list):
    assert 0 < merlin_result.injections_performed < len(fault_list)
    assert merlin_result.total_speedup > 1.0
    assert merlin_result.ace_speedup >= 1.0
    assert merlin_result.total_speedup >= merlin_result.ace_speedup


def test_merlin_ace_pruned_faults_are_predicted_masked(merlin_result):
    for fault_id in merlin_result.grouped.masked_fault_ids:
        assert merlin_result.predicted_outcomes[fault_id] is FaultEffectClass.MASKED


def test_merlin_avf_close_to_baseline(merlin_result, baseline, fault_list):
    baseline_result = baseline.run()
    assert abs(merlin_result.avf - baseline_result.avf) < 0.15
    # Per-fault agreement must be high (homogeneity of the grouping).
    agreements = sum(
        1 for fault in fault_list
        if merlin_result.predicted_outcomes[fault.fault_id]
        == baseline_result.outcomes[fault.fault_id]
    )
    assert agreements / len(fault_list) > 0.8


def test_merlin_representative_outcomes_match_baseline(merlin_result, baseline):
    cached = baseline.cached_outcomes()
    for fault_id, effect in merlin_result.representative_outcomes.items():
        assert cached[fault_id].effect is effect


def test_merlin_ace_pruning_is_sound(merlin_result, baseline, fault_list):
    """Every fault the ACE-like step prunes really is masked when injected."""
    pruned = set(merlin_result.grouped.masked_fault_ids)
    sample = [fault for fault in fault_list if fault.fault_id in pruned][:10]
    for fault in sample:
        assert baseline.run_fault(fault).effect is FaultEffectClass.MASKED


def test_merlin_without_shared_baseline_runs_standalone(golden):
    geometry = structure_geometry(TargetStructure.RF, CONFIG)
    fault_list = generate_fault_list(geometry, golden.cycles, sample_size=40, seed=5)
    result = MerlinCampaign(ComprehensiveCampaign(golden, fault_list)).run()
    assert result.counts_final.total == 40
    assert result.injections_performed <= 40


def test_merlin_requires_traced_golden(fault_list):
    record = capture_golden(build_loop_program(), CONFIG, trace=False)
    with pytest.raises(ValueError, match="traced golden run"):
        reduce_fault_list(record, fault_list)


def test_relyzer_campaign_covers_all_faults(golden, fault_list, baseline):
    from repro.core.intervals import build_interval_set

    intervals = build_interval_set(golden.tracer, TargetStructure.RF)
    relyzer = RelyzerCampaign(golden, fault_list, intervals, baseline=baseline).run()
    assert relyzer.counts_final.total == len(fault_list)
    assert relyzer.injections_performed <= relyzer.faults_after_ace
    assert relyzer.total_speedup >= 1.0
    assert set(relyzer.predicted_outcomes) == {f.fault_id for f in fault_list}
    assert 0.0 <= relyzer.single_pilot_large_rip_fraction() <= 1.0
    # Groups are keyed by (static rip, control path) and paths have bounded depth.
    for group in relyzer.groups:
        assert len(group.path) <= 5
        assert group.pilot.fault_id in group.member_fault_ids()


def test_standalone_relyzer_matches_baseline_backed_run(golden, fault_list, baseline):
    from repro.core.intervals import build_interval_set

    intervals = build_interval_set(golden.tracer, TargetStructure.RF)
    backed = RelyzerCampaign(golden, fault_list, intervals, baseline=baseline).run()
    standalone = RelyzerCampaign(golden, fault_list, intervals).run()
    assert standalone.predicted_outcomes == backed.predicted_outcomes
    assert standalone.counts_final.counts == backed.counts_final.counts
    assert standalone.injections_performed == backed.injections_performed


def test_relyzer_requires_traced_golden(fault_list):
    from repro.core.intervals import build_interval_set

    record = capture_golden(build_loop_program(), CONFIG, trace=False)
    traced = capture_golden(build_loop_program(), CONFIG, trace=True)
    intervals = build_interval_set(traced.tracer, TargetStructure.RF)
    with pytest.raises(ValueError):
        RelyzerCampaign(record, fault_list, intervals)


def test_timing_model_basic_arithmetic():
    estimate = CampaignTimeEstimate(injections=60_000, cycles_per_run=10_000_000)
    assert estimate.seconds == pytest.approx(
        60_000 * 10_000_000 / DETAILED_CYCLES_PER_SECOND
    )
    assert estimate.months == pytest.approx(estimate.seconds / (30 * 24 * 3600))
    assert estimate.years == pytest.approx(estimate.seconds / (365 * 24 * 3600))


def test_cost_model_table3_row_and_gains():
    model = EvaluationCostModel()
    row = model.table3_row(1e13, 1e3, 1e9)
    assert row["gain"] == pytest.approx(1e10)
    assert row["exhaustive_years"] > 1e9
    assert row["remaining_months"] < 6
    assert model.exhaustive_list_size(100, 10) == 1000
    assert model.exhaustive_software_list_size(10, 128) == 1280
    months = model.total_months([
        {"injections": 100, "cycles_per_run": 1e6},
        {"injections": 200, "cycles_per_run": 1e6},
    ])
    assert months == pytest.approx(model.campaign_months(300, 1e6))


def test_speedup_helper():
    assert speedup(100, 10) == 10.0
    assert speedup(100, 0) == 100.0
    assert speedup(0, 0) == 1.0
