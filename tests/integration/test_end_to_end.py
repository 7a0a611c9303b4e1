"""End-to-end integration tests: MeRLiN vs the comprehensive baseline on real kernels.

These tests exercise the full stack — workload, out-of-order simulation,
profiling trace, ACE-like intervals, grouping, injection, classification —
and check the paper's headline claims in miniature: MeRLiN needs far fewer
injections, its classification stays close to the baseline, and its AVF
estimator agrees with the comprehensive one.
"""

import pytest

from repro.core.merlin import MerlinCampaign
from repro.core.metrics import coarse_homogeneity, fine_homogeneity, max_inaccuracy
from repro.core.stats_model import analyze_groups
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import FaultEffectClass
from repro.faults.golden import capture_golden
from repro.faults.sampling import generate_fault_list
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure, structure_geometry
from repro.workloads import get_workload

CONFIG = MicroarchConfig().with_register_file(64).with_store_queue(16).with_l1d(16)
FAULTS = 90


def _study(benchmark: str, structure: TargetStructure):
    program = get_workload(benchmark).build_for_test()
    golden = capture_golden(program, CONFIG)
    geometry = structure_geometry(structure, CONFIG)
    fault_list = generate_fault_list(geometry, golden.cycles, sample_size=FAULTS, seed=13)
    baseline = ComprehensiveCampaign(golden, fault_list)
    merlin_result = MerlinCampaign(baseline).run()
    baseline_result = baseline.run()
    return merlin_result, baseline_result


@pytest.mark.parametrize("workload,structure", [
    ("sha", TargetStructure.RF),
    ("qsort", TargetStructure.SQ),
    ("fft", TargetStructure.L1D),
])
def test_merlin_matches_baseline_on_real_kernels(workload, structure):
    merlin_result, baseline_result = _study(workload, structure)

    # Far fewer injections than the comprehensive campaign.
    assert merlin_result.injections_performed < baseline_result.injections_performed
    assert merlin_result.total_speedup > 1.5

    # Classification distributions stay close (percentile points).
    assert max_inaccuracy(baseline_result.counts, merlin_result.counts_final) <= 12.0

    # AVF agreement.
    assert abs(merlin_result.avf - baseline_result.avf) <= 0.12

    # Grouping homogeneity is high, as Figure 6/7 report.
    fine = fine_homogeneity(merlin_result.grouped, baseline_result.outcomes)
    coarse = coarse_homogeneity(merlin_result.grouped, baseline_result.outcomes)
    assert coarse >= fine >= 0.6

    # The theoretical model of Section 4.4.5 holds on measured data: identical
    # means, MeRLiN variance inflated by no more than the largest group.
    comparison = analyze_groups(merlin_result.grouped, baseline_result.outcomes)
    assert comparison.mean_difference == pytest.approx(0.0, abs=1e-12)
    largest_group = max(merlin_result.grouped.group_sizes(), default=1)
    assert comparison.variance_inflation <= largest_group + 1e-9


def test_ace_pruned_faults_are_all_masked_susan():
    """Soundness of the ACE-like step on a real kernel: pruned => Masked."""
    program = get_workload("susan_c").build_for_test()
    golden = capture_golden(program, CONFIG)
    geometry = structure_geometry(TargetStructure.RF, CONFIG)
    fault_list = generate_fault_list(geometry, golden.cycles, sample_size=60, seed=3)
    baseline = ComprehensiveCampaign(golden, fault_list)
    result = MerlinCampaign(baseline).run()
    pruned = [f for f in fault_list if f.fault_id in set(result.grouped.masked_fault_ids)]
    for fault in pruned[:15]:
        assert baseline.run_fault(fault).effect is FaultEffectClass.MASKED


def test_structure_size_sweep_changes_avf_direction():
    """Smaller register files concentrate live values, raising the AVF
    (the trend the paper's footnote 4 reports: 2.56% / 4.81% / 8.92% for
    256/128/64 registers)."""
    program = get_workload("sha").build_for_test()
    avfs = {}
    for regs in (256, 64):
        config = MicroarchConfig().with_register_file(regs)
        golden = capture_golden(program, config)
        geometry = structure_geometry(TargetStructure.RF, config)
        fault_list = generate_fault_list(geometry, golden.cycles, sample_size=80, seed=21)
        baseline = ComprehensiveCampaign(golden, fault_list)
        avfs[regs] = baseline.run().avf
    assert avfs[64] >= avfs[256]
