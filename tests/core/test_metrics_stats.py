"""Tests for homogeneity/AVF/FIT metrics, the ACE bound and the Section 4.4.5 model."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ace import ace_like_avf, ace_like_fit
from repro.core.grouping import FaultGroup, GroupedFault, GroupedFaults
from repro.core.intervals import IntervalSet, VulnerableInterval
from repro.core.metrics import (
    RAW_FIT_PER_BIT,
    classification_inaccuracy,
    coarse_homogeneity,
    fine_homogeneity,
    fit_rate,
    group_non_masking_probabilities,
    max_inaccuracy,
    perfect_group_fraction,
)
from repro.core.stats_model import (
    analyze_groups,
    compare_estimators,
    estimator_moments,
)
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.model import FaultSpec
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure, structure_geometry


def _grouped(fault_effects):
    """Build a GroupedFaults with one group per inner list of effects."""
    groups = []
    outcomes = {}
    fault_id = 0
    for index, effects in enumerate(fault_effects):
        members = []
        for effect in effects:
            interval = VulnerableInterval(TargetStructure.RF, 0, 0, 10, rip=index, upc=0)
            fault = FaultSpec(fault_id, TargetStructure.RF, 0, 0, 5)
            members.append(GroupedFault(fault=fault, interval=interval))
            outcomes[fault_id] = effect
            fault_id += 1
        groups.append(FaultGroup(rip=index, upc=0, byte=0, members=members,
                                 representative=members[0].fault))
    grouped = GroupedFaults(
        structure_name="RF",
        initial_faults=fault_id,
        masked_fault_ids=[],
        groups=groups,
    )
    return grouped, outcomes


M = FaultEffectClass.MASKED
S = FaultEffectClass.SDC
C = FaultEffectClass.CRASH


def test_perfectly_homogeneous_groups_score_one():
    grouped, outcomes = _grouped([[M, M, M], [S, S]])
    assert fine_homogeneity(grouped, outcomes) == pytest.approx(1.0)
    assert coarse_homogeneity(grouped, outcomes) == pytest.approx(1.0)
    assert perfect_group_fraction(grouped, outcomes) == pytest.approx(1.0)


def test_mixed_group_reduces_homogeneity_per_equation_1():
    grouped, outcomes = _grouped([[M, M, S, S, S]])
    # Dominant class has 3 of 5 faults.
    assert fine_homogeneity(grouped, outcomes) == pytest.approx(0.6)
    assert perfect_group_fraction(grouped, outcomes) == 0.0


def test_coarse_homogeneity_merges_non_masked_classes():
    grouped, outcomes = _grouped([[S, S, C]])
    assert fine_homogeneity(grouped, outcomes) == pytest.approx(2 / 3)
    assert coarse_homogeneity(grouped, outcomes) == pytest.approx(1.0)


def test_homogeneity_weights_by_group_size():
    grouped, outcomes = _grouped([[M] * 9, [M, S]])
    expected = (9 * 1.0 + 2 * 0.5) / 11
    assert fine_homogeneity(grouped, outcomes) == pytest.approx(expected)


def test_homogeneity_of_empty_grouping_is_one():
    grouped, outcomes = _grouped([])
    assert fine_homogeneity(grouped, outcomes) == 1.0
    assert perfect_group_fraction(grouped, outcomes) == 1.0


def test_group_non_masking_probabilities():
    grouped, outcomes = _grouped([[M, M, S, S], [S]])
    probabilities = group_non_masking_probabilities(grouped, outcomes)
    assert probabilities == [(4, 0.5), (1, 1.0)]


def test_fit_rate_formula_and_bounds():
    assert fit_rate(0.5, 1000) == pytest.approx(0.5 * RAW_FIT_PER_BIT * 1000)
    assert fit_rate(0.0, 1000) == 0.0
    with pytest.raises(ValueError):
        fit_rate(1.5, 10)
    with pytest.raises(ValueError):
        fit_rate(0.5, -1)


def test_inaccuracy_helpers():
    a = ClassificationCounts.empty()
    b = ClassificationCounts.empty()
    a.add(M, 95)
    a.add(S, 5)
    b.add(M, 90)
    b.add(S, 10)
    per_class = classification_inaccuracy(a, b)
    assert per_class["Masked"] == pytest.approx(5.0)
    assert max_inaccuracy(a, b) == pytest.approx(5.0)


def test_ace_like_avf_and_fit():
    intervals = IntervalSet(TargetStructure.RF, {
        0: [VulnerableInterval(TargetStructure.RF, 0, 0, 50, 1, 0)],
        1: [VulnerableInterval(TargetStructure.RF, 1, 10, 30, 1, 0)],
    })
    geometry = structure_geometry(TargetStructure.RF, MicroarchConfig().with_register_file(64))
    avf = ace_like_avf(intervals, geometry, total_cycles=100)
    assert avf == pytest.approx((50 + 20) / (64 * 100))
    assert ace_like_fit(intervals, geometry, 100) == pytest.approx(
        avf * RAW_FIT_PER_BIT * geometry.total_bits
    )
    with pytest.raises(ValueError):
        ace_like_avf(intervals, geometry, total_cycles=0)


def test_estimator_moments_match_section_445_formulas():
    groups = [(10, 0.0), (5, 1.0), (4, 0.5)]
    total = 100
    comprehensive = estimator_moments(total, groups, merlin=False)
    merlin = estimator_moments(total, groups, merlin=True)
    expected_mean = (10 * 0.0 + 5 * 1.0 + 4 * 0.5) / total
    assert comprehensive.mean == pytest.approx(expected_mean)
    assert merlin.mean == pytest.approx(expected_mean)
    assert comprehensive.variance == pytest.approx(4 * 0.25 / total ** 2)
    assert merlin.variance == pytest.approx(16 * 0.25 / total ** 2)
    comparison = compare_estimators(total, 81, groups)
    assert comparison.mean_difference == pytest.approx(0.0)
    assert comparison.variance_inflation == pytest.approx(4.0)
    assert comparison.average_group_size == pytest.approx(19 / 3)
    assert "mean" in comparison.describe()


def test_estimator_moments_validation():
    with pytest.raises(ValueError):
        estimator_moments(0, [(1, 0.5)], merlin=False)
    with pytest.raises(ValueError):
        estimator_moments(10, [(1, 1.5)], merlin=False)


def test_analyze_groups_uses_measured_outcomes():
    grouped, outcomes = _grouped([[M, M, S], [S, S]])
    comparison = analyze_groups(grouped, outcomes)
    assert comparison.total_faults == 5
    assert comparison.comprehensive.mean == pytest.approx(3 / 5)
    assert comparison.merlin.mean == pytest.approx(comparison.comprehensive.mean)
    assert comparison.merlin.variance >= comparison.comprehensive.variance


def test_perfectly_homogeneous_groups_add_no_variance():
    """When every p_i is 0 or 1 both estimators have zero variance."""
    comparison = compare_estimators(50, 10, [(20, 1.0), (20, 0.0)])
    assert comparison.comprehensive.variance == 0.0
    assert comparison.merlin.variance == 0.0
    assert comparison.comprehensive.orders_below_mean() == math.inf


@settings(max_examples=40)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=50),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=1, max_size=20,
))
def test_variance_inflation_bounded_by_max_group_size(groups):
    total = sum(size for size, _ in groups) + 10
    comprehensive = estimator_moments(total, groups, merlin=False)
    merlin = estimator_moments(total, groups, merlin=True)
    assert merlin.mean == pytest.approx(comprehensive.mean)
    max_size = max(size for size, _ in groups)
    assert merlin.variance <= comprehensive.variance * max_size + 1e-12
    assert merlin.variance >= comprehensive.variance - 1e-12
