"""The golden checkpoint timeline: one policy, based at cycle 0.

Every restore point of a fast-forwarded run comes from the golden
timeline, so the timeline must hold exactly the states an untraced run
passes through (read logs, which only the tracer reads, are not part of
a snapshot), a lazy replay must rebuild the inline timeline, and every
cycle of the run must have a restore point at or before it.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.faults.model import FaultList, FaultSpec
from repro.testing import small_config, timeline_disagreements
from repro.uarch.checkpoint import DEFAULT_INTERVAL
from repro.uarch.structures import TargetStructure, structure_geometry
from repro.workloads.registry import build_program

WORKLOADS = ("qsort", "sha", "fft", "libquantum", "gcc")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timeline_agrees_with_untraced_replay(workload):
    pairs, disagreements = timeline_disagreements(build_program(workload, 1))
    assert pairs > 1
    assert disagreements == 0, f"{disagreements} of {pairs} pairs disagree"


@lru_cache(maxsize=None)
def inline_golden(workload):
    return capture_golden(build_program(workload, 1), small_config(),
                          trace=False, checkpoint_interval=DEFAULT_INTERVAL)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(workload=st.sampled_from(WORKLOADS), fraction=st.floats(0, 1))
def test_every_cycle_has_a_restore_point(workload, fraction):
    golden = inline_golden(workload)
    cycle = round(fraction * golden.cycles)
    checkpoint = golden.checkpoints.nearest(cycle)
    assert checkpoint is not None
    assert checkpoint.cycle <= cycle


@settings(derandomize=True, max_examples=40, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       structure=st.sampled_from(list(TargetStructure)),
       data=st.data())
def test_faults_before_the_second_checkpoint_restore_the_base(
        workload, structure, data):
    golden = inline_golden(workload)
    timeline = golden.checkpoints
    geometry = structure_geometry(structure, golden.config)
    fault = FaultSpec(
        0, structure,
        entry=data.draw(st.integers(0, geometry.num_entries - 1)),
        bit=data.draw(st.integers(0, geometry.bits_per_entry - 1)),
        cycle=data.draw(st.integers(0, timeline.cycles[1] - 1)),
    )
    campaign = ComprehensiveCampaign(golden, FaultList(structure, [fault]),
                                     use_checkpoints=True)
    cpu, _ = campaign._restore_pool()
    restored = []
    restore = cpu.restore

    def recording_restore(state, *args):
        restored.append(state)
        restore(state, *args)

    cpu.restore = recording_restore

    with obs.observe() as ctx:
        campaign.run_fault(fault)
    index = timeline.dead_cells
    if index.masked_reason(fault) is not None:
        assert restored == []
    else:
        # The base, unless the flipped cell is first read past a later
        # checkpoint: the run then starts there, with the flip deferred.
        read = index.next_read(structure, fault.entry, fault.cycle)
        first = timeline.nearest(read)
        assert restored[0] is (first if first.cycle > fault.cycle
                               else timeline.state_at(0))
    # As before, a cycle-0 restore is not a fast-forward.
    assert ctx.registry.total("repro_checkpoint_restores_total") == sum(
        1 for state in restored if state.cycle)
