"""Delta snapshots: composition exactness, thinning, payload, pooled restore.

The timeline stores one full base state plus per-checkpoint deltas built
from the components' dirty sets.  Everything here checks the same
invariant from different angles: composing the deltas must reproduce
``capture_state`` bit for bit, under thinning, serialization and pooled
partial restores alike.
"""

from __future__ import annotations

import pickle

import pytest

from repro.testing import build_call_program, build_loop_program, small_config
from repro.uarch.checkpoint import (
    CheckpointTimeline,
    DeltaState,
    capture_state,
    compose_state,
    restore_state,
)
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure

CONFIG = small_config()


def _reference_states(program, cycles):
    """Full capture_state snapshots of an untouched run at ``cycles``."""
    cpu = OutOfOrderCpu(program, CONFIG)
    captured = {}

    def hook(inner):
        if inner.cycle in cycles:
            captured[inner.cycle] = capture_state(inner)
        return None

    cpu.run(cycle_hook=hook)
    return captured


@pytest.mark.parametrize("build", [
    lambda: build_loop_program(40),
    lambda: build_call_program(40),
])
def test_composed_states_match_full_captures(build):
    program = build()
    timeline = CheckpointTimeline(interval=16, max_checkpoints=64)
    cpu = OutOfOrderCpu(program, CONFIG)
    cpu.run(cycle_hook=timeline.observe)
    assert len(timeline) > 2, "run too short to exercise deltas"
    # All records after the base must actually be deltas.
    assert all(isinstance(r, DeltaState) for r in timeline._records[1:])

    reference = _reference_states(build(), set(timeline.cycles))
    for cycle, state in zip(timeline.cycles, timeline.states()):
        assert state == reference[cycle], f"divergence at cycle {cycle}"


def test_thinning_merges_deltas_exactly():
    program = build_loop_program(40)
    # A tiny bound forces repeated thinning, including dropped-tail cases.
    timeline = CheckpointTimeline(interval=8, max_checkpoints=4)
    cpu = OutOfOrderCpu(program, CONFIG)
    cpu.run(cycle_hook=timeline.observe)
    assert timeline.interval > 8, "thinning never triggered"

    reference = _reference_states(build_loop_program(40), set(timeline.cycles))
    for cycle, state in zip(timeline.cycles, timeline.states()):
        assert state == reference[cycle], f"divergence at cycle {cycle}"


def test_nearest_returns_one_identity_per_checkpoint():
    program = build_loop_program()
    timeline = CheckpointTimeline(interval=32, max_checkpoints=16)
    OutOfOrderCpu(program, CONFIG).run(
        cycle_hook=timeline.observe)
    cycle = timeline.cycles[-1]
    assert timeline.nearest(cycle) is timeline.nearest(cycle + 5), (
        "batch scheduling and pooled restores key on state identity"
    )


def test_payload_round_trip_and_sparsity():
    program = build_loop_program()
    timeline = CheckpointTimeline(interval=32, max_checkpoints=16)
    OutOfOrderCpu(program, CONFIG).run(
        cycle_hook=timeline.observe)

    payload = timeline.to_payload()
    back = CheckpointTimeline.from_payload(payload)
    assert back.interval == timeline.interval
    assert back.cycles == timeline.cycles
    assert back.states() == timeline.states()

    # The base encoding omits default-valued (untouched, invalid) cache
    # lines; the small loop program cannot have touched the whole L1D.
    _, _, _, (base_payload, deltas), _ = payload
    field_names = tuple(
        type(timeline.states()[0]).__dataclass_fields__
    )
    num_lines, line_bytes, sparse_lines, _, _ = (
        dict(zip(field_names, base_payload))["dcache"]
    )
    assert len(sparse_lines) < num_lines
    assert line_bytes == CONFIG.cache_line_bytes

    # And the whole point: the delta payload is far smaller than storing
    # every checkpoint in full.
    full_states = timeline.states()
    full_bytes = len(pickle.dumps(full_states, protocol=pickle.HIGHEST_PROTOCOL))
    delta_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    assert delta_bytes * 2 < full_bytes


def test_compose_is_incremental():
    """compose_state applied record by record equals the memoised path."""
    program = build_loop_program()
    timeline = CheckpointTimeline(interval=64, max_checkpoints=32)
    OutOfOrderCpu(program, CONFIG).run(
        cycle_hook=timeline.observe)
    state = timeline._records[0]
    for record in timeline._records[1:]:
        state = compose_state(state, record)
    assert state == timeline.states()[-1]


def test_repeated_partial_restore_is_exact():
    """Restoring the same state object repeatedly uses the dirty-set fast
    path and must stay bit-identical to a fresh construction."""
    program = build_loop_program()
    fresh = OutOfOrderCpu(program, CONFIG)
    initial = capture_state(fresh)

    pooled = OutOfOrderCpu(program, CONFIG)
    reference = OutOfOrderCpu(program, CONFIG).run()
    results = []
    for _ in range(3):
        restore_state(pooled, initial)
        assert capture_state(pooled) == initial
        results.append(pooled.run())
    for result in results:
        assert result == reference


def test_partial_restore_with_faults_is_exact():
    """A faulty run dirties arbitrary state; the next pooled restore must
    erase every trace of it, including injected flips in quiet cells."""
    program = build_loop_program()
    pooled = OutOfOrderCpu(program, CONFIG)
    initial = capture_state(pooled)

    plans = [
        {10: [(TargetStructure.RF, 20, 7)]},
        {25: [(TargetStructure.L1D, 5, 3)]},
        {40: [(TargetStructure.SQ, 3, 60)]},
        {},
    ]
    pooled_results = []
    for plan in plans:
        pooled.fault_plan = plan
        restore_state(pooled, initial)
        pooled_results.append(pooled.run())

    for plan, pooled_result in zip(plans, pooled_results):
        fresh = OutOfOrderCpu(program, CONFIG, fault_plan=plan)
        assert fresh.run() == pooled_result


def test_moving_between_checkpoints_of_a_timeline_is_exact():
    """Restoring another checkpoint of the same timeline rewrites only the
    entries the run dirtied plus those the golden run touched between the
    two checkpoints, forwards and backwards, and must reach the full
    state bit for bit."""
    program = build_loop_program(40)
    timeline = CheckpointTimeline(interval=16, max_checkpoints=64)
    OutOfOrderCpu(program, CONFIG).run(cycle_hook=timeline.observe)
    states = timeline.states()
    assert len(states) > 4
    pooled = OutOfOrderCpu(program, CONFIG)
    pooled.fault_plan = {states[1].cycle + 3: [(TargetStructure.L1D, 5, 3)]}
    for state in (states[1], states[-2], states[2], states[-1], states[0]):
        restore_state(pooled, state, timeline)
        assert capture_state(pooled) == state
        assert pooled._restore_base is state
        pooled.run(max_cycles=state.cycle + 20)
