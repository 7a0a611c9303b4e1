"""Checkpoint subsystem: snapshot/restore exactness, timeline, early exit."""

from __future__ import annotations

import pickle

import pytest

from repro.faults.model import FaultSpec
from repro.testing import build_call_program, build_loop_program, small_config
from repro.uarch.checkpoint import (
    CheckpointTimeline,
    ValueSkip,
    capture_state,
    clone_result,
    make_reconvergence_hook,
    restore_state,
)
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure
from repro.uarch.trace import AccessTracer


CONFIG = small_config()


def fresh_cpu(program=None, config=None, **kwargs):
    return OutOfOrderCpu(program or build_loop_program(), config or CONFIG, **kwargs)


# ----------------------------------------------------------------------
# Whole-CPU snapshot/restore
# ----------------------------------------------------------------------
def test_snapshot_restore_round_trip_is_exact():
    cpu = fresh_cpu()
    states = {}

    def hook(inner):
        if inner.cycle in (0, 37, 120):
            states[inner.cycle] = capture_state(inner)
        return None

    reference = cpu.run(cycle_hook=hook)
    assert sorted(states) == [0, 37, 120]

    for cycle, state in states.items():
        restored = fresh_cpu()
        restore_state(restored, state)
        # Snapshotting the restored CPU reproduces the state exactly...
        assert capture_state(restored) == state
        # ...and resuming it reproduces the reference run bit for bit.
        assert restored.run() == reference


def test_restore_into_a_tracing_cpu_fails_closed():
    """Snapshots carry no structure-read logs, so a traced run after a
    restore would commit an incomplete access trace."""
    cpu = fresh_cpu()
    for _ in range(40):
        cpu._step()
    state = capture_state(cpu)
    traced = fresh_cpu(tracer=AccessTracer(enabled=True))
    with pytest.raises(ValueError, match="tracing"):
        restore_state(traced, state)
    with pytest.raises(ValueError, match="tracing"):
        traced.restore(state)


def test_snapshot_method_aliases_module_functions():
    cpu = fresh_cpu()
    for _ in range(50):
        cpu._step()
    state = cpu.snapshot()
    other = fresh_cpu()
    other.restore(state)
    assert other.snapshot() == state
    assert other.cycle == cpu.cycle


def test_restored_cpu_is_independent_of_the_source():
    cpu = fresh_cpu()
    for _ in range(60):
        cpu._step()
    state = capture_state(cpu)
    first = fresh_cpu()
    restore_state(first, state)
    first.run()
    # Running one restored CPU must not corrupt the checkpoint.
    second = fresh_cpu()
    restore_state(second, state)
    assert capture_state(second) == state


def test_mid_run_restore_preserves_pending_fault_plan():
    program = build_loop_program()
    golden_cpu = fresh_cpu(program)
    state = {}

    def hook(inner):
        if inner.cycle == 40 and not state:
            state["at40"] = capture_state(inner)
        return None

    golden = golden_cpu.run(cycle_hook=hook)

    flip = (TargetStructure.RF, 3, 60)
    cold = fresh_cpu(program, fault_plan={90: [flip]}).run()
    warm_cpu = fresh_cpu(program, fault_plan={90: [flip]})
    restore_state(warm_cpu, state["at40"])
    warm = warm_cpu.run()
    assert warm == cold
    # Sanity: the flip plan was actually exercised in a live machine.
    assert golden.completed and cold.cycles > 90


def test_state_equality_detects_single_bit_difference():
    cpu = fresh_cpu()
    for _ in range(80):
        cpu._step()
    before = capture_state(cpu)
    cpu.prf.flip_bit(5, 17)
    after = capture_state(cpu)
    assert before != after
    cpu.prf.flip_bit(5, 17)
    assert capture_state(cpu) == before


def test_snapshots_are_picklable():
    cpu = fresh_cpu()
    for _ in range(70):
        cpu._step()
    state = capture_state(cpu)
    revived = pickle.loads(pickle.dumps(state))
    restored = fresh_cpu()
    restore_state(restored, revived)
    assert capture_state(restored) == state


# ----------------------------------------------------------------------
# Component hooks
# ----------------------------------------------------------------------
def test_component_snapshots_round_trip_mid_run():
    cpu = fresh_cpu(build_call_program())
    for _ in range(45):
        cpu._step()
    components = [
        cpu.memory, cpu.prf, cpu.free_list, cpu.store_queue, cpu.load_queue,
        cpu.dcache, cpu.icache, cpu.branch_unit, cpu.stats,
    ]
    states = [component.snapshot() for component in components]
    for component, state in zip(components, states):
        component.restore(state)
        assert component.snapshot() == state


def test_free_list_snapshot_preserves_allocation_order():
    cpu = fresh_cpu()
    for _ in range(30):
        cpu._step()
    state = cpu.free_list.snapshot()
    expected = [cpu.free_list.allocate() for _ in range(4)]
    cpu.free_list.restore(state)
    assert [cpu.free_list.allocate() for _ in range(4)] == expected


def test_store_queue_snapshot_keeps_free_slot_latches():
    cpu = fresh_cpu()
    for _ in range(100):
        cpu._step()
    cpu.store_queue.flip_bit(7, 13)
    state = cpu.store_queue.snapshot()
    flipped = cpu.store_queue.slots[7].data
    cpu.store_queue.flip_bit(7, 13)
    cpu.store_queue.restore(state)
    assert cpu.store_queue.slots[7].data == flipped


def test_dcache_snapshot_keeps_invalid_line_data():
    cpu = fresh_cpu()
    for _ in range(50):
        cpu._step()
    # Find an invalid line, poison its (physically persistent) data array.
    target = None
    for set_index, ways in enumerate(cpu.dcache.lines):
        for way, line in enumerate(ways):
            if not line.valid:
                target = (set_index, way, line)
                break
        if target:
            break
    assert target is not None, "expected at least one invalid line"
    _, _, line = target
    line.data[3] ^= 0xFF
    state = cpu.dcache.snapshot()
    poisoned = bytes(line.data)
    line.data[3] ^= 0xFF
    cpu.dcache.restore(state)
    assert bytes(line.data) == poisoned


# ----------------------------------------------------------------------
# Timeline
# ----------------------------------------------------------------------
def test_timeline_captures_at_interval_boundaries():
    timeline = CheckpointTimeline(interval=32, max_checkpoints=64)
    cpu = fresh_cpu()
    cpu.run(cycle_hook=timeline.observe)
    assert len(timeline) > 0
    assert all(cycle % 32 == 0 for cycle in timeline.cycles)
    assert timeline.cycles == sorted(timeline.cycles)


def test_timeline_thins_itself_beyond_the_checkpoint_budget():
    timeline = CheckpointTimeline(interval=8, max_checkpoints=4)
    cpu = fresh_cpu()
    cpu.run(cycle_hook=timeline.observe)
    assert len(timeline) <= 4
    assert timeline.interval > 8
    assert all(cycle % timeline.interval == 0 for cycle in timeline.cycles)


def test_timeline_nearest_and_state_at():
    timeline = CheckpointTimeline(interval=50, max_checkpoints=64)
    cpu = fresh_cpu()
    cpu.run(cycle_hook=timeline.observe)
    # Before the second checkpoint the cycle-0 base is the restore point.
    assert timeline.nearest(0).cycle == 0
    assert timeline.nearest(49) is timeline.state_at(0)
    assert timeline.nearest(50).cycle == 50
    assert timeline.nearest(137).cycle == 100
    assert timeline.state_at(100).cycle == 100
    assert timeline.state_at(101) is None


def test_ensure_checkpoints_is_never_empty_based_at_zero_and_idempotent():
    from repro.faults.golden import capture_golden

    golden = capture_golden(build_loop_program(), CONFIG, trace=False)
    first = golden.ensure_checkpoints()
    assert len(first) > 0
    assert first.cycles[0] == 0
    # Repeat calls must not replay the golden run again.
    assert golden.ensure_checkpoints() is first


def test_timeline_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CheckpointTimeline(interval=0)
    with pytest.raises(ValueError):
        CheckpointTimeline(interval=8, max_checkpoints=0)


# ----------------------------------------------------------------------
# Reconvergence early exit
# ----------------------------------------------------------------------
def test_clone_result_is_deep():
    result = fresh_cpu().run()
    clone = clone_result(result)
    assert clone == result
    clone.output.append(999)
    clone.stats.cycles += 1
    assert clone != result


def test_reconvergence_hook_returns_golden_result_for_identical_run():
    timeline = CheckpointTimeline(interval=40, max_checkpoints=64)
    golden = fresh_cpu().run(cycle_hook=timeline.observe)

    never_read = FaultSpec(0, TargetStructure.RF, entry=0, bit=0, cycle=0)
    hook = make_reconvergence_hook(timeline, never_read, golden, ValueSkip())
    # A fault-free run IS the golden run: the hook must fire at the first
    # checkpoint after the (trivial) fault cycle.
    cpu = fresh_cpu()
    restore_state(cpu, timeline.nearest(0), timeline)
    early = cpu.run(cycle_hook=hook)
    assert early == golden
    assert early is not golden
    assert early.output is not golden.output


def test_reconvergence_hook_never_fires_for_diverged_run():
    timeline = CheckpointTimeline(interval=40, max_checkpoints=64)
    golden = fresh_cpu().run(cycle_hook=timeline.observe)

    # Low physical register: very likely live in the loop.
    fault = FaultSpec(0, TargetStructure.RF, entry=2, bit=0, cycle=120)

    fired = []
    hook = make_reconvergence_hook(timeline, fault, golden, ValueSkip())

    def spying(cpu):
        result = hook(cpu)
        if result is not None:
            fired.append(cpu.cycle)
        return result

    cpu = fresh_cpu(fault_plan=fault.plan())
    restore_state(cpu, timeline.nearest(0), timeline)
    faulty = cpu.run(cycle_hook=spying)
    if faulty.output != golden.output:
        assert not fired, "diverged run must never adopt the golden result"
