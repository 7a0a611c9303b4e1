"""The golden timeline's dead-cell index.

The index answers "is this cell dead at this cycle?" from the golden run
so that ``inject_fault`` can settle dead-on-arrival flips without a
restore.  It must agree with the live-CPU predicate ``_flip_sites_dead``
everywhere, and survive every way a timeline is produced: inline capture,
lazy replay and the artifact payload.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.cluster import artifacts as artifacts_module
from repro.cluster.artifacts import ArtifactCache
from repro.faults.golden import capture_golden
from repro.testing import dead_index_disagreements, small_config
from repro.uarch.checkpoint import DEFAULT_INTERVAL, CheckpointTimeline
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import (
    WORDS_PER_LINE,
    TargetStructure,
    structure_geometry,
)
from repro.workloads.registry import build_program


@pytest.mark.parametrize("workload", ["qsort", "sha", "fft", "libquantum", "gcc"])
def test_index_agrees_with_oracle_at_every_entry_and_cycle(workload):
    pairs, disagreements = dead_index_disagreements(build_program(workload, 1))
    assert pairs > 0
    assert disagreements == 0, f"{disagreements} of {pairs} pairs disagree"


def test_index_agrees_with_oracle_on_small_structures():
    """A 64-register, 16-slot, 16 KB geometry: free lists run dry."""
    pairs, disagreements = dead_index_disagreements(
        build_program("qsort", 1), small_config())
    assert pairs > 0 and disagreements == 0


@pytest.fixture(scope="module")
def inline_golden():
    return capture_golden(build_program("qsort", 1), small_config(),
                          trace=False, checkpoint_interval=DEFAULT_INTERVAL)


def all_answers(index, config, cycles):
    """Every (structure, entry, cycle) answer, one word per L1D line."""
    answers = []
    for structure in TargetStructure:
        geometry = structure_geometry(structure, config)
        step = WORDS_PER_LINE if structure is TargetStructure.L1D else 1
        for entry in range(0, geometry.num_entries, step):
            answers.append([index.dead(structure, entry, cycle) for cycle in cycles])
    return answers


def test_payload_round_trip_answers_identically(inline_golden):
    timeline = inline_golden.checkpoints
    back = CheckpointTimeline.from_payload(timeline.to_payload())
    index = timeline.dead_cells
    assert (back.dead_cells.first, back.dead_cells.last) == (index.first, index.last)
    # One boundary either side of the observed range answers "not dead".
    cycles = range(index.first - 1, index.last + 2)
    config = inline_golden.config
    assert (all_answers(back.dead_cells, config, cycles)
            == all_answers(index, config, cycles))
    assert back.dead_cells.to_payload() == index.to_payload()


def test_lazy_replay_builds_the_inline_index(inline_golden):
    lazy = capture_golden(build_program("qsort", 1), small_config(), trace=False)
    assert lazy.checkpoints is None
    replayed = lazy.ensure_checkpoints()
    assert (replayed.dead_cells.to_payload()
            == inline_golden.checkpoints.dead_cells.to_payload())


def test_index_covers_exactly_the_golden_boundaries(inline_golden):
    index = inline_golden.checkpoints.dead_cells
    assert index.first == 0
    assert index.last == inline_golden.cycles - 1


def test_unobserved_index_knows_nothing():
    timeline = CheckpointTimeline()
    back = CheckpointTimeline.from_payload(timeline.to_payload())
    for index in (timeline.dead_cells, back.dead_cells):
        assert index.first is None
        assert not index.dead(TargetStructure.RF, 40, 0)


def test_old_schema_artifact_misses_and_is_rebuilt(tmp_path, monkeypatch):
    """Timelines written before the index existed must never be served."""
    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=20)
    schema = artifacts_module.ARTIFACT_SCHEMA_VERSION
    monkeypatch.setattr(artifacts_module, "ARTIFACT_SCHEMA_VERSION", schema - 1)
    Session(checkpointing=True, artifact_cache=ArtifactCache(tmp_path)).golden(spec)
    monkeypatch.undo()

    with obs.observe() as ctx:
        golden = Session(checkpointing=True,
                         artifact_cache=ArtifactCache(tmp_path)).golden(spec)
    registry = ctx.registry
    assert registry.value("repro_artifact_cache_misses_total", role="main") == 1
    assert registry.total("repro_golden_builds_total") == 1
    assert golden.checkpoints.dead_cells.first == 0

    with obs.observe() as ctx:
        Session(checkpointing=True, artifact_cache=ArtifactCache(tmp_path)).golden(spec)
    assert ctx.registry.value("repro_artifact_cache_hits_total", role="main") == 1


def unread_answers(index, config, cycles):
    """Every (register, cycle) RF read-window answer."""
    return [[index.unread(reg, cycle) for cycle in cycles]
            for reg in range(config.num_phys_int_regs)]


def test_payload_round_trip_answers_unread_identically(inline_golden):
    index = inline_golden.checkpoints.dead_cells
    back = CheckpointTimeline.from_payload(
        inline_golden.checkpoints.to_payload()).dead_cells
    cycles = range(index.first - 1, index.last + 2)
    config = inline_golden.config
    answers = unread_answers(index, config, cycles)
    assert any(any(row) for row in answers)
    assert unread_answers(back, config, cycles) == answers


def test_lazy_replay_builds_the_inline_read_windows(inline_golden):
    lazy = capture_golden(build_program("qsort", 1), small_config(), trace=False)
    replayed = lazy.ensure_checkpoints().dead_cells
    index = inline_golden.checkpoints.dead_cells
    cycles = range(index.first, index.last + 1)
    config = inline_golden.config
    assert unread_answers(replayed, config, cycles) == unread_answers(
        index, config, cycles)


def test_an_unfinished_index_answers_no_unread_flip():
    """Read windows exist only once the run has ended."""
    program, config = build_program("qsort", 1), small_config()
    timeline = CheckpointTimeline()
    OutOfOrderCpu(program, config).run(cycle_hook=timeline.observe)
    index = timeline.dead_cells
    back = CheckpointTimeline.from_payload(timeline.to_payload()).dead_cells
    for answering in (index, back):
        assert not any(answering.unread(reg, cycle)
                       for reg in range(config.num_phys_int_regs)
                       for cycle in range(index.first, index.last + 1))


def test_schema_3_artifact_misses_and_is_rebuilt_with_read_windows(
        tmp_path, monkeypatch):
    """Timelines written before the RF read windows must never be served."""
    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=20)
    monkeypatch.setattr(artifacts_module, "ARTIFACT_SCHEMA_VERSION", 3)
    Session(checkpointing=True, artifact_cache=ArtifactCache(tmp_path)).golden(spec)
    monkeypatch.undo()

    with obs.observe() as ctx:
        golden = Session(checkpointing=True,
                         artifact_cache=ArtifactCache(tmp_path)).golden(spec)
    assert ctx.registry.value("repro_artifact_cache_misses_total", role="main") == 1
    assert ctx.registry.total("repro_golden_builds_total") == 1
    index = golden.checkpoints.dead_cells
    assert any(index.unread(reg, cycle)
               for reg in range(spec.config.num_phys_int_regs)
               for cycle in range(index.first, index.last + 1))
