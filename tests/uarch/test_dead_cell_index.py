"""The golden timeline's dead-cell index.

The index answers "when does the golden run next read this cell?" from
the golden run, so that ``inject_fault`` can settle a flip that is
overwritten before it is read, or never read, without a restore, and
skip to the first read of any other.  One rule serves the RF, SQ and
L1D.  It must answer every cell the live-CPU predicate
``_flip_sites_dead`` finds dead, log the L1D's accesses in the order
they happen, and survive every way a timeline is produced: inline
capture, lazy replay and the artifact payload.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.cluster import artifacts as artifacts_module
from repro.cluster.artifacts import ArtifactCache
from repro.faults.golden import capture_golden
from repro.testing import (
    build_l1d_access_program,
    dead_index_disagreements,
    small_config,
)
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
    """Per structure, every (entry, cycle) answer, one word per L1D line."""
    answers = {}
    for structure in TargetStructure:
        geometry = structure_geometry(structure, config)
        step = WORDS_PER_LINE if structure is TargetStructure.L1D else 1
        answers[structure] = [[index.masked(structure, entry, cycle)
                               for cycle in cycles]
                              for entry in range(0, geometry.num_entries, step)]
    return answers


def test_payload_round_trip_answers_identically(inline_golden):
    timeline = inline_golden.checkpoints
    back = CheckpointTimeline.from_payload(timeline.to_payload())
    index = timeline.dead_cells
    assert (back.dead_cells.first, back.dead_cells.last) == (index.first, index.last)
    # One boundary either side of the observed range answers "not masked".
    cycles = range(index.first - 1, index.last + 2)
    config = inline_golden.config
    answers = all_answers(index, config, cycles)
    for structure, rows in answers.items():
        assert any(any(row) for row in rows), structure
    assert all_answers(back.dead_cells, config, cycles) == answers
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
        for structure in TargetStructure:
            assert not index.masked(structure, 40, 0)


def test_an_unfinished_index_answers_no_rf_flip():
    """Read windows exist only once the run has ended."""
    program, config = build_program("qsort", 1), small_config()
    timeline = CheckpointTimeline()
    OutOfOrderCpu(program, config).run(cycle_hook=timeline.observe)
    index = timeline.dead_cells
    back = CheckpointTimeline.from_payload(timeline.to_payload()).dead_cells
    for answering in (index, back):
        assert not any(answering.masked(TargetStructure.RF, reg, cycle)
                       for reg in range(config.num_phys_int_regs)
                       for cycle in range(index.first, index.last + 1))


SPEC = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                    config=small_config(), scale=1, faults=20)


def rebuilt_over(schema, tmp_path, monkeypatch):
    """The golden a session serves over an artifact written at ``schema``,
    which must miss and be rebuilt; a second session then hits."""
    monkeypatch.setattr(artifacts_module, "ARTIFACT_SCHEMA_VERSION", schema)
    Session(checkpointing=True, artifact_cache=ArtifactCache(tmp_path)).golden(SPEC)
    monkeypatch.undo()

    with obs.observe() as ctx:
        golden = Session(checkpointing=True,
                         artifact_cache=ArtifactCache(tmp_path)).golden(SPEC)
    registry = ctx.registry
    assert registry.value("repro_artifact_cache_misses_total", role="main") == 1
    assert registry.total("repro_golden_builds_total") == 1

    with obs.observe() as ctx:
        Session(checkpointing=True, artifact_cache=ArtifactCache(tmp_path)).golden(SPEC)
    assert ctx.registry.value("repro_artifact_cache_hits_total", role="main") == 1
    return golden


def rf_answers(index):
    return any(index.masked(TargetStructure.RF, reg, cycle)
               for reg in range(SPEC.config.num_phys_int_regs)
               for cycle in range(index.first, index.last + 1))


def test_old_schema_artifact_misses_and_is_rebuilt(tmp_path, monkeypatch):
    """Timelines written before the index existed must never be served."""
    golden = rebuilt_over(1, tmp_path, monkeypatch)
    assert golden.checkpoints.dead_cells.first == 0


def test_schema_3_artifact_misses_and_is_rebuilt_with_read_windows(
        tmp_path, monkeypatch):
    """Timelines written before the RF read windows must never be served."""
    golden = rebuilt_over(3, tmp_path, monkeypatch)
    assert rf_answers(golden.checkpoints.dead_cells)


def test_schema_5_artifact_misses_and_is_rebuilt_with_access_lists(
        tmp_path, monkeypatch):
    """Timelines whose index kept SQ/L1D deadness toggles and RF read
    windows must never be served: the same payload shape holds access
    codes now."""
    golden = rebuilt_over(5, tmp_path, monkeypatch)
    _, _, structures = golden.checkpoints.dead_cells.to_payload()
    accessed = {name: units for name, _, units in structures}
    assert sorted(accessed) == ["L1D", "RF", "SQ"]
    # Some L1D word is read: a code with its read bit set.
    assert any(code & 1 for _, codes in accessed["L1D"] for code in codes)


def test_schema_4_artifact_misses_and_is_rebuilt_with_one_list_per_structure(
        tmp_path, monkeypatch):
    """Timelines whose index still kept RF deadness beside the read
    windows, in a payload of another shape, must never be served."""
    golden = rebuilt_over(4, tmp_path, monkeypatch)
    index = golden.checkpoints.dead_cells
    first, last, structures = index.to_payload()
    assert sorted(name for name, _, _ in structures) == ["L1D", "RF", "SQ"]
    assert rf_answers(index)


# ----------------------------------------------------------------------
# The L1D kernel: one dirty eviction and fill, one sub-word store
# ----------------------------------------------------------------------
KERNEL_CONFIG = small_config().with_l1d(1)


def l1d_log_by_cycle(program, config):
    """A replay's L1D access codes, per cycle that logged any."""
    logs, by_cycle = {}, {}

    def hook(cpu):
        if not logs:
            logs.update(cpu.begin_access_log())
            return None
        log = logs[TargetStructure.L1D]
        if log:
            by_cycle[cpu.cycle - 1] = list(log)
            log.clear()
        return None

    OutOfOrderCpu(program, config).run(cycle_hook=hook)
    return by_cycle


def test_l1d_kernel_pins_the_logged_access_order():
    """Line A is the first line filled into set 0 (way 0).  Its dirty
    eviction reads every word (the write-back) before the fill of the
    new line overwrites them, all in one cycle, so the index holds a read
    there; the 2-byte store into A's word 2 is logged as a read of it,
    never as an overwrite, while the full-word store into word 0 is."""
    program = build_l1d_access_program()
    golden = capture_golden(program, KERNEL_CONFIG, trace=False,
                            checkpoint_interval=DEFAULT_INTERVAL)
    index = golden.checkpoints.dead_cells
    dcache = OutOfOrderCpu(program, KERNEL_CONFIG).dcache
    line_a = [dcache.entry_index(0, 0, word) for word in range(WORDS_PER_LINE)]
    write_back_then_fill = line_a + [~entry for entry in line_a]
    by_cycle = l1d_log_by_cycle(program, KERNEL_CONFIG)

    evictions = [cycle for cycle, codes in by_cycle.items()
                 if any(codes[start:start + len(write_back_then_fill)]
                        == write_back_then_fill for start in range(len(codes)))]
    assert len(evictions) == 1
    assert golden.result.stats.l1d_writebacks == 1
    for entry in line_a:
        assert index.next_read(TargetStructure.L1D, entry, evictions[0]) == evictions[0]

    full, part = line_a[0], line_a[2]
    filled = next(cycle for cycle, codes in sorted(by_cycle.items())
                  if codes[:WORDS_PER_LINE] == [~entry for entry in line_a])
    assert by_cycle[filled][WORDS_PER_LINE:] == [~full]
    stored = next(cycle for cycle in sorted(by_cycle) if cycle > filled
                  and part in by_cycle[cycle])
    assert stored < evictions[0]
    assert by_cycle[stored] == [part]
    assert index.next_read(TargetStructure.L1D, part, filled + 1) == stored
    assert not index.masked(TargetStructure.L1D, part, stored)
