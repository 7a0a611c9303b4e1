"""RunJournal: append-only records, torn-line tolerance, plan validation."""

import json

import pytest

from repro.api.spec import CampaignSpec
from repro.cluster.journal import JournalError, RunJournal, journal_path
from repro.cluster.shards import FaultShard
from repro.uarch.structures import TargetStructure


def make_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   faults=40, scale=1)
    payload.update(overrides)
    return CampaignSpec(**payload)


def make_shards(spec, count=3, size=4):
    shards = []
    for index in range(count):
        faults = tuple(
            (index * size + pos, index, pos, 10 * index + pos)
            for pos in range(size)
        )
        shards.append(FaultShard(
            campaign_run_id=spec.run_id(), index=index,
            structure="RF", faults=faults,
        ))
    return shards


def outcomes_for(shard):
    return {fid: ("Masked", 100 + fid) for fid in shard.fault_ids}


def test_create_record_load_round_trip(tmp_path):
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    journal.record_shard(shards[0], outcomes_for(shards[0]))
    journal.record_shard(shards[2], outcomes_for(shards[2]))

    loaded = RunJournal.load(tmp_path, spec.run_id())
    assert loaded.spec() == spec
    assert loaded.shard_size == 4
    assert loaded.shard_ids == [s.shard_id() for s in shards]
    assert loaded.missing_shard_ids() == [shards[1].shard_id()]
    assert loaded.completed[shards[0].shard_id()] == outcomes_for(shards[0])
    assert not loaded.merged

    loaded.record_merged({"shards": 3})
    assert RunJournal.load(tmp_path, spec.run_id()).merged


def test_create_truncates_a_previous_journal(tmp_path):
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    journal.record_shard(shards[0], outcomes_for(shards[0]))
    fresh = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    assert fresh.completed == {}
    assert RunJournal.load(tmp_path, spec.run_id()).completed == {}


def test_torn_trailing_line_is_tolerated(tmp_path):
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    journal.record_shard(shards[0], outcomes_for(shards[0]))
    path = journal_path(tmp_path, spec.run_id())
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"kind":"shard","shard_id":"tor')  # killed mid-append
    loaded = RunJournal.load(tmp_path, spec.run_id())
    assert set(loaded.completed) == {shards[0].shard_id()}


def test_torn_line_is_truncated_so_later_appends_stay_clean(tmp_path):
    """load() must remove the torn tail: a later record_shard appends at
    EOF, and gluing onto the fragment would corrupt the journal for good."""
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    journal.record_shard(shards[0], outcomes_for(shards[0]))
    path = journal_path(tmp_path, spec.run_id())
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"kind":"shard","shard_id":"tor')

    loaded = RunJournal.load(tmp_path, spec.run_id())
    loaded.record_shard(shards[1], outcomes_for(shards[1]))
    reloaded = RunJournal.load(tmp_path, spec.run_id())
    assert set(reloaded.completed) == {s.shard_id() for s in shards[:2]}


def test_complete_final_line_missing_newline_is_repaired(tmp_path):
    """A kill exactly between record and newline must not corrupt appends."""
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    journal.record_shard(shards[0], outcomes_for(shards[0]))
    path = journal_path(tmp_path, spec.run_id())
    content = path.read_text()
    path.write_text(content.rstrip("\n"))  # strip the final terminator

    loaded = RunJournal.load(tmp_path, spec.run_id())
    assert set(loaded.completed) == {shards[0].shard_id()}
    loaded.record_shard(shards[1], outcomes_for(shards[1]))
    reloaded = RunJournal.load(tmp_path, spec.run_id())
    assert set(reloaded.completed) == {s.shard_id() for s in shards[:2]}


def test_foreign_simulator_version_rejected(tmp_path):
    spec = make_spec()
    RunJournal.create(tmp_path, spec, make_shards(spec), shard_size=4)
    path = journal_path(tmp_path, spec.run_id())
    header = json.loads(path.read_text().splitlines()[0])
    header["simulator"] = "0.0.0"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(JournalError, match="simulator version"):
        RunJournal.load(tmp_path, spec.run_id())


def test_corrupt_interior_line_raises(tmp_path):
    spec = make_spec()
    shards = make_shards(spec)
    journal = RunJournal.create(tmp_path, spec, shards, shard_size=4)
    path = journal_path(tmp_path, spec.run_id())
    content = path.read_text()
    path.write_text("garbage not json\n" + content)
    with pytest.raises(JournalError, match="corrupt journal line 1"):
        RunJournal.load(tmp_path, spec.run_id())


def test_missing_journal_and_malformed_run_id(tmp_path):
    with pytest.raises(JournalError, match="no journal"):
        RunJournal.load(tmp_path, "cafebabe0000")
    with pytest.raises(JournalError, match="malformed"):
        journal_path(tmp_path, "../escape")
    assert not RunJournal.exists(tmp_path, "cafebabe0000")


def test_schema_mismatch_raises(tmp_path):
    spec = make_spec()
    RunJournal.create(tmp_path, spec, make_shards(spec), shard_size=4)
    path = journal_path(tmp_path, spec.run_id())
    header = json.loads(path.read_text().splitlines()[0])
    header["schema"] = 999
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(JournalError, match="schema"):
        RunJournal.load(tmp_path, spec.run_id())


def test_validate_plan_rejects_foreign_spec_and_plan(tmp_path):
    spec = make_spec()
    shards = make_shards(spec)
    RunJournal.create(tmp_path, spec, shards, shard_size=4)
    loaded = RunJournal.load(tmp_path, spec.run_id())
    loaded.validate_plan(spec, shards)  # the journaled plan passes

    with pytest.raises(JournalError, match="different spec"):
        loaded.validate_plan(make_spec(seed=9), shards)
    with pytest.raises(JournalError, match="shard plan"):
        loaded.validate_plan(spec, shards[:-1])
