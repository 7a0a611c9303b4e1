"""Graceful degradation: persistent faults surface as typed errors or
rebuild-from-scratch fallbacks, never as stack traces or dead campaigns."""

from __future__ import annotations

import pytest

from repro import cli, obs
from repro.api import CampaignSpec, ResultStore, SerialEngine
from repro.api.session import Session
from repro.api.store import StoreError, StoreUnavailableError
from repro.cluster.artifacts import ArtifactCache
from repro.cluster.journal import (
    JournalError,
    JournalWriteError,
    RunJournal,
)
from repro.cluster.shards import FaultShard
from repro.resilience import FaultFs, use_fs
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()


def spec() -> CampaignSpec:
    return CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL,
        scale=1, faults=10, seed=0, method="comprehensive",
    )


def cache_counts(registry):
    """Degradations and role="main" cache events of one observed block."""
    counts = {"degraded": registry.total("repro_artifact_cache_degraded_total")}
    for kind in ("hits", "misses", "stores", "evictions"):
        counts[kind] = registry.value(
            f"repro_artifact_cache_{kind}_total", role="main") or 0.0
    return counts


@pytest.fixture(scope="module")
def outcome():
    return SerialEngine().run([spec()])[0]


# ----------------------------------------------------------------------
# ResultStore: persistent ENOSPC -> typed StoreUnavailableError
# ----------------------------------------------------------------------

def test_persistent_enospc_raises_store_unavailable(outcome, tmp_path):
    fs = FaultFs(script={"mkstemp": ["enospc"] * 20})
    store = ResultStore(tmp_path / "store", fs=fs)
    with pytest.raises(StoreUnavailableError) as unavailable:
        store.save(outcome)
    error = unavailable.value
    assert isinstance(error, StoreError), "must render via the CLI handler"
    assert error.run_id == outcome.run_id
    assert error.attempts == store.retry.max_attempts
    assert "free disk space" in str(error)
    assert "repro resume" in str(error)


def test_transient_enospc_is_retried_through(outcome, tmp_path):
    fs = FaultFs(script={"mkstemp": ["enospc", "ok"]})
    store = ResultStore(tmp_path / "store", fs=fs)
    path = store.save(outcome)
    assert path.exists()
    assert store.get(outcome.run_id).run_id == outcome.run_id


def test_cli_renders_store_unavailable_as_one_line(tmp_path, capsys):
    argv = ["run", "--workload", "sha", "--faults", "10", "--scale", "1",
            "--method", "comprehensive", "--engine", "serial",
            "--store", str(tmp_path / "store")]
    with use_fs(FaultFs(script={"mkstemp": ["enospc"] * 50})):
        exit_code = cli.main(argv)
    captured = capsys.readouterr()
    assert exit_code == 1
    error_lines = [line for line in captured.err.splitlines() if line]
    assert len(error_lines) == 1, "one actionable line, not a stack trace"
    assert error_lines[0].startswith("repro: ")
    assert "free disk space" in error_lines[0]


# ----------------------------------------------------------------------
# ArtifactCache: unreadable dirs/artifacts degrade to rebuild-from-scratch
# ----------------------------------------------------------------------

def test_cache_degrades_when_root_is_unusable(tmp_path):
    fs = FaultFs(script={"mkdir": ["eio"] * 20})
    with obs.observe() as ctx:
        cache = ArtifactCache(tmp_path / "cache", fs=fs)
        assert cache.degraded
        assert cache.has_golden(spec()) is False
        assert cache.load_golden(spec()) is None
        path = cache.store_golden(spec(), golden=None)  # no-op, returns path
    assert not path.exists()
    assert cache_counts(ctx.registry) == {
        "degraded": 1.0, "hits": 0.0, "misses": 1.0, "stores": 0.0,
        "evictions": 0.0}


def test_cache_load_eio_is_a_degraded_miss_not_a_removal(tmp_path):
    clean = ArtifactCache(tmp_path / "cache")
    artifact = clean.golden_path(spec())
    artifact.write_bytes(b"maybe-fine-bytes")
    fs = FaultFs(script={"open_read": ["eio"]})
    cache = ArtifactCache(tmp_path / "cache", fs=fs)
    with obs.observe() as ctx:
        assert cache.load_golden(spec()) is None
    assert cache_counts(ctx.registry)["degraded"] == 1.0
    assert not cache.degraded, "one unreadable artifact is not fatal"
    assert artifact.exists(), "the bytes may be fine; EIO must not delete"


def test_cache_store_failure_is_best_effort(tmp_path, monkeypatch):
    fs = FaultFs(script={"mkstemp": ["enospc"] * 20})
    cache = ArtifactCache(tmp_path / "cache", fs=fs)
    assert not cache.degraded
    monkeypatch.setattr(cache, "_encode", lambda golden, key: {"stub": True})

    with obs.observe() as ctx:
        path = cache.store_golden(spec(), golden=object())  # must not raise
    assert not path.exists(), "persistent ENOSPC: the golden is not cached"
    counts = cache_counts(ctx.registry)
    assert counts["degraded"] == 1.0
    assert not cache.degraded, "a failed store does not poison the cache"
    assert counts["stores"] == 0.0


def test_campaign_survives_degraded_cache(tmp_path):
    reference = SerialEngine().run([spec()])[0].classification_fingerprint()
    fs = FaultFs(script={"mkdir": ["eio"] * 20})
    cache = ArtifactCache(tmp_path / "cache", fs=fs)
    assert cache.degraded
    session = Session(store=None, checkpointing=True, artifact_cache=cache)
    degraded_outcome = SerialEngine(session=session).run([spec()])[0]
    assert degraded_outcome.classification_fingerprint() == reference


# ----------------------------------------------------------------------
# RunJournal: refuses writes, never reads
# ----------------------------------------------------------------------

def make_shards(campaign_spec, count=2, size=5):
    shards = []
    for index in range(count):
        faults = tuple(
            (index * size + pos, index, pos, 10 * index + pos)
            for pos in range(size)
        )
        shards.append(FaultShard(
            campaign_run_id=campaign_spec.run_id(), index=index,
            structure="RF", faults=faults,
        ))
    return shards


def test_journal_refuses_writes_but_still_reads(tmp_path):
    campaign_spec = spec()
    shards = make_shards(campaign_spec)
    journal = RunJournal.create(tmp_path, campaign_spec, shards, shard_size=5)
    journal.record_shard(shards[0],
                         {fid: ("Masked", 100 + fid)
                          for fid in shards[0].fault_ids})

    broken_fs = FaultFs(script={"write": ["eio"] * 50})
    broken = RunJournal.load(tmp_path, campaign_spec.run_id(), fs=broken_fs)
    assert broken.shard_ids == [shard.shard_id() for shard in shards]

    with pytest.raises(JournalWriteError) as refused:
        broken.record_merged({"shards": 2})
    assert isinstance(refused.value, JournalError)

    # The failed append must not have torn the journal: a clean loader
    # still parses every record whole and sees the run as unmerged.
    reloaded = RunJournal.load(tmp_path, campaign_spec.run_id())
    assert reloaded.missing_shard_ids() == [shards[1].shard_id()]
    assert not reloaded.merged
