"""Crash-point harness: crash at every registered point, reopen, resume.

For every crash point registered by the persistence layer, a campaign is
run under a :class:`FaultFs` armed to crash there.  :meth:`FaultFs.reopen`
then rolls the disk back to what a real ``kill -9`` could have left
(unfsynced bytes truncated, un-dirsynced renames undone), and a fresh
engine on the real filesystem re-runs the campaign.  The recovered
outcome — and the stored one — must be bit-identical (classification
fingerprint) to an undisturbed serial run.

The process engine is the cluster engine over the local pool: on
fork-start platforms its workers inherit the parent's armed FaultFs, and
the store crash fires in the coordinator that persists merged outcomes —
the same harness applies.
"""

from __future__ import annotations

import pytest

import repro.api.store  # noqa: F401  (registers store.save.* crash points)
import repro.cluster.artifacts  # noqa: F401  (cache.store.*)
import repro.cluster.journal  # noqa: F401  (journal.append.*)
from repro import obs
from repro.api import CampaignSpec, ResultStore, SerialEngine
from repro.api.engine import make_engine
from repro.cluster import ClusterEngine, RunJournal
from repro.cluster.transport import FakeTransport
from repro.resilience import FaultFs, SimulatedCrash, crash_points, use_fs
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()

ALL_POINTS = (
    "store.save.pre_replace",
    "store.save.post_replace",
    "cache.store.pre_replace",
    "cache.store.post_replace",
    "journal.append.pre_write",
    "journal.append.pre_fsync",
    "journal.append.post_fsync",
)

#: (point, hit): every point on its first hit, and the journal points
#: again mid-campaign (the 3rd append is the 2nd shard record).
CRASH_MATRIX = [(point, 1) for point in ALL_POINTS] + [
    ("journal.append.pre_write", 3),
    ("journal.append.pre_fsync", 3),
    ("journal.append.post_fsync", 3),
]


def spec() -> CampaignSpec:
    return CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL,
        scale=1, faults=40, seed=0, method="comprehensive",
    )


@pytest.fixture(scope="module")
def reference():
    return SerialEngine().run([spec()])[0].classification_fingerprint()


def test_registry_matches_harness_matrix():
    """New crash points must be added to this harness to ship."""
    assert sorted(crash_points()) == sorted(ALL_POINTS)


def crash_then_recover(tmp_path, make, point, hit, reference):
    """Run ``make()`` under an armed FaultFs, crash, reopen, re-run clean."""
    fs = FaultFs(crash_at=point, crash_on_hit=hit)
    with use_fs(fs):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulatedCrash) as crash:
            make().run([spec()], store=store)
    assert crash.value.point == point
    assert fs.crash_hits[point] == hit
    fs.reopen()  # the kill: unfsynced bytes and un-dirsynced renames gone

    recovery_store = ResultStore(tmp_path / "store")
    outcome = make().run([spec()], store=recovery_store)[0]
    assert outcome.classification_fingerprint() == reference
    stored = recovery_store.get(spec().run_id())
    assert stored.classification_fingerprint() == reference
    return outcome


# ----------------------------------------------------------------------
# Cluster engine: the full matrix.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point,hit", CRASH_MATRIX,
                         ids=[f"{p}@{h}" for p, h in CRASH_MATRIX])
def test_cluster_engine_recovers_from_every_crash_point(
        point, hit, reference, tmp_path):
    def make():
        return ClusterEngine(max_workers=2, shard_size=5,
                             cache_dir=tmp_path / "cache")

    crash_then_recover(tmp_path, make, point, hit, reference)


def test_cluster_recovery_reuses_durably_journaled_shards(reference, tmp_path):
    """A mid-campaign journal crash must not re-execute journaled shards."""
    fs = FaultFs(crash_at="journal.append.pre_write", crash_on_hit=4)
    with use_fs(fs):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulatedCrash):
            ClusterEngine(max_workers=2, shard_size=5,
                          cache_dir=tmp_path / "cache").run([spec()],
                                                            store=store)
    fs.reopen()
    recovered = ClusterEngine(max_workers=2, shard_size=5,
                              cache_dir=tmp_path / "cache")
    recovery_store = ResultStore(tmp_path / "store")
    with obs.observe() as ctx:
        outcome = recovered.run([spec()], store=recovery_store)[0]
    assert outcome.classification_fingerprint() == reference
    # Hits 1-3 were the header and two shard appends, all fsynced whole.
    assert ctx.registry.total("repro_shards_reused_total") == 2
    shards = len(RunJournal.load(recovered.journal_dir,
                                 spec().run_id()).completed)
    assert ctx.registry.total("repro_shards_executed_total") == shards - 2


# ----------------------------------------------------------------------
# Remote engine (FakeTransport): representative points on the
# coordinator's persistence path.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point,hit", [
    ("store.save.pre_replace", 1),
    ("store.save.post_replace", 1),
    ("journal.append.pre_fsync", 3),
], ids=lambda value: f"{value}" if isinstance(value, str) else "")
def test_remote_engine_recovers_via_fake_transport(
        point, hit, reference, tmp_path):
    def make():
        return ClusterEngine(
            transport=FakeTransport(workers=3, schedule=[]),
            shard_size=5, cache_dir=tmp_path / "cache", lease_timeout=4.0,
        )

    crash_then_recover(tmp_path, make, point, hit, reference)


# ----------------------------------------------------------------------
# Serial and checkpoint engines: the store is their only durable write.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ["serial", "checkpoint"])
@pytest.mark.parametrize("point", ["store.save.pre_replace",
                                   "store.save.post_replace"])
def test_in_process_engines_recover_from_store_crashes(
        engine_name, point, reference, tmp_path):
    def make():
        return make_engine(engine_name)

    crash_then_recover(tmp_path, make, point, 1, reference)


@pytest.mark.parametrize("point", ["store.save.pre_replace",
                                   "store.save.post_replace"])
def test_process_engine_recovers_from_store_crashes(
        point, reference, tmp_path):
    """Pool workers fork the parent's FaultFs while the armed store crash
    fires in the coordinator — recovery must still converge on the serial
    fingerprint."""
    cache_dir = str(tmp_path / "cache")
    fs = FaultFs(crash_at=point)
    with use_fs(fs):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SimulatedCrash):
            make_engine("process", max_workers=2, cache_dir=cache_dir).run(
                [spec()], store=store)
    fs.reopen()
    recovery_store = ResultStore(tmp_path / "store")
    outcome = make_engine("process", max_workers=2, cache_dir=cache_dir).run(
        [spec()], store=recovery_store)[0]
    assert outcome.classification_fingerprint() == reference
    assert recovery_store.get(
        spec().run_id()).classification_fingerprint() == reference
