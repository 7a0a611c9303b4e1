"""ClusterEngine wiring: registry, stores, progress, failures, resume guards."""

import pytest

from repro import obs
from repro.api import CampaignSpec, ResultStore, Session, make_engine
from repro.cluster import (
    ClusterEngine,
    JournalError,
    MergeError,
    RunJournal,
    merge_shard_outcomes,
)
from repro.core.merlin import reduce_fault_list
from repro.uarch.structures import TargetStructure


def tiny_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   faults=30, scale=1, seed=0)
    payload.update(overrides)
    return CampaignSpec(**payload)


def observed_run(engine, specs, **kwargs):
    """Run ``engine`` under observability; (outcomes, metrics registry)."""
    with obs.observe() as ctx:
        outcomes = engine.run(specs, **kwargs)
    return outcomes, ctx.registry


def shard_counts(registry):
    """(executed, reused, total) shards of one observed run."""
    executed = registry.total("repro_shards_executed_total")
    reused = registry.total("repro_shards_reused_total")
    return executed, reused, executed + reused


def test_make_engine_builds_cluster(tmp_path):
    engine = make_engine("cluster", max_workers=2, shard_size=9,
                         cache_dir=str(tmp_path))
    assert isinstance(engine, ClusterEngine)
    assert engine.shard_size == 9
    assert engine.max_workers == 2
    assert not engine.resume


def test_make_engine_rejects_cluster_flags_elsewhere(tmp_path):
    with pytest.raises(ValueError, match="shard_size"):
        make_engine("serial", shard_size=10)
    with pytest.raises(ValueError, match="cache_dir"):
        make_engine("serial", cache_dir=str(tmp_path))
    with pytest.raises(ValueError, match="resume"):
        make_engine("checkpoint", resume=True)
    with pytest.raises(ValueError, match="shard_size"):
        ClusterEngine(shard_size=0)


def test_empty_batch(tmp_path):
    assert ClusterEngine(cache_dir=tmp_path).run([]) == []


def test_store_short_circuits_a_stored_campaign(tmp_path):
    spec = tiny_spec()
    store = ResultStore(tmp_path / "store")
    engine = ClusterEngine(max_workers=1, shard_size=10,
                           cache_dir=tmp_path / "cache")
    [first], metrics = observed_run(engine, [spec], store=store)
    assert metrics.total("repro_campaigns_from_store_total") == 0
    [again], metrics = observed_run(engine, [spec], store=store)
    assert metrics.total("repro_campaigns_from_store_total") == 1
    assert metrics.total("repro_shards_executed_total") == 0
    assert again.to_dict() == first.to_dict()


def test_progress_counts_shards_and_finishes_complete(tmp_path):
    spec = tiny_spec(seed=1)
    events = []
    engine = ClusterEngine(max_workers=2, shard_size=5,
                           cache_dir=tmp_path / "cache")
    _, metrics = observed_run(
        engine, [spec],
        progress=lambda done, total: events.append((done, total)))
    shards = shard_counts(metrics)[2]
    assert events, "progress hook never fired"
    totals = {total for _, total in events}
    assert totals == {shards}
    dones = [done for done, _ in events]
    assert dones == sorted(dones)
    assert events[-1] == (shards, shards)


def test_worker_failure_surfaces_and_cancels(tmp_path, monkeypatch):
    """A failing shard must raise promptly, naming campaign and shard.

    The worker function is monkeypatched in the parent; the fork-started
    pool children inherit the patched module.
    """
    import repro.cluster.engine as engine_module

    def boom(*args, **kwargs):
        raise RuntimeError("injected shard failure")

    monkeypatch.setattr(engine_module, "_run_shard_worker", boom)
    engine = ClusterEngine(max_workers=1, shard_size=5,
                           cache_dir=tmp_path / "cache")
    with pytest.raises(RuntimeError, match="failed in a worker"):
        engine.run([tiny_spec(seed=2)])


def test_resume_rejects_a_mismatched_plan(tmp_path):
    spec = tiny_spec(seed=3)
    engine = ClusterEngine(max_workers=1, shard_size=5,
                           cache_dir=tmp_path / "cache")
    engine.run([spec])
    assert RunJournal.exists(engine.journal_dir, spec.run_id())
    mismatched = ClusterEngine(max_workers=1, shard_size=7,
                               cache_dir=tmp_path / "cache", resume=True)
    with pytest.raises(JournalError, match="shard plan"):
        mismatched.run([spec])


def test_rerun_without_resume_preserves_a_killed_runs_shards(tmp_path):
    """Re-running the same command after a kill must not truncate the
    journal the crash-safety story depends on."""
    import json

    from repro.cluster import journal_path

    spec = tiny_spec(seed=6)
    cache = tmp_path / "cache"
    first = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache)
    [outcome], metrics = observed_run(first, [spec])
    shards = shard_counts(metrics)[2]

    # Fake a kill: the merged marker never landed and one shard is missing.
    path = journal_path(first.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    path.write_text("".join(lines[:-1]))

    rerun = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache)
    [again], metrics = observed_run(rerun, [spec])
    assert shard_counts(metrics)[:2] == (1, shards - 1)
    assert again.classification_fingerprint() == outcome.classification_fingerprint()


def test_rerun_after_a_finished_run_starts_fresh(tmp_path):
    """A merged journal is a completed campaign: re-running re-executes."""
    spec = tiny_spec(seed=6)
    cache = tmp_path / "cache"
    ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache).run([spec])
    rerun = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache)
    _, metrics = observed_run(rerun, [spec])
    executed, reused, _ = shard_counts(metrics)
    assert reused == 0
    assert executed > 0


def test_resume_without_journal_raises(tmp_path):
    engine = ClusterEngine(max_workers=1, cache_dir=tmp_path / "cache",
                           resume=True)
    with pytest.raises(JournalError, match="nothing to resume"):
        engine.run([tiny_spec(seed=7)])


def test_resume_of_a_complete_journal_reuses_everything(tmp_path):
    spec = tiny_spec(seed=4)
    cache = tmp_path / "cache"
    first = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache)
    outcome = first.run([spec])[0]
    resumed = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache,
                            resume=True)
    [again], metrics = observed_run(resumed, [spec])
    executed, reused, total = shard_counts(metrics)
    assert executed == 0
    assert reused == total > 0
    assert again.classification_fingerprint() == outcome.classification_fingerprint()


def test_unknown_workload_fails_in_planning(tmp_path):
    engine = ClusterEngine(max_workers=1, cache_dir=tmp_path / "cache")
    with pytest.raises(KeyError):
        engine.run([CampaignSpec(workload="no-such-workload", faults=10)])


@pytest.mark.parametrize("method", ["merlin", "comprehensive"])
def test_merge_names_the_run_and_the_missing_fault(method):
    """A gap in the shard outcomes is a MergeError, not a mis-count."""
    spec = tiny_spec(method=method)
    prepared = Session().prepare(spec)
    grouped = None
    targets = list(prepared.fault_list)
    if spec.runs_merlin:
        grouped = reduce_fault_list(prepared.golden, prepared.fault_list)
        targets = [group.representative for group in grouped.groups]
    outcomes = {fault.fault_id: ("Masked", 1) for fault in targets}
    missing = targets[-1].fault_id
    del outcomes[missing]
    with pytest.raises(MergeError) as error:
        merge_shard_outcomes(prepared, grouped, outcomes)
    assert spec.run_id() in str(error.value)
    assert f"fault #{missing};" in str(error.value)
