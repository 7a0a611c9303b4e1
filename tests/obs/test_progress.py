"""The progress(done, total) contract, asserted uniformly for all engines.

Every engine promises: ``done`` is monotonic, never exceeds ``total``,
``total`` never shrinks, and the final report says the work completed.
:class:`repro.testing.ProgressRecorder` is the shared assertion harness.
"""

import json

import pytest

from repro import obs
from repro.api import CampaignSpec, Session, make_engine
from repro.cluster import ClusterEngine, journal_path
from repro.testing import ProgressRecorder, small_config
from repro.uarch.structures import TargetStructure


def tiny_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   config=small_config(), scale=1, faults=20, seed=0,
                   method="comprehensive")
    payload.update(overrides)
    return CampaignSpec(**payload)


def shards_of_observed_run(engine, specs, **kwargs) -> float:
    """Run ``engine`` observed; the number of shards it executed."""
    with obs.observe() as ctx:
        engine.run(specs, **kwargs)
    return ctx.registry.total("repro_shards_executed_total")


@pytest.mark.parametrize("engine_name", ["serial", "checkpoint"])
def test_per_campaign_engines_report_complete_monotonic_progress(engine_name):
    specs = [tiny_spec(seed=21), tiny_spec(seed=22)]
    recorder = ProgressRecorder()
    make_engine(engine_name).run(specs, progress=recorder)
    recorder.assert_contract(expect_total=len(specs))


@pytest.mark.parametrize("engine_name", ["process", "cluster"])
def test_cluster_fresh_run_starts_at_zero_and_finishes_complete(
        engine_name, tmp_path):
    spec = tiny_spec(seed=23)
    recorder = ProgressRecorder()
    engine = make_engine(engine_name, max_workers=2, shard_size=5,
                         cache_dir=str(tmp_path / "cache"))
    shards = shards_of_observed_run(engine, [spec], progress=recorder)
    assert recorder.calls[0] == (0, shards), (
        "a fresh run must seed progress at 0/N, not jump in mid-count"
    )
    recorder.assert_contract(expect_total=shards)


def test_cluster_resume_seeds_progress_with_journaled_shards(tmp_path):
    spec = tiny_spec(seed=24)
    cache = tmp_path / "cache"
    first = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache)
    shards = shards_of_observed_run(first, [spec])

    # Fake a kill: no merged marker, one shard missing from the journal.
    path = journal_path(first.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    path.write_text("".join(lines[:-1]))

    recorder = ProgressRecorder()
    rerun = ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache,
                          resume=True)
    rerun.run([spec], progress=recorder)
    assert recorder.calls[0] == (shards - 1, shards), (
        "a resumed run's first report must already count the journaled shards"
    )
    recorder.assert_contract(expect_total=shards)


def test_cluster_store_satisfied_batch_still_reports_completion(tmp_path):
    from repro.api import ResultStore

    spec = tiny_spec(seed=25)
    store = ResultStore(tmp_path / "store")
    cache = tmp_path / "cache"
    ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache).run(
        [spec], store=store)

    recorder = ProgressRecorder()
    ClusterEngine(max_workers=1, shard_size=5, cache_dir=cache).run(
        [spec], store=store, progress=recorder)
    # One work unit: the campaign reloaded from the store.
    recorder.assert_contract(expect_total=1)


def test_both_method_progress_stays_monotonic_across_campaign_halves():
    """With method='both' the comprehensive half's counts continue from the
    MeRLiN half's instead of restarting at zero."""
    spec = tiny_spec(seed=26, method="both")
    recorder = ProgressRecorder()
    Session().run(spec, progress=recorder)
    recorder.assert_contract()
    # Both halves actually reported: the total must have grown mid-run
    # when the comprehensive half extended the MeRLiN half's plan.
    totals = sorted({total for _, total in recorder.calls})
    assert len(totals) >= 2, "expected the total to grow when the second " \
                             "campaign half started"
