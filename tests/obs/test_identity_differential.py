"""Observability must never perturb identity: the differential proof.

The hard invariant of ``repro.obs`` is that it is pure measurement: run
ids, classification fingerprints and journal contents are bit-identical
with tracing/metrics on and off, for every engine.  These tests run each
engine twice — once bare, once under :func:`repro.obs.observe` — and
compare the identity-bearing artifacts, then sanity-check that the
observed leg actually measured something (so a silently dead seam can't
masquerade as a passing differential).
"""

import json

import pytest

from repro import obs
from repro.api import CampaignSpec, make_engine
from repro.cluster import ClusterEngine, journal_path
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

FAULTS = 30


def tiny_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   config=small_config(), scale=1, faults=FAULTS, seed=0,
                   method="comprehensive")
    payload.update(overrides)
    return CampaignSpec(**payload)


@pytest.mark.parametrize("engine_name", ["serial", "process", "checkpoint"])
def test_engine_identity_is_unchanged_by_observability(engine_name, tmp_path):
    spec = tiny_spec(seed=11)
    # The process engine journals and caches artifacts: keep them out of
    # the working directory.
    knobs = ({"cache_dir": str(tmp_path / "cache")}
             if engine_name == "process" else {})
    bare = make_engine(engine_name, **knobs).run([spec])[0]
    with obs.observe() as ctx:
        observed = make_engine(engine_name, **knobs).run([spec])[0]
        ctx.finalize(run_id=spec.run_id())

    assert observed.run_id == bare.run_id == spec.run_id()
    assert (observed.classification_fingerprint()
            == bare.classification_fingerprint())

    # The observed leg must have measured real work (counters merged from
    # workers where the engine fans out).
    registry = ctx.registry
    assert registry.total("repro_injections_total") == bare.comprehensive.injections
    assert registry.total("repro_campaigns_total") == 1.0
    assert registry.value("repro_faults_per_second",
                          run_id=spec.run_id()) > 0
    per_effect = sum(
        registry.value("repro_fault_classifications_total", effect=effect) or 0
        for effect in bare.comprehensive.counts
    )
    assert per_effect == bare.comprehensive.injections
    if engine_name == "checkpoint":
        assert registry.total("repro_checkpoint_restores_total") > 0
        assert registry.total("repro_checkpoint_cycles_fast_forwarded_total") > 0


def _journal_records(engine: ClusterEngine, run_id: str):
    """Parsed journal lines with the one legitimately timing-bearing field
    (the merged marker's wall clock) normalised away."""
    text = journal_path(engine.journal_dir, run_id).read_text()
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        if record.get("kind") == "merged":
            record["stats"]["wall_clock_seconds"] = 0.0
    return records


def test_cluster_identity_and_journal_are_unchanged_by_observability(tmp_path):
    spec = tiny_spec(seed=12)

    # max_workers=1 keeps shard completion (hence journal line order)
    # deterministic, so the two journals can be compared record for record.
    bare_engine = ClusterEngine(max_workers=1, shard_size=10,
                                cache_dir=tmp_path / "bare")
    bare = bare_engine.run([spec])[0]

    observed_engine = ClusterEngine(max_workers=1, shard_size=10,
                                    cache_dir=tmp_path / "observed")
    with obs.observe() as ctx:
        observed = observed_engine.run([spec])[0]
        ctx.finalize(run_id=spec.run_id())

    assert observed.run_id == bare.run_id == spec.run_id()
    assert (observed.classification_fingerprint()
            == bare.classification_fingerprint())

    bare_records = _journal_records(bare_engine, spec.run_id())
    observed_records = _journal_records(observed_engine, spec.run_id())
    assert observed_records == bare_records

    # Worker-side counters merged home: injections, shard wall times,
    # journal appends (header + one line per shard + merged marker).
    registry = ctx.registry
    assert registry.total("repro_injections_total") == FAULTS
    executed = sum(record.get("kind") == "shard" for record in observed_records)
    assert registry.total("repro_shards_executed_total") == executed
    stats = registry.histogram_stats("repro_shard_wall_seconds")
    assert stats is not None and stats[1] == executed
    assert registry.total("repro_journal_appends_total") == len(observed_records)
    assert registry.value("repro_pool_queue_depth") == 0.0


def test_cluster_resume_counts_reused_shards_and_journal_repairs(tmp_path):
    """A resumed run under observability reports the reused shards and the
    torn-tail repair — without changing what the resume produces."""
    spec = tiny_spec(seed=13)
    cache = tmp_path / "cache"
    first = ClusterEngine(max_workers=1, shard_size=10, cache_dir=cache)
    with obs.observe() as first_ctx:
        outcome = first.run([spec])[0]
    shards = first_ctx.registry.total("repro_shards_executed_total")

    # Fake a kill: drop the merged marker and one shard, tear the tail.
    path = journal_path(first.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    path.write_text("".join(lines[:-1]) + '{"kind":"shard","sh')

    rerun = ClusterEngine(max_workers=1, shard_size=10, cache_dir=cache,
                          resume=True)
    with obs.observe() as ctx:
        again = rerun.run([spec])[0]
    assert again.classification_fingerprint() == outcome.classification_fingerprint()
    registry = ctx.registry
    assert registry.total("repro_journal_repairs_total") == 1.0
    assert registry.total("repro_shards_reused_total") == shards - 1
    assert registry.total("repro_shards_executed_total") == 1.0
    # Only the re-executed shard's faults were injected again.
    assert registry.total("repro_injections_total") < FAULTS


def test_store_hits_count_as_campaigns_from_store(tmp_path):
    from repro.api import ResultStore

    spec = tiny_spec(seed=14)
    store = ResultStore(tmp_path / "store")
    make_engine("serial").run([spec], store=store)
    with obs.observe() as ctx:
        make_engine("serial").run([spec], store=store)
    assert ctx.registry.total("repro_campaigns_from_store_total") == 1.0
    assert ctx.registry.total("repro_campaigns_total") == 0.0
    assert ctx.registry.total("repro_injections_total") == 0.0
