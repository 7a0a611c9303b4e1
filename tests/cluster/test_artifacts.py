"""ArtifactCache: content addressing, atomicity, LRU cap, corruption."""

import pickle

import pytest

from repro import obs
from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.cluster.artifacts import ArtifactCache, golden_cache_key
from repro.testing import small_config
from repro.uarch.checkpoint import DEFAULT_INTERVAL
from repro.uarch.structures import TargetStructure
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=40)


@pytest.fixture(scope="module")
def golden(spec):
    from repro.faults.golden import capture_golden

    program = get_workload(spec.workload).build(spec.scale)
    record = capture_golden(program, spec.config, trace=True,
                            checkpoint_interval=DEFAULT_INTERVAL)
    return record


def cache_events(registry, kind):
    return registry.value(f"repro_artifact_cache_{kind}_total",
                          role="main") or 0.0


def test_key_is_stable_and_config_sensitive(spec):
    assert golden_cache_key(spec) == golden_cache_key(spec.replace(faults=999))
    assert golden_cache_key(spec) == golden_cache_key(
        spec.replace(structure=TargetStructure.SQ, seed=7, method="both")
    )
    assert golden_cache_key(spec) != golden_cache_key(spec.replace(scale=2))
    assert golden_cache_key(spec) != golden_cache_key(
        spec.replace(config=small_config().with_register_file(128))
    )


def test_key_depends_only_on_schema_simulator_workload_scale_config(
        spec, monkeypatch):
    """The key hashes exactly five fields; a new simulator version or
    artifact schema must never warm-start from an old golden."""
    import hashlib
    import json

    import repro.cluster.artifacts as artifacts_module
    from repro.api.spec import config_to_dict

    canonical = json.dumps({
        "schema": artifacts_module.ARTIFACT_SCHEMA_VERSION,
        "simulator": artifacts_module.__version__,
        "workload": spec.workload,
        "scale": spec.scale,
        "config": config_to_dict(spec.config),
    }, sort_keys=True, separators=(",", ":"))
    assert golden_cache_key(spec) == hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()[:16]

    before = golden_cache_key(spec)
    monkeypatch.setattr(artifacts_module, "__version__", "999.0.0")
    assert golden_cache_key(spec) != before
    monkeypatch.undo()
    monkeypatch.setattr(artifacts_module, "ARTIFACT_SCHEMA_VERSION", 999)
    assert golden_cache_key(spec) != before


def test_lazily_built_timeline_is_not_stored(tmp_path, spec):
    """A session that runs cold and then checkpointing replays a timeline
    for its memoised golden; that timeline is not the one the artifact key
    names, so it must not land in the cache."""
    cache = ArtifactCache(tmp_path)
    session = Session(artifact_cache=cache)
    with obs.observe() as ctx:
        cold = session.golden(spec)
        assert cold.checkpoints is None
        session.checkpointing = True
        warm = session.golden(spec)
    assert warm is cold and warm.checkpoints is not None
    assert not cache.has_golden(spec)
    assert cache_events(ctx.registry, "stores") == 0.0
    assert cache_events(ctx.registry, "misses") == 0.0, (
        "a cold session must not consult the cache either")


def test_round_trip_preserves_golden_and_timeline(tmp_path, spec, golden):
    cache = ArtifactCache(tmp_path)
    with obs.observe() as ctx:
        assert cache.load_golden(spec) is None
        cache.store_golden(spec, golden)
        loaded = cache.load_golden(spec)
    assert cache_events(ctx.registry, "misses") == 1.0
    assert cache_events(ctx.registry, "hits") == 1.0
    assert loaded.result == golden.result
    assert loaded.program.name == golden.program.name
    assert loaded.commit_log == golden.commit_log
    assert loaded.max_instructions == golden.max_instructions
    assert loaded.tracer is not None
    assert loaded.checkpoints is not None
    assert loaded.checkpoints.cycles == golden.checkpoints.cycles
    assert loaded.checkpoints.interval == golden.checkpoints.interval
    # The restored states are value-equal, not aliased.
    for left, right in zip(loaded.checkpoints.states(), golden.checkpoints.states()):
        assert left == right and left is not right


def test_store_is_atomic_no_stray_temp_files(tmp_path, spec, golden):
    cache = ArtifactCache(tmp_path)
    cache.store_golden(spec, golden)
    leftovers = [p.name for p in cache.golden_dir.iterdir()
                 if p.name.startswith(".tmp-")]
    assert leftovers == []
    assert cache.has_golden(spec)


def test_corrupt_artifact_is_a_miss_and_removed(tmp_path, spec, golden):
    cache = ArtifactCache(tmp_path)
    path = cache.store_golden(spec, golden)
    path.write_bytes(b"not a pickle")
    assert cache.load_golden(spec) is None
    assert not path.exists(), "corrupt artifact must not stay a miss forever"


def test_foreign_key_payload_rejected(tmp_path, spec, golden):
    cache = ArtifactCache(tmp_path)
    path = cache.store_golden(spec, golden)
    payload = pickle.loads(path.read_bytes())
    payload["key"] = "0" * 16
    path.write_bytes(pickle.dumps(payload))
    assert cache.load_golden(spec) is None


def test_lru_eviction_respects_cap(tmp_path, spec, golden):
    cache = ArtifactCache(tmp_path, max_bytes=None)
    cache.store_golden(spec, golden)
    size = cache.golden_path(spec).stat().st_size

    import os

    other = spec.replace(scale=2)
    capped = ArtifactCache(tmp_path, max_bytes=int(size * 1.5))
    # Make the first artifact distinctly older so LRU order is unambiguous.
    old = cache.golden_path(spec)
    stamp = old.stat().st_mtime - 60
    os.utime(old, (stamp, stamp))
    with obs.observe() as ctx:
        capped.store_golden(other, golden)
    assert cache_events(ctx.registry, "evictions") >= 1.0
    assert not capped.has_golden(spec), "least recently used artifact evicted"
    assert capped.has_golden(other)

