"""ArtifactCache hit/miss/store/evict accounting in the metrics registry.

The cache counts every event only in the active observability context,
with a ``role`` label; these tests pin that accounting through the
cold-build, warm-load, corrupt-artifact self-heal and eviction paths.
"""

from repro import obs
from repro.api import CampaignSpec
from repro.cluster.artifacts import ArtifactCache
from repro.testing import shared_loop_golden, small_config
from repro.uarch.structures import TargetStructure


def cache_spec(**overrides):
    payload = dict(workload="sha", structure=TargetStructure.RF,
                   config=small_config(), scale=1, faults=10, seed=0)
    payload.update(overrides)
    return CampaignSpec(**payload)


def counters(registry, role="main"):
    return {
        kind: registry.value(f"repro_artifact_cache_{kind}_total",
                             role=role) or 0.0
        for kind in ("hits", "misses", "stores", "evictions")
    }


def test_cold_build_counts_miss_then_store(tmp_path):
    spec = cache_spec()
    golden = shared_loop_golden()
    with obs.observe() as ctx:
        cache = ArtifactCache(tmp_path)
        assert cache.load_golden(spec) is None
        cache.store_golden(spec, golden)
    assert counters(ctx.registry) == {
        "hits": 0.0, "misses": 1.0, "stores": 1.0, "evictions": 0.0}


def test_warm_load_counts_hit(tmp_path):
    spec = cache_spec()
    ArtifactCache(tmp_path).store_golden(spec, shared_loop_golden())
    with obs.observe() as ctx:
        loaded = ArtifactCache(tmp_path).load_golden(spec)
    assert loaded is not None
    assert loaded.cycles == shared_loop_golden().cycles
    assert counters(ctx.registry) == {
        "hits": 1.0, "misses": 0.0, "stores": 0.0, "evictions": 0.0}


def test_corrupt_artifact_counts_miss_and_self_heals(tmp_path):
    spec = cache_spec()
    cache = ArtifactCache(tmp_path)
    cache.store_golden(spec, shared_loop_golden())
    path = cache.golden_path(spec)
    path.write_bytes(b"definitely not a pickle")

    with obs.observe() as ctx:
        assert cache.load_golden(spec) is None
        assert not path.exists(), "a corrupt artifact must be removed"
        # Self-heal: the next store/load cycle works again.
        cache.store_golden(spec, shared_loop_golden())
        assert cache.load_golden(spec) is not None
    assert counters(ctx.registry) == {
        "hits": 1.0, "misses": 1.0, "stores": 1.0, "evictions": 0.0}


def test_eviction_over_cap_is_counted(tmp_path):
    with obs.observe() as ctx:
        cache = ArtifactCache(tmp_path, max_bytes=1)
        cache.store_golden(cache_spec(), shared_loop_golden())
    assert counters(ctx.registry)["stores"] == 1.0
    assert counters(ctx.registry)["evictions"] >= 1.0


def test_events_carry_the_contexts_role_label(tmp_path):
    spec = cache_spec()
    with obs.observe(role="worker") as ctx:
        cache = ArtifactCache(tmp_path)
        cache.load_golden(spec)  # miss
    assert counters(ctx.registry, role="worker")["misses"] == 1.0
    assert counters(ctx.registry, role="main")["misses"] == 0.0

