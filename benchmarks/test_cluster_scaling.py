"""Cluster engine: intra-campaign scaling and artifact-cache warm starts.

Runs one 2000-fault register-file campaign through the cluster engine
three times — cold cache with 1 worker, warm cache with 1 worker, warm
cache with 4 workers — verifies all three merge to the identical outcome,
and emits ``BENCH_cluster.json`` (into ``.bench_work/``, or the
repository root under ``pytest --record-bench``) with the scaling
trajectory and the warm-vs-cold cache behaviour.

Two gates with different natures:

* the **warm-cache golden-build count must be 0** — a correctness-of-
  caching property, independent of machine load, enforced everywhere;
* the **4-worker speedup over 1 worker must be >= 2x** — a wall-clock
  property that only a machine with >= 4 usable cores can physically
  exhibit; on smaller machines (and under ``REPRO_BENCH_RELAXED=1`` on
  noisy shared CI runners) the measurement is still taken and recorded,
  but the hard floor is not asserted.
"""

from __future__ import annotations

import json
import os
import time

from conftest import gate_relaxed
from repro import obs
from repro.api import CampaignSpec
from repro.cluster import ClusterEngine
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

BENCH_NAME = "BENCH_cluster.json"

FAULTS = 2_000
WORKERS = 4
SHARD_SIZE = 125
REQUIRED_SPEEDUP = 2.0


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def test_cluster_campaign_scaling(tmp_path, bench_json_dir):
    bench_json = bench_json_dir / BENCH_NAME
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=small_config(),
        scale=1, faults=FAULTS, seed=42, method="comprehensive",
    )
    cache_dir = tmp_path / "cache"

    def leg(workers: int) -> tuple:
        engine = ClusterEngine(max_workers=workers, shard_size=SHARD_SIZE,
                               cache_dir=cache_dir)
        # Each leg runs under its own observability context: golden
        # builds, shard counts and worker-side cache accounting below all
        # come from the merged metrics registry.
        with obs.observe() as ctx:
            started = time.perf_counter()
            outcome = engine.run([spec])[0]
            elapsed = time.perf_counter() - started
            ctx.finalize(run_id=spec.run_id())
        return elapsed, outcome, ctx.registry

    def golden_builds(registry) -> int:
        return int(registry.total("repro_golden_builds_total"))

    # Cold leg: the machine has never seen this golden identity; the
    # coordinator builds it once and every worker warm-loads it.
    cold_seconds, cold_outcome, cold_metrics = leg(workers=1)
    assert golden_builds(cold_metrics) == 1

    # Warm legs: the artifact cache satisfies every golden lookup.
    warm1_seconds, warm1_outcome, warm1_metrics = leg(workers=1)
    warm4_seconds, warm4_outcome, warm4_metrics = leg(workers=WORKERS)
    assert golden_builds(warm1_metrics) == 0, "warm cache rebuilt a golden"
    assert golden_builds(warm4_metrics) == 0, "warm cache rebuilt a golden"

    # Parallelism and caching must cost nothing in fidelity.
    reference = cold_outcome.classification_fingerprint()
    assert warm1_outcome.classification_fingerprint() == reference
    assert warm4_outcome.classification_fingerprint() == reference
    assert cold_outcome.comprehensive.injections == FAULTS

    shards = int(cold_metrics.total("repro_shards_executed_total"))

    def worker_cache(registry):
        hits = registry.value(
            "repro_artifact_cache_hits_total", role="worker") or 0.0
        misses = registry.value(
            "repro_artifact_cache_misses_total", role="worker") or 0.0
        return hits, misses

    worker_hits = 0.0
    worker_lookups = 0.0
    for registry in (cold_metrics, warm1_metrics, warm4_metrics):
        hits, misses = worker_cache(registry)
        worker_hits += hits
        worker_lookups += hits + misses
    speedup = warm1_seconds / warm4_seconds
    cpus = usable_cpus()
    gate_enforced = (cpus >= WORKERS
                     and not gate_relaxed())

    payload = {
        "benchmark": "cluster_campaign_scaling",
        "workload": "sha[1]",
        "structure": TargetStructure.RF.short_name,
        "faults": FAULTS,
        "shard_size": SHARD_SIZE,
        "shards": shards,
        "usable_cpus": cpus,
        "cold_1worker_seconds": round(cold_seconds, 3),
        "warm_1worker_seconds": round(warm1_seconds, 3),
        "warm_4worker_seconds": round(warm4_seconds, 3),
        "speedup_4workers": round(speedup, 3),
        "speedup_gate": (
            f">= {REQUIRED_SPEEDUP}x enforced" if gate_enforced else
            f"not enforced ({cpus} usable cpus, "
            f"relaxed={gate_relaxed()})"
        ),
        "golden_builds_cold": golden_builds(cold_metrics),
        "golden_builds_warm": golden_builds(warm1_metrics)
                              + golden_builds(warm4_metrics),
        "worker_cache_hit_ratio": round(worker_hits / worker_lookups, 3),
        "classification": dict(cold_outcome.comprehensive.counts),
    }
    bench_json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\ncluster scaling: {speedup:.2f}x at {WORKERS} workers "
          f"(warm 1w {warm1_seconds:.1f}s, warm {WORKERS}w {warm4_seconds:.1f}s, "
          f"cold {cold_seconds:.1f}s, {cpus} cpus)")

    # Worker-side cache behaviour is machine-independent: every worker
    # process warm-starts from the artifact the coordinator stored, so
    # the merged metrics must show zero worker-side misses.  (Worker
    # sessions are memoised per process, so the hit count is per worker
    # process, not per shard.)
    for name, registry in (("cold", cold_metrics), ("warm1", warm1_metrics),
                           ("warm4", warm4_metrics)):
        hits, misses = worker_cache(registry)
        assert misses == 0, f"{name} leg: worker cache missed {misses} times"
        assert hits >= 1, f"{name} leg: worker cache never hit"

    if gate_enforced:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"cluster speedup {speedup:.2f}x at {WORKERS} workers below the "
            f"{REQUIRED_SPEEDUP}x floor (warm 1w {warm1_seconds:.1f}s, "
            f"warm {WORKERS}w {warm4_seconds:.1f}s)"
        )
