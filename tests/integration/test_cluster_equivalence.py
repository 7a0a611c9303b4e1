"""Differential harness: the cluster engine must be bit-identical to serial.

Extends PR 2's checkpoint differential harness one level up: a campaign
sharded across worker processes — any worker count, any shard size, cold
or warm artifact cache, fresh or resumed after a simulated kill — must
merge into a :class:`~repro.api.result.CampaignOutcome` whose
classification fingerprint (everything except wall-clock timings) equals
:class:`~repro.api.engine.SerialEngine`'s, for comprehensive, MeRLiN and
combined campaigns alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest

from repro import obs
from repro.api import CampaignSpec, ResultStore, SerialEngine
from repro.cluster import ClusterEngine, journal_path
from repro.cluster.transport import FakeTransport
from repro.testing import small_config
from repro.uarch.structures import TargetStructure

SMALL = small_config()


@dataclass(frozen=True)
class Combo:
    label: str
    method: str
    structure: TargetStructure
    workload: str
    scale: int
    faults: int
    seed: int
    workers: int
    shard_size: int


COMBOS = [
    Combo("comprehensive-RF-w2-s7", "comprehensive", TargetStructure.RF,
          "sha", 1, 60, 0, 2, 7),
    Combo("merlin-RF-w3-s5", "merlin", TargetStructure.RF,
          "sha", 1, 80, 1, 3, 5),
    Combo("both-RF-w2-s16", "both", TargetStructure.RF,
          "sha", 1, 50, 2, 2, 16),
    Combo("comprehensive-SQ-w2-s9", "comprehensive", TargetStructure.SQ,
          "qsort", 1, 50, 3, 2, 9),
    Combo("merlin-L1D-w2-s11", "merlin", TargetStructure.L1D,
          "stringsearch", 1, 60, 4, 2, 11),
]


def spec_of(combo: Combo) -> CampaignSpec:
    return CampaignSpec(
        workload=combo.workload, structure=combo.structure, config=SMALL,
        scale=combo.scale, faults=combo.faults, seed=combo.seed,
        method=combo.method,
    )


def observed_run(engine, specs, **kwargs):
    """Run ``engine`` under observability; (outcomes, metrics registry)."""
    with obs.observe() as ctx:
        outcomes = engine.run(specs, **kwargs)
    return outcomes, ctx.registry


def shards_total(metrics) -> float:
    return (metrics.total("repro_shards_executed_total")
            + metrics.total("repro_shards_reused_total"))


@pytest.fixture(scope="module")
def serial_outcomes():
    """One serial reference run per combo (goldens shared via the session)."""
    outcomes = SerialEngine().run([spec_of(combo) for combo in COMBOS])
    return {combo.label: outcome for combo, outcome in zip(COMBOS, outcomes)}


@pytest.mark.parametrize("combo", COMBOS, ids=lambda combo: combo.label)
def test_cluster_matches_serial_cold_and_warm(combo, serial_outcomes, tmp_path):
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = ClusterEngine(max_workers=combo.workers,
                           shard_size=combo.shard_size,
                           cache_dir=tmp_path / "cache")
    [cold], metrics = observed_run(engine, [spec])
    assert cold.classification_fingerprint() == reference
    assert metrics.total("repro_golden_builds_total") >= 1

    [warm], metrics = observed_run(engine, [spec])
    assert warm.classification_fingerprint() == reference
    assert metrics.total("repro_golden_builds_total") == 0, (
        "warm cache must not rebuild")


def test_resumed_run_is_bit_identical(tmp_path):
    """Kill simulation: drop shards from the journal, resume, compare."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    store = ResultStore(tmp_path / "store")
    cache = tmp_path / "cache"
    engine = ClusterEngine(max_workers=2, shard_size=5, cache_dir=cache)
    [first], metrics = observed_run(engine, [spec], store=store)
    reference = first.classification_fingerprint()
    shards = shards_total(metrics)
    assert shards >= 4

    # A killed run: the stored outcome never landed and the journal holds
    # only some shards, the last one torn mid-append.
    store.delete(spec.run_id())
    path = journal_path(engine.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    survivors = lines[:1] + lines[1:3]
    path.write_text("".join(survivors) + '{"kind":"shard","shard_id":"to')

    resumed = ClusterEngine(max_workers=2, shard_size=5, cache_dir=cache,
                            resume=True)
    [outcome], metrics = observed_run(resumed, [spec], store=store)
    assert outcome.classification_fingerprint() == reference
    assert metrics.total("repro_shards_reused_total") == 2
    assert metrics.total("repro_shards_executed_total") == shards - 2
    assert store.get(spec.run_id()).classification_fingerprint() == reference


def test_sweep_through_cluster_matches_serial(tmp_path):
    """Shards of several campaigns interleave in one pool, bit-identically."""
    specs = [
        spec_of(COMBOS[0]).replace(seed=7),
        spec_of(COMBOS[0]).replace(structure=TargetStructure.SQ, seed=8),
    ]
    serial = SerialEngine().run(specs)
    engine = ClusterEngine(max_workers=2, shard_size=8,
                           cache_dir=tmp_path / "cache")
    clustered, metrics = observed_run(
        engine, specs, store=ResultStore(tmp_path / "store"))
    assert len(clustered) == len(serial)
    for left, right in zip(serial, clustered):
        assert left.classification_fingerprint() == right.classification_fingerprint()
    # Both campaigns share one workload/config identity: one golden build.
    assert metrics.total("repro_golden_builds_total") == 1


# ----------------------------------------------------------------------
# Remote transport differential: same fingerprints through the
# coordinator/lease/steal path, chaos included.
# ----------------------------------------------------------------------
def remote_engine(tmp_path, combo, schedule=(), workers=3, **kwargs):
    return ClusterEngine(
        transport=FakeTransport(workers=workers, schedule=list(schedule)),
        shard_size=combo.shard_size, cache_dir=tmp_path / "cache",
        lease_timeout=4.0, **kwargs,
    )


def journaled_shard_ids(engine, spec):
    path = journal_path(engine.journal_dir, spec.run_id())
    return [json.loads(line)["shard_id"]
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "shard"]


@pytest.mark.parametrize("combo", COMBOS[:2], ids=lambda combo: combo.label)
def test_remote_matches_serial_cold_and_warm(combo, serial_outcomes, tmp_path):
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = remote_engine(tmp_path, combo)
    [cold], metrics = observed_run(engine, [spec])
    assert cold.classification_fingerprint() == reference
    assert metrics.total("repro_golden_builds_total") >= 1
    assert len(engine.transport.warms) >= 1, "hosts must warm their caches"

    warm = remote_engine(tmp_path, combo)
    [again], metrics = observed_run(warm, [spec])
    assert again.classification_fingerprint() == reference
    assert metrics.total("repro_golden_builds_total") == 0, (
        "warm cache must not rebuild")


def test_remote_survives_host_deaths_bit_identically(serial_outcomes, tmp_path):
    """Kill/steal mid-run: >= 2 injected host deaths, identical merge, and
    every shard exactly once in the journal."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    reference = serial_outcomes[combo.label].classification_fingerprint()

    engine = remote_engine(
        tmp_path, combo,
        schedule=["die", "run", "die", "slow:3", "torn", "duplicate", "fail"],
    )
    [outcome], metrics = observed_run(engine, [spec])
    assert outcome.classification_fingerprint() == reference
    assert metrics.total("repro_remote_hosts_lost_total") == 2
    assert metrics.total("repro_remote_shard_steals_total") >= 2
    assert metrics.total("repro_remote_torn_results_total") == 1
    assert metrics.total("repro_remote_duplicate_results_total") == 1
    assert metrics.total("repro_remote_transport_retries_total") >= 1

    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == shards_total(metrics)
    assert len(shard_ids) == len(set(shard_ids)), (
        "a stolen or duplicated shard must never be journaled twice")


def test_remote_seeded_chaos_campaign_matches_serial(serial_outcomes, tmp_path):
    combo = COMBOS[1]
    spec = spec_of(combo)
    schedule = FakeTransport.seeded_schedule(1234, 24)
    engine = remote_engine(tmp_path, combo, schedule=schedule, workers=4)
    [outcome], metrics = observed_run(engine, [spec])
    assert (outcome.classification_fingerprint()
            == serial_outcomes[combo.label].classification_fingerprint())
    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == len(set(shard_ids)) == shards_total(metrics)


def test_remote_resumes_torn_journal_bit_identically(tmp_path):
    """The remote engine resumes a killed run's torn journal exactly like
    the local cluster engine: journaled shards are never re-executed."""
    combo = COMBOS[0]
    spec = spec_of(combo)
    store = ResultStore(tmp_path / "store")
    engine = remote_engine(tmp_path, combo)
    [first], metrics = observed_run(engine, [spec], store=store)
    reference = first.classification_fingerprint()
    shards = shards_total(metrics)

    store.delete(spec.run_id())
    path = journal_path(engine.journal_dir, spec.run_id())
    lines = [line for line in path.read_text().splitlines(True)
             if json.loads(line).get("kind") != "merged"]
    survivors = lines[:1] + lines[1:3]
    path.write_text("".join(survivors) + '{"kind":"shard","shard_id":"to')

    resumed = remote_engine(tmp_path, combo, schedule=["die"], resume=True)
    [outcome], metrics = observed_run(resumed, [spec], store=store)
    assert outcome.classification_fingerprint() == reference
    assert metrics.total("repro_shards_reused_total") == 2
    assert metrics.total("repro_shards_executed_total") == shards - 2
    assert store.get(spec.run_id()).classification_fingerprint() == reference


@pytest.mark.parametrize("model,params", [
    ("multi-bit", {"width": 2}),
    ("intermittent", {}),
    ("stuck-at-0", {}),
    ("stuck-at-1", {}),
], ids=lambda value: value if isinstance(value, str) else "")
def test_remote_chaos_matches_serial_across_fault_models(
        model, params, tmp_path):
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL, scale=1,
        faults=30, seed=11, method="comprehensive",
        fault_model=model, model_params=params,
    )
    reference = SerialEngine().run([spec])[0].classification_fingerprint()
    engine = ClusterEngine(
        transport=FakeTransport(workers=3, schedule=["die", "torn", "die"]),
        shard_size=6, cache_dir=tmp_path / "cache", lease_timeout=4.0,
    )
    [outcome], metrics = observed_run(engine, [spec])
    assert outcome.classification_fingerprint() == reference
    assert metrics.total("repro_remote_hosts_lost_total") == 2
    shard_ids = journaled_shard_ids(engine, spec)
    assert len(shard_ids) == len(set(shard_ids)) == shards_total(metrics)


def test_error_margin_derived_fault_list_matches(tmp_path):
    """faults=None (Leveugle-derived size) flows through sharding unchanged."""
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=SMALL, scale=1,
        faults=None, error_margin=0.2, confidence=0.9, seed=5,
        method="comprehensive",
    )
    serial = SerialEngine().run([spec])[0]
    engine = ClusterEngine(max_workers=2, shard_size=6,
                           cache_dir=tmp_path / "cache")
    outcome = engine.run([spec])[0]
    assert outcome.classification_fingerprint() == serial.classification_fingerprint()
