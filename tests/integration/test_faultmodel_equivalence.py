"""Generalized differential harness: every engine, every fault model.

Extends the PR 2 (checkpoint) and PR 3 (cluster) harnesses across the
fault-model axis:

* injector level — for every model of the zoo, the checkpoint
  fast-forward path must reproduce the cold-start path bit for bit in
  every :class:`~repro.uarch.pipeline.SimulationResult` field, over
  seeded randomized (structure, anchor) cases;
* engine level — ``serial``, ``process``, ``checkpoint`` and ``cluster``
  must produce identical classification fingerprints for every model;
* seed level — the single-bit model must reproduce the *pre-refactor*
  campaigns exactly, checked against a golden fixture captured from the
  seed code before the fault-model generalization
  (``tests/fixtures/singlebit_golden.json``): same statistical draws,
  same per-fault outcomes, same MeRLiN predictions, same run ids.
"""

from __future__ import annotations

import json
import random
import zlib
from pathlib import Path

import pytest

from repro import obs
from repro.api import CampaignSpec, SerialEngine, make_engine
from repro.cluster import ClusterEngine
from repro.core.merlin import MerlinCampaign
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.models import (
    IntermittentBurst,
    MultiBitAdjacent,
    SingleBitTransient,
    StuckAt0,
    StuckAt1,
    get_model,
)
from repro.faults.sampling import generate_fault_list
from repro.testing import build_loop_program, shared_loop_golden, small_config
from repro.uarch.structures import TargetStructure, structure_geometry

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "singlebit_golden.json"

#: (registry name, params) of every model the harness proves equivalent.
MODEL_CASES = [
    ("single", {}),
    ("multi-bit", {"width": 2}),
    ("multi-bit", {"width": 4}),
    ("intermittent", {"count": 3, "period": 2}),
    ("stuck-at-0", {"duration": 12}),
    ("stuck-at-1", {"duration": 12}),
]

MODEL_IDS = [
    f"{name}-{'-'.join(f'{k}{v}' for k, v in sorted(params.items())) or 'default'}"
    for name, params in MODEL_CASES
]

#: Randomized injector-level cases per (model, structure).
CASES_PER_MODEL = 8

STRUCTURES = [TargetStructure.RF, TargetStructure.SQ, TargetStructure.L1D]


def assert_results_identical(cold, warm, fault):
    assert cold.effect == warm.effect, (
        f"{fault.describe()}: effect {cold.effect} != {warm.effect}"
    )
    for name in cold.result.__dataclass_fields__:
        assert getattr(cold.result, name) == getattr(warm.result, name), (
            f"{fault.describe()}: SimulationResult.{name} differs: "
            f"{getattr(cold.result, name)!r} != {getattr(warm.result, name)!r}"
        )


# ----------------------------------------------------------------------
# Injector level: cold vs fast-forward, every model x structure
# ----------------------------------------------------------------------
@pytest.mark.parametrize(("model_name", "params"), MODEL_CASES, ids=MODEL_IDS)
def test_fast_forward_bit_identical_for_every_model(model_name, params):
    model = get_model(model_name, **params)
    config = small_config()
    golden_cold = capture_golden(build_loop_program(30), config, trace=False)
    golden_warm = capture_golden(build_loop_program(30), config, trace=False,
                                 checkpoint_interval=24)
    assert golden_warm.result == golden_cold.result

    for structure in STRUCTURES:
        geometry = structure_geometry(structure, config)
        rng = random.Random(zlib.crc32(f"{model.describe()}/{structure.name}".encode()))
        for index in range(CASES_PER_MODEL):
            fault = model.make_fault(
                index, structure,
                rng.randrange(geometry.num_entries),
                rng.randrange(model.bit_positions(geometry)),
                rng.randrange(golden_cold.cycles),
            )
            cold = inject_fault(golden_cold, fault)
            warm = inject_fault(golden_warm, fault, fast_forward=True)
            assert_results_identical(cold, warm, fault)


def test_injector_case_budget_is_at_least_100():
    """The loop above exercises >= 100 randomized differential cases."""
    assert len(MODEL_CASES) * len(STRUCTURES) * CASES_PER_MODEL >= 100


# ----------------------------------------------------------------------
# Engine level: serial == process == checkpoint == cluster, every model
# ----------------------------------------------------------------------
def spec_for(model_name, params) -> CampaignSpec:
    return CampaignSpec(
        workload="sha", scale=1, structure=TargetStructure.RF,
        config=small_config(), faults=40, seed=3, method="both",
        fault_model=model_name,
        model_params=tuple(sorted(params.items())),
    )


@pytest.fixture(scope="module")
def serial_by_model():
    """One serial reference outcome per model (goldens shared)."""
    specs = [spec_for(name, params) for name, params in MODEL_CASES]
    outcomes = SerialEngine().run(specs)
    return {
        model_id: outcome for model_id, outcome in zip(MODEL_IDS, outcomes)
    }


@pytest.mark.parametrize(("model_name", "params"), MODEL_CASES, ids=MODEL_IDS)
def test_checkpoint_engine_matches_serial(model_name, params, serial_by_model):
    model_id = MODEL_IDS[MODEL_CASES.index((model_name, params))]
    reference = serial_by_model[model_id].classification_fingerprint()
    outcome = make_engine("checkpoint").run([spec_for(model_name, params)])[0]
    assert outcome.classification_fingerprint() == reference


def test_process_engine_matches_serial_on_every_model(serial_by_model, tmp_path):
    """One pool, all models: sharded worker fan-out is model-agnostic."""
    specs = [spec_for(name, params) for name, params in MODEL_CASES]
    outcomes = make_engine("process", max_workers=2,
                           cache_dir=str(tmp_path / "cache")).run(specs)
    for model_id, outcome in zip(MODEL_IDS, outcomes):
        assert outcome.classification_fingerprint() == (
            serial_by_model[model_id].classification_fingerprint()
        ), model_id


def test_cluster_engine_matches_serial_on_every_model(serial_by_model, tmp_path):
    """Sharded fan-out with extended fault payloads, cold then warm cache."""
    specs = [spec_for(name, params) for name, params in MODEL_CASES]
    engine = ClusterEngine(max_workers=2, shard_size=9,
                           cache_dir=tmp_path / "cache")
    with obs.observe() as ctx:
        cold = engine.run(specs)
    assert ctx.registry.total("repro_shards_executed_total") > len(MODEL_CASES)
    warm_engine = ClusterEngine(max_workers=2, shard_size=9,
                                cache_dir=tmp_path / "cache")
    with obs.observe() as ctx:
        warm = warm_engine.run(specs)
    assert ctx.registry.total("repro_golden_builds_total") == 0
    for model_id, cold_out, warm_out in zip(MODEL_IDS, cold, warm):
        reference = serial_by_model[model_id].classification_fingerprint()
        assert cold_out.classification_fingerprint() == reference, model_id
        assert warm_out.classification_fingerprint() == reference, model_id


# ----------------------------------------------------------------------
# Seed level: single-bit reproduces the pre-refactor campaigns exactly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fixture_payload():
    return json.loads(FIXTURE.read_text())


def test_single_bit_run_ids_unchanged_by_generalization(fixture_payload):
    recorded = fixture_payload["run_ids"]
    assert CampaignSpec(workload="sha").run_id() == recorded["default"]
    assert CampaignSpec(
        workload="qsort", structure=TargetStructure.RF,
        faults=2000, seed=7, method="both",
    ).run_id() == recorded["rf-2000"]


@pytest.mark.parametrize("index", range(3),
                         ids=lambda i: ("RF", "SQ", "L1D")[i])
def test_single_bit_campaigns_match_pre_refactor_fixture(index, fixture_payload):
    recorded = fixture_payload["campaigns"][index]
    structure = TargetStructure[recorded["structure"]]
    config = small_config()
    golden = shared_loop_golden(30, config, True)
    assert golden.cycles == recorded["golden_cycles"]

    geometry = structure_geometry(structure, config)
    faults = generate_fault_list(
        geometry, golden.cycles,
        sample_size=recorded["sample_size"], seed=recorded["seed"],
        model=SingleBitTransient(),
    )
    assert [[f.fault_id, f.entry, f.bit, f.cycle] for f in faults] == (
        recorded["fault_list"]
    ), "statistical draws moved"

    result = ComprehensiveCampaign(golden, faults).run()
    assert {str(k): v.value for k, v in result.outcomes.items()} == (
        recorded["comprehensive_outcomes"]
    ), "comprehensive outcomes moved"

    mres = MerlinCampaign(ComprehensiveCampaign(golden, faults)).run()
    assert mres.injections_performed == recorded["merlin_injections"]
    assert {str(k): v.value for k, v in mres.predicted_outcomes.items()} == (
        recorded["merlin_predicted"]
    ), "MeRLiN predictions moved"


def test_all_zoo_models_are_covered():
    """The harness must cover every concrete model of the zoo."""
    covered = {name for name, _ in MODEL_CASES}
    zoo = {SingleBitTransient.name, MultiBitAdjacent.name,
           IntermittentBurst.name, StuckAt0.name, StuckAt1.name}
    assert covered == zoo
