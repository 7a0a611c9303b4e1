"""Session façade: state sharing, equivalence with the hand-wired path,
result persistence and progress reporting."""

import pytest

from repro.api import CampaignSpec, ResultStore, Session
from repro.api import session as session_module
from repro.core.merlin import MerlinCampaign
from repro.faults.campaign import CampaignResult, ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.faults.model import FaultList
from repro.faults.sampling import generate_fault_list
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure, structure_geometry
from repro.workloads import build_program

CONFIG = MicroarchConfig().with_register_file(64)


def tiny_spec(**overrides):
    fields = dict(
        workload="sha",
        structure=TargetStructure.RF,
        config=CONFIG,
        scale=1,
        faults=60,
        seed=0,
        method="merlin",
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


@pytest.fixture(scope="module")
def session():
    return Session()


def test_golden_and_fault_list_shared_across_methods(session):
    merlin_spec = tiny_spec(method="merlin")
    comprehensive_spec = tiny_spec(method="comprehensive")
    assert session.golden(merlin_spec) is session.golden(comprehensive_spec)
    assert session.fault_list(merlin_spec) is session.fault_list(comprehensive_spec)
    # A different structure shares the golden run but not the fault list.
    sq_spec = tiny_spec(structure=TargetStructure.SQ)
    assert session.golden(sq_spec) is session.golden(merlin_spec)
    assert session.fault_list(sq_spec) is not session.fault_list(merlin_spec)



def test_session_drops_fault_lists_nobody_holds():
    """A long-lived session keeps a fault list only while a caller does."""
    session = Session()
    spec = tiny_spec(seed=7)
    held = session.fault_list(spec)
    assert session.fault_list(spec) is held
    session.run(tiny_spec(seed=8))
    assert session.cache_info()["fault_lists"] == 1
    faults = list(held)
    del held
    assert session.cache_info()["fault_lists"] == 0
    redrawn = session.fault_list(spec)
    assert list(redrawn) == faults

def test_session_matches_hand_wired_campaign(session):
    """Same seeds => same AVF as the pre-façade MerlinCampaign wiring."""
    spec = tiny_spec()
    outcome = session.run(spec)

    program = build_program("sha", scale=1)
    golden = capture_golden(program, CONFIG)
    geometry = structure_geometry(TargetStructure.RF, CONFIG)
    fault_list = generate_fault_list(geometry, golden.cycles, sample_size=60, seed=0)
    reference = MerlinCampaign(ComprehensiveCampaign(golden, fault_list)).run()

    assert outcome.merlin.avf == reference.avf
    assert outcome.merlin.injections == reference.injections_performed
    assert outcome.merlin.counts == dict(reference.counts_final.counts)
    assert outcome.golden_cycles == reference.golden_cycles


def test_method_both_shares_representative_injections(session):
    execution = session.execute(tiny_spec(method="both"))
    assert execution.merlin is not None
    assert execution.comprehensive is not None
    # Every fault of the shared list was classified by the baseline.
    assert execution.comprehensive.injections_performed == 60
    # MeRLiN's predictions cover the same fault ids.
    assert set(execution.merlin.predicted_outcomes) == set(
        execution.comprehensive.outcomes
    )


def test_outcome_json_round_trip(session):
    outcome = session.run(tiny_spec(method="both"))
    from repro.api import CampaignOutcome

    restored = CampaignOutcome.from_dict(outcome.to_dict())
    assert restored.to_dict() == outcome.to_dict()
    assert restored.run_id == outcome.run_id


def test_store_persists_and_reloads_without_resimulating(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "artifacts")
    spec = tiny_spec()
    first = Session(store=store).run(spec)
    assert store.has(spec.run_id())

    # A fresh session must serve the artifact without touching the simulator.
    def forbidden(*args, **kwargs):
        raise AssertionError("stored outcome should not be re-simulated")

    monkeypatch.setattr(session_module, "capture_golden", forbidden)
    second = Session(store=store).run(spec)
    assert second.to_dict() == first.to_dict()

    # refresh=True forces the re-run (and therefore hits the simulator).
    with pytest.raises(AssertionError):
        Session(store=store).run(spec, refresh=True)


def test_progress_reported_by_both_campaign_kinds(session):
    events = []
    session.execute(
        tiny_spec(method="both", seed=1),
        progress=lambda done, total: events.append((done, total)),
    )
    assert events, "expected per-injection progress callbacks"
    # Callbacks are (done, total) with done counting up to total per campaign.
    assert all(1 <= done <= total for done, total in events)
    totals = {total for _, total in events}
    assert len(totals) >= 2, "merlin and comprehensive should both report"


def test_merlin_campaign_progress_parity():
    """MerlinCampaign.run accepts the same progress hook as the baseline."""
    program = build_program("sha", scale=1)
    golden = capture_golden(program, CONFIG)
    geometry = structure_geometry(TargetStructure.RF, CONFIG)
    fault_list = generate_fault_list(geometry, golden.cycles, sample_size=40, seed=2)
    campaign = MerlinCampaign(ComprehensiveCampaign(golden, fault_list))
    events = []
    result = campaign.run(progress=lambda done, total: events.append((done, total)))
    assert [done for done, _ in events] == list(range(1, result.injections_performed + 1))
    assert all(total == result.injections_performed for _, total in events)


def test_empty_fault_list_yields_zero_avf():
    program = build_program("sha", scale=1)
    golden = capture_golden(program, CONFIG)
    campaign = ComprehensiveCampaign(golden, FaultList(TargetStructure.RF))
    result = campaign.run()
    assert result.injections_performed == 0
    assert result.avf == 0.0


def test_comprehensive_run_accepts_fault_list_without_copy(session):
    spec = tiny_spec(method="comprehensive", seed=4)
    prepared = session.prepare(spec)
    campaign = prepared.comprehensive_campaign()
    result = campaign.run(prepared.fault_list)
    assert isinstance(result, CampaignResult)
    assert result.injections_performed == len(prepared.fault_list)


def build_custom_program(name="custom_loop"):
    from repro.isa.builder import ProgramBuilder
    from repro.isa.registers import Reg as R

    b = ProgramBuilder(name)
    source = b.alloc_words("source", [(i * 7 + 3) % 101 for i in range(20)])
    b.movi(R.RDI, source)
    b.movi(R.RAX, 0)
    b.movi(R.RCX, 0)
    b.label("loop")
    b.load(R.RDX, R.RDI, 0)
    b.add(R.RAX, R.RAX, R.RDX)
    b.add(R.RDI, R.RDI, 8)
    b.add(R.RCX, R.RCX, 1)
    b.blt(R.RCX, 20, "loop")
    b.out(R.RAX)
    b.halt()
    return b.build()


def test_custom_program_registration():
    session = Session()
    program = build_custom_program()
    session.register_program(program)
    spec = CampaignSpec(workload=program.name, structure=TargetStructure.RF,
                        config=CONFIG, faults=30, seed=5)
    outcome = session.run(spec)
    assert outcome.merlin is not None
    with pytest.raises(ValueError):
        session.program(program.name, scale=2)


def test_register_program_rejects_bundled_names():
    session = Session()
    with pytest.raises(ValueError):
        session.register_program(build_custom_program(name="sha"))
