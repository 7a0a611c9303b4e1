"""Per-injection work accounting: stepped cycles and why each run ended.

``inject_fault`` records ``repro_stepped_cycles_total`` (cycles the
pipeline actually stepped) and ``repro_run_end_total{reason}`` once per
injection.  Each injection has exactly one end reason, so the reasons
must sum to ``repro_injections_total`` on every engine, including the
worker-merged cluster path.
"""

import pytest

from repro import obs
from repro.api import CampaignSpec, make_engine
from repro.testing import small_config
from repro.uarch.pipeline import TerminationKind
from repro.uarch.structures import TargetStructure

FAULTS = 40

TERMINATIONS = {kind.value for kind in TerminationKind}


def observed_run(engine_name, tmp_path):
    spec = CampaignSpec(workload="sha", structure=TargetStructure.RF,
                        config=small_config(), scale=1, faults=FAULTS, seed=4,
                        method="comprehensive")
    knobs = ({"cache_dir": str(tmp_path / "cache")}
             if engine_name == "process" else {})
    with obs.observe() as ctx:
        outcome = make_engine(engine_name, **knobs).run([spec])[0]
    return outcome.comprehensive, ctx.registry


EARLY = {"reconverged", "unread_values", "dead_flip", "unread_flip"}


def end_reasons(registry):
    """Every non-zero ``repro_run_end_total`` sample, by reason."""
    values = {reason: registry.value("repro_run_end_total", reason=reason)
              for reason in TERMINATIONS | EARLY}
    return {reason: value for reason, value in values.items() if value}


@pytest.mark.parametrize("engine_name", ["serial", "checkpoint", "process"])
def test_end_reasons_sum_to_injections(engine_name, tmp_path):
    result, registry = observed_run(engine_name, tmp_path)
    reasons = end_reasons(registry)
    assert sum(reasons.values()) == registry.total("repro_injections_total")
    assert registry.total("repro_injections_total") == result.injections
    if engine_name == "serial":
        assert not set(reasons) & EARLY
    if engine_name == "checkpoint":
        assert set(reasons) & EARLY


def test_stepped_cycles_cold_equal_logical_and_checkpoint_step_fewer(tmp_path):
    cold, cold_registry = observed_run("serial", tmp_path)
    warm, warm_registry = observed_run("checkpoint", tmp_path)
    assert cold_registry.total("repro_stepped_cycles_total") == cold.simulated_cycles
    assert warm.simulated_cycles == cold.simulated_cycles
    assert (0 < warm_registry.total("repro_stepped_cycles_total")
            < cold.simulated_cycles)


def test_unread_flips_are_answered_and_counted_once(tmp_path):
    """RF flips that the golden run overwrites, or never reads again,
    end as ``unread_flip`` on the fast-forward path; every injection
    still has exactly one end reason."""
    result, registry = observed_run("checkpoint", tmp_path)
    reasons = end_reasons(registry)
    assert reasons.get("unread_flip", 0) > 0
    assert sum(reasons.values()) == registry.total("repro_injections_total")
    assert registry.total("repro_injections_total") == result.injections
