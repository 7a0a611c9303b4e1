"""Path-scoped rule application: identity path vs measurement layer."""

from __future__ import annotations

import textwrap

from repro.analysis import DEFAULT_CONFIG, lint_file, module_name_for


def test_default_scopes():
    config = DEFAULT_CONFIG
    assert config.in_determinism_scope("repro.uarch.checkpoint")
    assert config.in_determinism_scope("repro.isa.memory")
    assert config.in_determinism_scope("repro.faults.campaign")
    assert config.in_determinism_scope("repro.api.spec")
    assert config.in_determinism_scope("repro.cluster.shards")
    # Observability may read clocks; the result/store layer is not on
    # the identity path at all.
    assert not config.in_determinism_scope("repro.obs.metrics")
    assert not config.in_determinism_scope("repro.api.store")
    assert not config.in_determinism_scope("repro.cli")
    # Process-safety scopes.
    assert config.in_process_scope("repro.cluster.engine")
    assert not config.in_process_scope("repro.uarch.pipeline")
    assert config.in_payload_scope("repro.cluster.shards")
    assert config.in_journal_scope("repro.cluster.journal")
    assert not config.in_journal_scope("repro.cluster.engine")


def test_module_name_for_anchors_on_src():
    from pathlib import Path

    assert module_name_for(
        Path("src/repro/uarch/checkpoint.py")) == "repro.uarch.checkpoint"
    assert module_name_for(
        Path("/root/repo/src/repro/cluster/journal.py")
    ) == "repro.cluster.journal"
    assert module_name_for(Path("src/repro/api/__init__.py")) == "repro.api"
    assert module_name_for(
        Path("site-packages/repro/isa/memory.py")) == "repro.isa.memory"
    assert module_name_for(Path("/tmp/xyz/fixture_mod.py")) == "fixture_mod"


def test_determinism_rules_skip_out_of_scope_modules(tmp_path):
    """The same wall-clock read lints dirty on the identity path and
    clean outside it."""
    source = textwrap.dedent("""\
        import time


        def stamp():
            return time.time()
    """)
    identity = tmp_path / "src" / "repro" / "faults" / "sampling.py"
    measurement = tmp_path / "src" / "repro" / "obs" / "timers.py"
    for path in (identity, measurement):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    identity_findings = lint_file(identity, config=DEFAULT_CONFIG)
    assert [f.rule_id for f in identity_findings] == ["det-wallclock"]
    assert lint_file(measurement, config=DEFAULT_CONFIG) == []

