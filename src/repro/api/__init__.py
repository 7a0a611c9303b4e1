"""`repro.api` — the unified campaign façade.

This package is the one true entry point for running injection campaigns:

:class:`CampaignSpec`
    A frozen, serializable description of one campaign (workload, scale,
    microarchitecture configuration, target structure, fault budget or
    error-margin/confidence, seed, method) with a deterministic
    :meth:`~CampaignSpec.run_id` content hash.
:class:`Session`
    Resolves specs into programs, golden runs and fault lists — shared by
    identity across campaigns — runs them, and persists/reloads outcomes
    through a :class:`ResultStore`.
:class:`SerialEngine` / :func:`make_engine`
    Pluggable execution engines (:class:`ExecutionEngine`) with
    progress hooks and bit-identical outcomes.  :class:`SerialEngine` runs spec batches
    in-process (optionally with checkpoint fast-forwarded injection
    runs); ``make_engine("process"|"cluster"|"remote")`` builds the
    sharded :class:`~repro.cluster.engine.ClusterEngine` from
    :mod:`repro.cluster` (local pool or remote agents, artifact cache,
    journaled resumable runs).
:func:`sweep`
    Expands workloads x structures x configurations cross-products into
    spec lists for design-space exploration.

Quickstart::

    from repro.api import CampaignSpec, Session
    from repro.uarch.structures import TargetStructure

    outcome = Session().run(CampaignSpec(
        workload="sha", structure=TargetStructure.RF, faults=2_000,
    ))
    print(outcome.describe())
"""

from repro.api.engine import (
    ENGINES,
    ExecutionEngine,
    SerialEngine,
    make_engine,
)
from repro.api.result import CampaignOutcome, ComprehensiveSummary, MerlinSummary
from repro.api.session import CampaignExecution, PreparedCampaign, Session
from repro.api.spec import METHODS, CampaignSpec, config_from_dict, config_to_dict
from repro.api.store import ResultStore, StoreError
from repro.api.sweep import config_axis, sweep

__all__ = [
    "CampaignExecution",
    "CampaignOutcome",
    "CampaignSpec",
    "ComprehensiveSummary",
    "ENGINES",
    "ExecutionEngine",
    "METHODS",
    "MerlinSummary",
    "PreparedCampaign",
    "ResultStore",
    "SerialEngine",
    "Session",
    "StoreError",
    "config_axis",
    "config_from_dict",
    "config_to_dict",
    "make_engine",
    "sweep",
]
