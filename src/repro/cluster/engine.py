"""The cluster engine: intra-campaign fan-out with cache and journal.

The :class:`ClusterEngine` is the plan → shard → journal → merge route
from spec to outcome (the other is :class:`~repro.api.engine.SerialEngine`
over ``Session.run``).  It shards every campaign's injection targets into
checkpoint-aligned :class:`~repro.cluster.shards.FaultShard`s and fans the
shards of *all* campaigns in the batch out over one worker transport:

1. The coordinator resolves each spec with ``Session.prepare`` on a
   checkpointing :class:`~repro.api.session.Session` backed by the on-disk
   :class:`~repro.cluster.artifacts.ArtifactCache` — each distinct golden
   run (and its checkpoint timeline) is built once per machine, then
   warm-loaded by every worker process — and reduces MeRLiN fault lists
   with :func:`~repro.core.merlin.reduce_fault_list`, as the serial route
   does.
2. Injection targets (the full fault list for comprehensive/both, the
   MeRLiN group representatives for merlin-only) are sharded
   deterministically and leased by the
   :class:`~repro.cluster.remote.Coordinator` to the transport's hosts —
   local pool workers by default (``--engine process``/``cluster``), TCP
   agents for ``--engine remote`` — which restore from the shared golden
   checkpoints and return per-fault outcomes.
3. Every completed shard is journaled append-only
   (:class:`~repro.cluster.journal.RunJournal`); a killed run resumes with
   ``resume=True`` (CLI: ``repro resume <run_id>``), re-executing only the
   missing shards.
4. Shard outcomes merge into a :class:`~repro.api.result.CampaignOutcome`
   through the serial route's propagation and outcome assembly
   (:mod:`repro.cluster.merge`), so it is bit-identical to
   :class:`~repro.api.engine.SerialEngine`'s — enforced by
   ``tests/integration/test_cluster_equivalence.py``.

Progress reports in work units: one unit per shard, plus one per campaign
that is satisfied without sharding (reloaded from the result store).
Run bookkeeping (shards executed and reused, golden builds, steals, ...)
is counted only in :mod:`repro.obs`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.api.result import CampaignOutcome
from repro.api.session import PreparedCampaign, Session
from repro.api.spec import CampaignSpec
from repro.api.store import ResultStore
from repro.cluster.artifacts import ArtifactCache, golden_cache_key
from repro.cluster.journal import JournalError, RunJournal, ShardOutcomes
from repro.cluster.merge import merge_shard_outcomes
from repro.cluster.remote import (
    DEFAULT_LEASE_TIMEOUT,
    Coordinator,
    validate_shard_payload,
)
from repro.cluster.shards import DEFAULT_SHARD_SIZE, FaultShard, shard_faults
from repro.cluster.transport import LocalPoolTransport, ShardTask, WorkerTransport
from repro.core.grouping import GroupedFaults
# Not called here (planning reduces through repro.core.merlin); kept bound
# so call-site tracers that patch these names by attribute keep resolving.
from repro.core.grouping import group_faults  # noqa: F401
from repro.core.intervals import build_interval_set  # noqa: F401
from repro.core.merlin import reduce_fault_list
from repro.faults.campaign import ComprehensiveCampaign, ProgressCallback
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultList
from repro.uarch.structures import TargetStructure

#: Default on-disk location for golden artifacts and run journals.
DEFAULT_CACHE_DIR = ".repro-cache"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process sessions keyed by cache dir: a long-lived pool worker pays
#: the artifact load once per distinct golden (the session's in-memory
#: memo), not once per shard.
_WORKER_SESSIONS: Dict[str, Session] = {}


def _worker_golden(spec: CampaignSpec, cache_dir: str) -> GoldenRecord:
    """The golden for ``spec`` in this worker process: memo, cache, or build.

    Uses the *same* :meth:`Session.golden` lookup path as the coordinator
    (identical timeline policy and artifact identity), so the two can
    never drift.  The coordinator stores every golden before sharding, so
    the build fallback only fires when the artifact was evicted (or an
    external process wiped the cache) between planning and execution —
    correctness never depends on the cache.  Hits and misses are counted
    by the cache in :mod:`repro.obs` (``role="worker"``).
    """
    session = _WORKER_SESSIONS.get(str(cache_dir))
    if session is None:
        session = Session(checkpointing=True,
                          artifact_cache=ArtifactCache(cache_dir))
        _WORKER_SESSIONS[str(cache_dir)] = session
    return session.golden(spec)


def _run_shard_worker(spec_dict: Dict[str, Any], shard_dict: Dict[str, Any],
                      cache_dir: str,
                      obs_enabled: bool = False) -> Dict[str, Any]:
    """Pool worker: warm-load the golden, inject one shard, return outcomes.

    Module-level so it pickles by reference; everything crossing the
    process boundary is plain JSON-shaped data.  With ``obs_enabled`` the
    worker runs under its own observability context and ships its metrics
    and trace events home in the payload's ``"obs"`` slot; outcomes are
    byte-identical either way.
    """
    spec = CampaignSpec.from_dict(spec_dict)
    shard = FaultShard.from_dict(shard_dict)
    if not obs_enabled:
        return {**_execute_shard(spec, shard, cache_dir), "obs": None}
    with obs.observe(role="worker") as obs_ctx:
        started = time.perf_counter()
        with obs_ctx.span("shard", shard_id=shard.shard_id(),
                          run_id=spec.run_id()):
            payload = _execute_shard(spec, shard, cache_dir)
        obs_ctx.shard_executed(time.perf_counter() - started)
        payload["obs"] = obs_ctx.drain_payload()
        return payload


def _execute_shard(spec: CampaignSpec, shard: FaultShard,
                   cache_dir: str) -> Dict[str, Any]:
    """The observability-free core of :func:`_run_shard_worker`."""
    golden = _worker_golden(spec, cache_dir)
    faults = shard.fault_specs()
    campaign = ComprehensiveCampaign(
        golden,
        FaultList(TargetStructure[shard.structure], faults),
        use_checkpoints=True,
    )
    outcomes = campaign.run_shard(faults)
    return {
        "shard_id": shard.shard_id(),
        "outcomes": {
            str(fault_id): [outcome.effect.value, outcome.result.cycles]
            for fault_id, outcome in outcomes.items()
        },
    }


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class _CampaignPlan:
    """One spec's resolved inputs and shard plan."""

    index: int
    prepared: PreparedCampaign
    grouped: Optional[GroupedFaults]
    shards: List[FaultShard]
    journal: RunJournal
    outcomes: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    pending: Dict[str, FaultShard] = field(default_factory=dict)
    started: float = 0.0


class ClusterEngine:
    """Shard campaigns across a worker transport, with cache and resume.

    ``shard_size`` bounds faults per shard (default
    :data:`~repro.cluster.shards.DEFAULT_SHARD_SIZE`); ``cache_dir`` holds
    the golden artifacts and run journals.  A killed run's journaled
    shards are always preserved and reused on the next run of the same
    plan (see :meth:`_journal_for`); ``resume=True`` makes that strict —
    the journal must exist and match the plan, or the run fails instead
    of starting over.

    Shards execute on ``transport``: by default a
    :class:`~repro.cluster.transport.LocalPoolTransport` of
    ``max_workers`` processes (default: every core); pass a
    :class:`~repro.cluster.transport.TcpAgentTransport` for remote agents
    or a :class:`~repro.cluster.transport.FakeTransport` for chaos tests.
    ``lease_timeout`` is how long a host may go without a heartbeat before
    its shards are stolen.  Planning, journaling and merging never depend
    on the transport, so run ids, journals and outcomes are identical on
    all of them.  Custom (session-registered) programs are not resolvable
    in workers; use :class:`~repro.api.engine.SerialEngine` for those.
    """

    progress_unit = "shards"

    def __init__(self, max_workers: Optional[int] = None,
                 shard_size: Optional[int] = None,
                 cache_dir: Union[str, Path, None] = None,
                 resume: bool = False,
                 transport: Optional[WorkerTransport] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT):
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"workers must be >= 1, got {max_workers}")
        if max_workers is not None and transport is not None:
            raise ValueError("max_workers sizes the local pool; it does not "
                             "apply to an explicit transport")
        self.max_workers = max_workers
        self.shard_size = shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
        self.cache_dir = Path(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
        self.resume = resume
        self.transport = transport
        self.lease_timeout = lease_timeout

    @property
    def journal_dir(self) -> Path:
        return self.cache_dir / "journals"

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[CampaignSpec],
        store: Optional[ResultStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[CampaignOutcome]:
        cache = ArtifactCache(self.cache_dir)
        session = Session(
            store=None,  # outcome persistence is the coordinator's job
            checkpointing=True,
            artifact_cache=cache,
        )
        outcomes: List[Optional[CampaignOutcome]] = [None] * len(specs)
        plans: List[_CampaignPlan] = []
        obs_ctx = obs.active()

        # Phase 1 — resolve and shard every campaign (coordinator, serial).
        from_store = 0
        with obs.span("cluster_plan", campaigns=len(specs)):
            for index, spec in enumerate(specs):
                if store is not None:
                    cached = store.get(spec.run_id())
                    if cached is not None:
                        outcomes[index] = cached
                        from_store += 1
                        if obs_ctx is not None:
                            obs_ctx.campaign_from_store()
                        continue
                plans.append(self._plan(index, spec, session))
        shards_total = sum(len(plan.shards) for plan in plans)
        shards_reused = shards_total - sum(len(plan.pending) for plan in plans)
        if obs_ctx is not None:
            obs_ctx.shards_reused(shards_reused)

        total_units = from_store + shards_total
        done_units = from_store + shards_reused
        # Seeding with the journaled/reused unit count (even when it is 0)
        # means a resumed run's first report already reflects prior work
        # and a fresh run starts visibly at 0/N rather than jumping in.
        if progress is not None and total_units:
            progress(done_units, total_units)

        # Campaigns whose shards are all journaled (or empty) merge now.
        for plan in plans:
            if not plan.pending:
                outcomes[plan.index] = self._finish(plan, store)

        # Phase 2 — execute the missing shards of all campaigns through
        # the transport (local pool, remote agents or the fault-injecting
        # fake, all behind the same coordinator loop).
        pending_plans = [plan for plan in plans if plan.pending]
        if pending_plans:
            self._execute_pending(
                pending_plans, outcomes, store, progress,
                done_units, total_units, obs_ctx,
            )

        return [outcome for outcome in outcomes if outcome is not None]

    # ------------------------------------------------------------------
    def _execute_pending(
        self,
        pending_plans: List["_CampaignPlan"],
        outcomes: List[Optional[CampaignOutcome]],
        store: Optional[ResultStore],
        progress: Optional[ProgressCallback],
        done_units: int,
        total_units: int,
        obs_ctx: Optional[Any],
    ) -> None:
        """Run every pending shard exactly once via the coordinator."""
        tasks: List[ShardTask] = []
        lookup: Dict[str, Tuple[_CampaignPlan, FaultShard]] = {}
        for plan in pending_plans:
            plan.started = time.perf_counter()
            spec_dict = plan.prepared.spec.to_dict()
            warm_key = golden_cache_key(plan.prepared.spec)
            for shard in plan.pending.values():
                task = ShardTask(
                    task_id=f"{plan.index}:{shard.shard_id()}",
                    spec=spec_dict,
                    shard=shard.to_dict(),
                    obs_enabled=obs_ctx is not None,
                    warm_key=warm_key,
                )
                tasks.append(task)
                lookup[task.task_id] = (plan, shard)

        # Shards complete in nondeterministic order; worker obs payloads
        # are buffered by (campaign, shard) index and absorbed sorted
        # after the coordinator drains, so the merged trace is stable.
        obs_payloads: Dict[Tuple[int, int], Dict[str, Any]] = {}
        state = {"done": done_units}

        def on_result(task: ShardTask, payload: Dict[str, Any]) -> None:
            plan, shard = lookup[task.task_id]
            worker_obs = payload.get("obs")
            if obs_ctx is not None and worker_obs is not None:
                obs_payloads[(plan.index, shard.index)] = worker_obs
            self._absorb(plan, shard, payload)
            state["done"] += 1
            if progress is not None:
                progress(state["done"], total_units)
            if not plan.pending:
                outcomes[plan.index] = self._finish(plan, store)

        def validate(task: ShardTask,
                     payload: Dict[str, Any]) -> Optional[str]:
            return validate_shard_payload(lookup[task.task_id][1], payload)

        def describe(task: ShardTask) -> str:
            plan, shard = lookup[task.task_id]
            return f"campaign {plan.prepared.spec.describe()} {shard.describe()}"

        transport = self.transport
        if transport is None:
            transport = LocalPoolTransport(max_workers=self.max_workers,
                                           cache_dir=str(self.cache_dir))
        elif getattr(transport, "cache_dir", "") is None:
            # In-memory transports execute with the coordinator's cache.
            transport.cache_dir = str(self.cache_dir)  # type: ignore[attr-defined]
        coordinator = Coordinator(transport, lease_timeout=self.lease_timeout,
                                  describe=describe)
        coordinator.run(tasks, on_result, validate=validate)

        if obs_ctx is not None:
            for key in sorted(obs_payloads):
                obs_ctx.absorb_payload(obs_payloads[key])

    # ------------------------------------------------------------------
    def _plan(self, index: int, spec: CampaignSpec,
              session: Session) -> _CampaignPlan:
        """Resolve one spec into its prepared campaign, shards and journal."""
        prepared = session.prepare(spec)
        grouped: Optional[GroupedFaults] = None
        if spec.runs_merlin:
            grouped = reduce_fault_list(prepared.golden, prepared.fault_list)

        if spec.runs_comprehensive:
            targets = list(prepared.fault_list)
        else:
            targets = [group.representative for group in grouped.groups]
        shards = shard_faults(
            spec.run_id(), targets, prepared.golden.checkpoints, self.shard_size
        )

        journal = self._journal_for(spec, shards)

        plan = _CampaignPlan(
            index=index, prepared=prepared, grouped=grouped, shards=shards,
            journal=journal,
        )
        for shard in shards:
            journaled = journal.completed.get(shard.shard_id())
            if journaled is not None:
                plan.outcomes.update(journaled)
            else:
                plan.pending[shard.shard_id()] = shard
        return plan

    def _journal_for(self, spec: CampaignSpec,
                     shards: List[FaultShard]) -> RunJournal:
        """Open (preserving a killed run's shards) or start this run's journal.

        An *unmerged* journal whose plan matches is a killed run: its
        completed shards are reused even without ``resume=True`` — shard
        outcomes are deterministic, so reuse changes nothing but wall
        clock, and truncating it would destroy exactly the work the
        journal exists to protect.  A *merged* journal is a finished
        campaign: re-running the spec (past the store) is an explicit
        request to re-execute, so a fresh journal is started.  With
        ``resume=True`` the journal must exist and match the plan — a
        mismatch (different knobs) or a missing journal raises instead of
        silently starting over.
        """
        existing: Optional[RunJournal] = None
        if RunJournal.exists(self.journal_dir, spec.run_id()):
            try:
                existing = RunJournal.load(self.journal_dir, spec.run_id())
                existing.validate_plan(spec, shards)
            except JournalError:
                if self.resume:
                    raise
                existing = None  # unreadable or foreign plan: start over
        elif self.resume:
            raise JournalError(
                f"no journal for run {spec.run_id()!r} under "
                f"{self.journal_dir}; nothing to resume"
            )
        if existing is not None and (self.resume or not existing.merged):
            return existing
        return RunJournal.create(self.journal_dir, spec, shards,
                                 shard_size=self.shard_size)

    def _absorb(self, plan: _CampaignPlan, shard: FaultShard,
                payload: Dict[str, Any]) -> None:
        """Journal and accumulate one completed shard's outcomes."""
        outcomes: ShardOutcomes = {
            int(fault_id): (effect, cycles)
            for fault_id, (effect, cycles) in payload["outcomes"].items()
        }
        plan.journal.record_shard(shard, outcomes)
        plan.outcomes.update(outcomes)
        del plan.pending[shard.shard_id()]

    def _finish(self, plan: _CampaignPlan,
                store: Optional[ResultStore]) -> CampaignOutcome:
        """Merge a completed campaign, persist it, and close its journal."""
        elapsed = time.perf_counter() - plan.started if plan.started else 0.0
        with obs.span("merge", run_id=plan.prepared.spec.run_id()):
            outcome = merge_shard_outcomes(
                plan.prepared, plan.grouped, plan.outcomes,
                wall_clock_seconds=elapsed,
            )
        if store is not None:
            store.save(outcome)
        plan.journal.record_merged({
            "shards": len(plan.shards),
            "wall_clock_seconds": round(elapsed, 3),
        })
        obs_ctx = obs.active()
        if obs_ctx is not None:
            obs_ctx.campaign_done()
        return outcome
