"""The campaign façade: resolve specs, share expensive state, run campaigns.

A :class:`Session` is the one entry point for running campaigns.  It
resolves a :class:`~repro.api.spec.CampaignSpec` into programs, golden
runs and fault lists — memoising each by the spec's sub-identities so
campaigns that agree on (workload, scale, config) share one profiling run
and campaigns that additionally agree on (structure, budget, seed) share
one fault list while either is live, across
``merlin``/``comprehensive``/``both`` methods alike.  Results persist to an optional :class:`~repro.api.store.ResultStore`
keyed by :meth:`CampaignSpec.run_id`, so re-running a spec reloads the
stored artifact instead of re-simulating.

Three levels of access::

    Session().run(spec)       # -> CampaignOutcome (serializable summary)
    Session().execute(spec)   # -> CampaignExecution (live result objects)
    Session().prepare(spec)   # -> PreparedCampaign (shared golden/fault list)

``run`` is what the CLI and engines use; ``execute`` serves accuracy and
homogeneity studies that need per-fault outcomes; ``prepare`` serves
harnesses (like the experiment context and the cluster planner) that
wire their own campaigns on top of the shared state.  Both routes to an
outcome end in :meth:`PreparedCampaign.outcome`: ``execute`` with the
results it ran in-process, the cluster merge with results rebuilt from
shard outcomes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.api.result import CampaignOutcome, ComprehensiveSummary, MerlinSummary
from repro.api.spec import CampaignSpec
from repro.api.store import ResultStore
from repro.core.merlin import MerlinCampaign, MerlinResult
from repro.faults.campaign import (
    CampaignResult,
    ComprehensiveCampaign,
    ProgressCallback,
)
from repro.faults.golden import GoldenRecord, capture_golden
from repro.uarch.checkpoint import DEFAULT_INTERVAL
from repro.faults.model import FaultList
from repro.faults.sampling import generate_fault_list
from repro.isa.program import Program
from repro.uarch.structures import StructureGeometry, structure_geometry
from repro.workloads import build_cached, get_workload


@dataclass
class PreparedCampaign:
    """The shared, expensive-to-build inputs of one campaign spec."""

    spec: CampaignSpec
    program: Program
    golden: GoldenRecord
    geometry: StructureGeometry
    fault_list: FaultList
    #: Fast-forward injection runs from golden checkpoints (set by
    #: checkpointing sessions; outcomes stay bit-identical).
    use_checkpoints: bool = False

    def comprehensive_campaign(self) -> ComprehensiveCampaign:
        """A baseline campaign over the shared golden run and fault list."""
        return ComprehensiveCampaign(
            self.golden, self.fault_list, use_checkpoints=self.use_checkpoints
        )

    def outcome(self, merlin: Optional[MerlinResult] = None,
                comprehensive: Optional[CampaignResult] = None) -> CampaignOutcome:
        """The serializable outcome of this campaign's method results."""
        return CampaignOutcome(
            spec=self.spec,
            golden_cycles=self.golden.cycles,
            committed_instructions=self.golden.committed_instructions,
            total_bits=self.geometry.total_bits,
            merlin=MerlinSummary.from_result(merlin) if merlin is not None else None,
            comprehensive=(
                ComprehensiveSummary.from_result(comprehensive)
                if comprehensive is not None else None
            ),
        )


@dataclass
class CampaignExecution:
    """Live objects produced by :meth:`Session.execute` (one spec, one run)."""

    prepared: PreparedCampaign
    outcome: CampaignOutcome
    merlin: Optional[MerlinResult] = None
    comprehensive: Optional[CampaignResult] = None
    baseline_campaign: Optional[ComprehensiveCampaign] = None

    @property
    def spec(self) -> CampaignSpec:
        return self.prepared.spec

    @property
    def golden(self) -> GoldenRecord:
        return self.prepared.golden

    @property
    def fault_list(self) -> FaultList:
        return self.prepared.fault_list


class Session:
    """Resolve campaign specs, share state by identity, and run campaigns.

    ``checkpointing`` switches every campaign this session runs onto the
    checkpoint fast-forward engine: golden runs additionally capture a
    :class:`~repro.uarch.checkpoint.CheckpointTimeline` inline (a snapshot
    at cycle 0 and every 64 cycles after it, thinned to at most 32 by
    doubling the spacing), and injection runs restore from it instead of
    cold-starting.  Outcomes are bit-identical either way.

    ``artifact_cache`` (a :class:`~repro.cluster.artifacts.ArtifactCache`)
    adds an on-disk layer to a checkpointing session's golden lookup:
    :meth:`golden` consults the cache before simulating and persists what
    it builds, so distinct processes — the cluster coordinator and its
    pool workers above all — pay for each distinct golden run once per
    machine instead of once per process.
    """

    def __init__(self, store: Optional[ResultStore] = None,
                 checkpointing: bool = False,
                 artifact_cache=None):
        self.store = store
        self.checkpointing = checkpointing
        self.artifact_cache = artifact_cache
        self._custom_programs: Dict[str, Program] = {}
        self._programs: Dict[Tuple, Program] = {}
        self._goldens: Dict[Tuple, GoldenRecord] = {}
        # Weakly held: a Leveugle-sized list is tens of MB, so a long-lived
        # session must not keep every list it ever drew.
        self._fault_lists: "weakref.WeakValueDictionary[Tuple, FaultList]" = (
            weakref.WeakValueDictionary())

    # ------------------------------------------------------------------
    # Shared state, keyed by spec sub-identities
    # ------------------------------------------------------------------
    def register_program(self, program: Program) -> None:
        """Make a custom (non-registry) program addressable by spec workload.

        Specs referencing it must leave ``scale`` as ``None``; custom
        programs are session-local, so they cannot be fanned out through
        the process-pool engine.
        """
        try:
            get_workload(program.name)
        except KeyError:
            pass
        else:
            raise ValueError(
                f"{program.name!r} is a bundled workload; "
                "rename the custom program to avoid shadowing it"
            )
        self._custom_programs[program.name] = program

    def program(self, workload: str, scale: Optional[int] = None) -> Program:
        """The program for ``workload`` at ``scale`` (memoised).

        Registry workloads come from the process-wide decoded-program
        cache (:func:`repro.workloads.build_cached`), so sessions,
        engines and pool workers in one process share a single immutable
        instance per (workload, scale).
        """
        if workload in self._custom_programs:
            if scale is not None:
                raise ValueError(
                    f"custom program {workload!r} has a fixed scale; "
                    "leave spec.scale as None"
                )
            return self._custom_programs[workload]
        key = (workload, scale)
        if key not in self._programs:
            spec = get_workload(workload)
            build_scale = scale if scale is not None else spec.default_scale
            self._programs[key] = build_cached(workload, build_scale)
        return self._programs[key]

    def golden(self, spec: CampaignSpec) -> GoldenRecord:
        """The traced golden/profiling run for the spec's workload+config.

        Lookup order: in-memory memo, then (checkpointing sessions only)
        the on-disk artifact cache, then a fresh simulation (persisted
        back to the cache so the next process warm-starts).
        """
        key = spec.golden_key()
        # An artifact key names one timeline policy — the inline capture
        # below — so only a checkpointing session reads or writes the
        # cache.  Custom programs are session-local: the on-disk cache
        # only speaks registry identities, so a same-named program from
        # another session must never be resurrected for one.
        use_cache = (self.checkpointing
                     and self.artifact_cache is not None
                     and spec.workload not in self._custom_programs)
        if key not in self._goldens:
            cached = self.artifact_cache.load_golden(spec) if use_cache else None
            if cached is not None:
                self._goldens[key] = cached
            else:
                program = self.program(spec.workload, spec.scale)
                obs_ctx = obs.active()
                if obs_ctx is not None:
                    obs_ctx.golden_build()
                with obs.span("golden_build", workload=spec.workload):
                    self._goldens[key] = capture_golden(
                        program, spec.config, trace=True,
                        checkpoint_interval=(DEFAULT_INTERVAL
                                             if self.checkpointing else None),
                    )
                if use_cache:
                    self.artifact_cache.store_golden(spec, self._goldens[key])
        golden = self._goldens[key]
        if self.checkpointing and golden.checkpoints is None:
            # A golden captured earlier by a non-checkpointing run of this
            # session: add the timeline lazily (one verified replay under
            # the inline policy, memoised).  A session stores a golden
            # only when it captures one, so this timeline is not stored.
            golden.ensure_checkpoints()
        return golden

    def fault_list(self, spec: CampaignSpec) -> FaultList:
        """The initial statistical fault list for the spec.

        Memoised while live: callers asking for the same list while some
        caller still holds it get that very object; once the last holder
        drops it, the next call draws it again (same seed, same faults).
        The spec's fault model shapes both the draws (anchor-bit range,
        per-model population sizing) and the materialised scenarios; the
        model identity is part of the memo key, so campaigns differing
        only in model never share a list.
        """
        key = spec.fault_list_key()
        fault_list = self._fault_lists.get(key)
        if fault_list is None:
            golden = self.golden(spec)
            geometry = structure_geometry(spec.structure, spec.config)
            fault_list = generate_fault_list(
                geometry,
                golden.cycles,
                sample_size=spec.faults,
                error_margin=spec.error_margin,
                confidence=spec.confidence,
                seed=spec.seed,
                model=spec.fault_model_instance(),
            )
            self._fault_lists[key] = fault_list
        return fault_list

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------
    def prepare(self, spec: CampaignSpec) -> PreparedCampaign:
        """Resolve the spec into its shared golden run and fault list."""
        return PreparedCampaign(
            spec=spec,
            program=self.program(spec.workload, spec.scale),
            golden=self.golden(spec),
            geometry=structure_geometry(spec.structure, spec.config),
            fault_list=self.fault_list(spec),
            use_checkpoints=self.checkpointing,
        )

    def execute(
        self,
        spec: CampaignSpec,
        progress: Optional[ProgressCallback] = None,
    ) -> CampaignExecution:
        """Run the spec's method(s) and return live result objects.

        With ``method="both"`` the comprehensive campaign doubles as
        MeRLiN's injection backend, so representative injections are
        simulated once and shared.  ``progress`` receives per-injection
        ``(done, total)`` callbacks from whichever campaigns run; when both
        run, the comprehensive campaign's counts continue from where the
        MeRLiN campaign's ended, so ``done`` stays monotonic over the whole
        execution instead of restarting at zero mid-run.
        """
        prepared = self.prepare(spec)
        campaign = prepared.comprehensive_campaign()
        baseline = campaign if spec.runs_comprehensive else None

        merlin_progress = progress
        comprehensive_progress = progress
        if progress is not None and spec.runs_merlin and baseline is not None:
            reported = {"done": 0, "total": 0}

            def merlin_progress(done: int, total: int) -> None:
                reported["done"], reported["total"] = done, total
                progress(done, total)

            def comprehensive_progress(done: int, total: int) -> None:
                progress(reported["done"] + done, reported["total"] + total)

        merlin_result: Optional[MerlinResult] = None
        if spec.runs_merlin:
            merlin_result = MerlinCampaign(campaign).run(progress=merlin_progress)

        comprehensive_result: Optional[CampaignResult] = None
        if baseline is not None:
            comprehensive_result = baseline.run(progress=comprehensive_progress)

        outcome = prepared.outcome(merlin_result, comprehensive_result)
        return CampaignExecution(
            prepared=prepared,
            outcome=outcome,
            merlin=merlin_result,
            comprehensive=comprehensive_result,
            baseline_campaign=baseline,
        )

    def run(
        self,
        spec: CampaignSpec,
        progress: Optional[ProgressCallback] = None,
        refresh: bool = False,
    ) -> CampaignOutcome:
        """Run one campaign spec and return its serializable outcome.

        When the session has a :class:`ResultStore` and the spec's run id
        is already stored, the artifact is reloaded instead of re-simulated
        (pass ``refresh=True`` to force a re-run); fresh outcomes are
        persisted before returning.
        """
        if self.store is not None and not refresh:
            cached = self.store.get(spec.run_id())
            if cached is not None:
                return cached
        outcome = self.execute(spec, progress=progress).outcome
        if self.store is not None:
            self.store.save(outcome)
        return outcome

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Sizes of the identity-keyed caches (for tests and diagnostics)."""
        return {
            "programs": len(self._programs) + len(self._custom_programs),
            "goldens": len(self._goldens),
            "fault_lists": len(self._fault_lists),
        }
