"""The MeRLiN campaign: preprocessing, fault-list reduction, injection.

:class:`MerlinCampaign` orchestrates the three phases of Figure 2 on top of
a golden profiling run.  Its result carries everything the evaluation
section of the paper reports: the final classification over the *initial*
fault list (representative outcomes propagated to their groups plus the
ACE-like pruned faults counted as Masked), the classification restricted to
faults that hit vulnerable intervals (Figure 14), the speedups of the two
phases (Figures 8-10, 12, 13) and the per-fault predicted outcomes used for
accuracy and homogeneity studies.

The third phase is a plain injection campaign over the group
representatives: it runs through :meth:`ComprehensiveCampaign.run_shard`,
the same loop (pooled restore CPU, checkpoint-batch scheduling) the
comprehensive baseline and the cluster shard workers use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.grouping import GroupedFaults, group_faults
from repro.core.intervals import IntervalSet, build_interval_set
from repro.faults.campaign import ComprehensiveCampaign, ProgressCallback
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord, capture_golden
# Not called here (representatives inject through the campaign's
# run_shard); kept bound so call-site tracers that patch this module's
# injector name by attribute keep resolving it.
from repro.faults.injector import inject_fault  # noqa: F401
from repro.faults.model import FaultList
from repro.faults.models import FaultModel
from repro.faults.sampling import generate_fault_list
from repro.isa.program import Program
from repro.uarch.config import MicroarchConfig
from repro.uarch.structures import TargetStructure, structure_geometry


@dataclass(frozen=True)
class MerlinConfig:
    """Knobs of a MeRLiN campaign."""

    structure: TargetStructure
    initial_faults: Optional[int] = None
    error_margin: float = 0.0063
    confidence: float = 0.998
    seed: int = 0
    #: Fast-forward representative injections from golden checkpoints
    #: (cycle-sorted; bit-identical outcomes, shorter wall clock).
    use_checkpoints: bool = False
    #: Fault model the initial list is drawn with (None: the paper's
    #: single-bit transient).  Grouping keys off each fault's anchor —
    #: the first flip site — so every model flows through the same
    #: two-step reduction.
    fault_model: Optional[FaultModel] = None


@dataclass
class MerlinResult:
    """Outcome of a full MeRLiN campaign."""

    benchmark_name: str
    structure: TargetStructure
    grouped: GroupedFaults
    counts_final: ClassificationCounts
    counts_after_ace: ClassificationCounts
    predicted_outcomes: Dict[int, FaultEffectClass]
    representative_outcomes: Dict[int, FaultEffectClass]
    injections_performed: int
    wall_clock_seconds: float
    golden_cycles: int

    @property
    def avf(self) -> float:
        return self.counts_final.avf()

    @property
    def ace_speedup(self) -> float:
        return self.grouped.ace_speedup

    @property
    def total_speedup(self) -> float:
        return self.grouped.total_speedup

    @property
    def grouping_speedup(self) -> float:
        return self.grouped.grouping_speedup

    def describe(self) -> str:
        return (
            f"MeRLiN {self.benchmark_name}/{self.structure.short_name}: "
            f"{self.grouped.initial_faults} initial faults -> "
            f"{self.injections_performed} injections "
            f"({self.total_speedup:.1f}x), AVF={self.avf:.4f}"
        )


class MerlinCampaign:
    """Run the MeRLiN methodology for one benchmark, structure and configuration."""

    def __init__(
        self,
        program: Program,
        config: Optional[MicroarchConfig] = None,
        merlin_config: Optional[MerlinConfig] = None,
        golden: Optional[GoldenRecord] = None,
        baseline: Optional[ComprehensiveCampaign] = None,
    ):
        self.program = program
        self.config = config or MicroarchConfig()
        self.merlin_config = merlin_config or MerlinConfig(structure=TargetStructure.RF)
        self._golden = golden
        self._baseline = baseline
        self._intervals: Optional[IntervalSet] = None
        self._fault_list: Optional[FaultList] = None

    # ------------------------------------------------------------------
    # Phase 1: preprocessing
    # ------------------------------------------------------------------
    @property
    def golden(self) -> GoldenRecord:
        """The profiling/golden run (lazily captured, shared with callers)."""
        if self._golden is None:
            self._golden = capture_golden(self.program, self.config, trace=True)
        if self._golden.tracer is None:
            raise ValueError("MeRLiN requires a golden run captured with tracing enabled")
        return self._golden

    @property
    def intervals(self) -> IntervalSet:
        """ACE-like vulnerable intervals of the target structure."""
        if self._intervals is None:
            self._intervals = build_interval_set(
                self.golden.tracer, self.merlin_config.structure
            )
        return self._intervals

    def initial_fault_list(self) -> FaultList:
        """The statistically sampled initial fault list (Section 3.1.2)."""
        if self._fault_list is None:
            geometry = structure_geometry(self.merlin_config.structure, self.config)
            self._fault_list = generate_fault_list(
                geometry,
                total_cycles=self.golden.cycles,
                sample_size=self.merlin_config.initial_faults,
                error_margin=self.merlin_config.error_margin,
                confidence=self.merlin_config.confidence,
                seed=self.merlin_config.seed,
                model=self.merlin_config.fault_model,
            )
        return self._fault_list

    def use_fault_list(self, fault_list: FaultList) -> None:
        """Inject a caller-provided initial fault list (shared with a baseline)."""
        if fault_list.structure is not self.merlin_config.structure:
            raise ValueError("fault list targets a different structure")
        self._fault_list = fault_list

    # ------------------------------------------------------------------
    # Phase 2: fault list reduction
    # ------------------------------------------------------------------
    def reduce(self) -> GroupedFaults:
        """Run the two-step grouping algorithm over the initial fault list."""
        return group_faults(self.initial_fault_list(), self.intervals)

    # ------------------------------------------------------------------
    # Phase 3: fault injection campaign
    # ------------------------------------------------------------------
    def run(self, progress: Optional[ProgressCallback] = None) -> MerlinResult:
        """Run all three phases and return the MeRLiN reliability estimate.

        Phase 3 is a plain injection campaign over the representatives:
        they go through :meth:`ComprehensiveCampaign.run_shard` of the
        shared ``baseline`` when one was given (so they are simulated once
        for both methods), otherwise of a campaign local to this run.
        Their effects are then propagated to the groups in group order.
        ``progress`` receives ``(injections done, injections planned)``
        after each representative injection.
        """
        started = time.perf_counter()
        grouped = self.reduce()
        injection_groups = [
            group for group in grouped.groups if group.representative is not None
        ]
        campaign = self._baseline or ComprehensiveCampaign(
            self.golden, self.initial_fault_list(),
            use_checkpoints=self.merlin_config.use_checkpoints,
        )
        outcomes = campaign.run_shard(
            [group.representative for group in injection_groups], progress)

        representative_outcomes: Dict[int, FaultEffectClass] = {}
        predicted: Dict[int, FaultEffectClass] = {}
        counts_final = ClassificationCounts.empty()
        counts_after_ace = ClassificationCounts.empty()
        for group in injection_groups:
            effect = outcomes[group.representative.fault_id].effect
            representative_outcomes[group.representative.fault_id] = effect
            for fault_id in group.member_fault_ids():
                predicted[fault_id] = effect
                counts_final.add(effect)
                counts_after_ace.add(effect)

        for fault_id in grouped.masked_fault_ids:
            predicted[fault_id] = FaultEffectClass.MASKED
            counts_final.add(FaultEffectClass.MASKED)

        elapsed = time.perf_counter() - started
        return MerlinResult(
            benchmark_name=self.program.name,
            structure=self.merlin_config.structure,
            grouped=grouped,
            counts_final=counts_final,
            counts_after_ace=counts_after_ace,
            predicted_outcomes=predicted,
            representative_outcomes=representative_outcomes,
            injections_performed=len(injection_groups),
            wall_clock_seconds=elapsed,
            golden_cycles=self.golden.cycles,
        )
