"""Comprehensive (baseline) fault-injection campaigns.

A comprehensive campaign injects *every* fault of the initial statistical
fault list — this is the paper's baseline against which MeRLiN's speedup and
accuracy are measured.  The campaign driver caches per-fault outcomes so
that accuracy comparisons (which re-use the same fault list) do not pay for
double simulation.  :meth:`ComprehensiveCampaign.run_shard` is the one
in-process injection loop: MeRLiN's representatives, Relyzer's pilots and
the cluster engine's shards inject through it as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro import obs
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord
from repro.faults.injector import InjectionOutcome, inject_fault
from repro.faults.model import FaultList, FaultSpec
from repro.uarch.checkpoint import CpuState, new_restore_pool
from repro.uarch.pipeline import OutOfOrderCpu

#: Optional progress callback: (faults done, faults total).
ProgressCallback = Callable[[int, int], None]


@dataclass
class CampaignResult:
    """Aggregate result of an injection campaign."""

    structure_name: str
    benchmark_name: str
    counts: ClassificationCounts
    outcomes: Dict[int, FaultEffectClass] = field(default_factory=dict)
    injections_performed: int = 0
    wall_clock_seconds: float = 0.0
    simulated_cycles: int = 0

    @property
    def avf(self) -> float:
        # ClassificationCounts.avf() is 0.0 for an empty histogram, so an
        # empty fault list yields AVF 0 rather than a division by zero.
        return self.counts.avf()

    @staticmethod
    def tally(structure_name: str, benchmark_name: str,
              outcomes: Iterable[Tuple[int, FaultEffectClass, int]],
              wall_clock_seconds: float) -> "CampaignResult":
        """Count ``(fault id, effect, simulated cycles)`` outcomes in order."""
        result = CampaignResult(structure_name, benchmark_name,
                                ClassificationCounts.empty(),
                                wall_clock_seconds=wall_clock_seconds)
        for fault_id, effect, cycles in outcomes:
            result.counts.add(effect)
            result.outcomes[fault_id] = effect
            result.injections_performed += 1
            result.simulated_cycles += cycles
        return result

    def describe(self) -> str:
        return (
            f"{self.benchmark_name}/{self.structure_name}: "
            f"{self.injections_performed} injections, AVF={self.avf:.4f}, "
            f"{self.counts.describe()}"
        )


class ComprehensiveCampaign:
    """Inject every fault of a fault list and classify each outcome.

    ``use_checkpoints`` switches the campaign onto the fast-forward path:
    the golden run's checkpoint timeline is (lazily) captured, faults are
    injected in cycle order, so faults sharing a restore checkpoint run
    back to back, and each run restores golden state instead of
    cold-starting.  Classification outcomes are bit-identical either way;
    only the wall clock changes.
    """

    def __init__(self, golden: GoldenRecord, fault_list: FaultList,
                 simpoint_mode: bool = False, use_checkpoints: bool = False):
        self.golden = golden
        self.fault_list = fault_list
        self.simpoint_mode = simpoint_mode
        self.use_checkpoints = use_checkpoints
        self._outcome_cache: Dict[int, InjectionOutcome] = {}
        # One pooled restore CPU (plus its pristine cycle-0 state) shared
        # by every run/run_shard call of this campaign: every injection
        # restores either a golden checkpoint or the initial state into it,
        # so construction cost is paid once per campaign instead of once
        # per fault, batch or shard.
        self._pooled_cpu: Optional[OutOfOrderCpu] = None
        self._initial_state: Optional[CpuState] = None

    def _restore_pool(self) -> Tuple[OutOfOrderCpu, CpuState]:
        """The campaign's pooled CPU and its captured cycle-0 state."""
        if self._pooled_cpu is None:
            self._pooled_cpu, self._initial_state = new_restore_pool(
                self.golden.program, self.golden.config)
        return self._pooled_cpu, self._initial_state

    # ------------------------------------------------------------------
    def run_fault(self, fault: FaultSpec) -> InjectionOutcome:
        """Inject a single fault into the pooled CPU (memoised by fault id)."""
        cached = self._outcome_cache.get(fault.fault_id)
        if cached is not None:
            return cached
        outcome = inject_fault(
            self.golden, fault,
            simpoint_mode=self.simpoint_mode,
            fast_forward=self.use_checkpoints,
            pool=self._restore_pool(),
        )
        self._outcome_cache[fault.fault_id] = outcome
        return outcome

    def run(self, faults: Optional[Iterable[FaultSpec]] = None,
            progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Inject ``faults`` (default: the full list) and aggregate the outcome.

        :meth:`run_shard` plus :meth:`CampaignResult.tally` in fault-list order.
        """
        target = list(self.fault_list if faults is None else faults)
        started = time.perf_counter()  # repro-lint: disable=det-wallclock -- wall_clock_seconds is measurement, not identity
        shard = self.run_shard(target, progress)
        elapsed = time.perf_counter() - started  # repro-lint: disable=det-wallclock -- wall_clock_seconds is measurement, not identity
        return CampaignResult.tally(
            self.fault_list.structure.short_name,
            self.golden.program.name,
            ((fault.fault_id, shard[fault.fault_id].effect,
              shard[fault.fault_id].result.cycles) for fault in target),
            elapsed,
        )

    # ------------------------------------------------------------------
    def run_shard(self, faults: Iterable[FaultSpec],
                  progress: Optional[ProgressCallback] = None,
                  ) -> Dict[int, InjectionOutcome]:
        """Inject exactly ``faults`` and return per-fault outcomes by id.

        The one in-process injection loop: :meth:`run`, MeRLiN's
        representatives, Relyzer's pilots and the cluster engine's shard
        workers all inject through it.  Faults run into the campaign's
        pooled restore CPU, so a shard costs no more per fault than a
        whole campaign would.  The cold path keeps the given order; the
        fast-forward path sorts by injection cycle, so faults sharing a
        restore checkpoint run back to back (and repeated restores of one
        state take the dirty-set fast path).  ``progress`` receives
        ``(k, n)`` after the k-th of ``n`` injections.  Outcomes are
        memoised by fault id, so a fault already run by this campaign is
        not simulated again.
        """
        shard = list(faults)
        total = len(shard)
        if self.use_checkpoints:
            self.golden.ensure_checkpoints()
            shard.sort(key=lambda fault: (fault.cycle, fault.fault_id))
        outcomes: Dict[int, InjectionOutcome] = {}
        with obs.span("run_shard", faults=total,
                      structure=self.fault_list.structure.short_name):
            for done, fault in enumerate(shard, 1):
                outcomes[fault.fault_id] = self.run_fault(fault)
                if progress is not None:
                    progress(done, total)
        return outcomes

    # ------------------------------------------------------------------
    def cached_outcomes(self) -> Dict[int, InjectionOutcome]:
        """Return the memoised per-fault outcomes (used by accuracy studies)."""
        return dict(self._outcome_cache)
