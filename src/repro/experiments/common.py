"""Shared infrastructure for the experiment harness.

The paper's campaigns use 60,000-fault lists per benchmark/structure/
configuration and run for months of simulated machine time; this harness
reproduces the *shape* of every figure at a reduced, configurable scale.
:class:`ExperimentScale` controls the benchmark subset, workload scale and
fault-list sizes; :class:`ExperimentContext` resolves campaigns through a
shared :class:`repro.api.Session`, whose identity-keyed caches ensure that
figures sharing a (benchmark, configuration) pair reuse one golden
profiling run and figures sharing a fault budget reuse one fault list.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.core.grouping import GroupedFaults
from repro.core.intervals import IntervalSet, build_interval_set
from repro.core.merlin import MerlinCampaign, MerlinResult, reduce_fault_list
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import ClassificationCounts, FaultEffectClass
from repro.faults.golden import GoldenRecord
from repro.faults.model import FaultList
from repro.isa.program import Program
from repro.uarch.config import (
    L1D_SIZES_KB,
    MicroarchConfig,
    REGISTER_FILE_SIZES,
    STORE_QUEUE_SIZES,
)
from repro.uarch.structures import TargetStructure, structure_config_label
from repro.workloads import MIBENCH_NAMES, SPEC_NAMES


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs of the experiment harness.

    The defaults keep every experiment in the tens of seconds on a laptop.
    ``paper()`` returns the configuration matching the paper (not runnable
    in reasonable time on the Python substrate; documented for completeness).
    """

    mibench: Tuple[str, ...] = MIBENCH_NAMES[:4]
    spec: Tuple[str, ...] = SPEC_NAMES[:4]
    workload_scale: Optional[int] = None          # None = each workload's default
    # Speedup figures never inject anything, so they can use the paper's own
    # fault-list sizes (60K / 600K); only the accuracy studies — which inject
    # every post-ACE fault of the baseline — need a reduced list.
    initial_faults: int = 60_000
    scaling_initial_faults: int = 600_000         # the "10x" list of Figure 13
    #: Figure 13 compares a "small" list with a 10x larger one; the pair is
    #: kept below the group-saturation point of the synthetic workloads so
    #: the injection count still grows with the list (as in the paper).
    scaling_pair: Tuple[int, int] = (2_000, 20_000)
    accuracy_faults: int = 200                    # initial list size for accuracy studies
    rf_sizes: Tuple[int, ...] = (64,)
    sq_sizes: Tuple[int, ...] = (16,)
    l1d_sizes_kb: Tuple[int, ...] = (16,)
    seed: int = 0
    assume_ace_masked: bool = True

    @staticmethod
    def quick() -> "ExperimentScale":
        """Smallest meaningful scale (used by the test suite)."""
        return ExperimentScale(
            mibench=MIBENCH_NAMES[:2],
            spec=SPEC_NAMES[:2],
            initial_faults=6_000,
            scaling_initial_faults=18_000,
            accuracy_faults=70,
        )

    @staticmethod
    def default() -> "ExperimentScale":
        return ExperimentScale()

    @staticmethod
    def full() -> "ExperimentScale":
        """All benchmarks, all structure sizes, still-reduced accuracy lists."""
        return ExperimentScale(
            mibench=MIBENCH_NAMES,
            spec=SPEC_NAMES,
            initial_faults=60_000,
            scaling_initial_faults=600_000,
            accuracy_faults=300,
            rf_sizes=REGISTER_FILE_SIZES,
            sq_sizes=STORE_QUEUE_SIZES,
            l1d_sizes_kb=L1D_SIZES_KB,
        )

    @staticmethod
    def paper() -> "ExperimentScale":
        """The paper's own campaign sizes (documented, not practical here)."""
        return ExperimentScale(
            mibench=MIBENCH_NAMES,
            spec=SPEC_NAMES,
            initial_faults=60_000,
            scaling_initial_faults=600_000,
            accuracy_faults=60_000,
            rf_sizes=REGISTER_FILE_SIZES,
            sq_sizes=STORE_QUEUE_SIZES,
            l1d_sizes_kb=L1D_SIZES_KB,
        )

    def with_faults(self, initial_faults: int) -> "ExperimentScale":
        return replace(self, initial_faults=initial_faults)


def structure_configs(structure: TargetStructure,
                      scale: ExperimentScale) -> List[Tuple[str, MicroarchConfig]]:
    """The (label, configuration) pairs evaluated for ``structure``."""
    base = MicroarchConfig()
    configs: List[Tuple[str, MicroarchConfig]] = []
    if structure is TargetStructure.RF:
        for size in scale.rf_sizes:
            config = base.with_register_file(size)
            configs.append((structure_config_label(structure, config), config))
    elif structure is TargetStructure.SQ:
        for size in scale.sq_sizes:
            config = base.with_store_queue(size)
            configs.append((structure_config_label(structure, config), config))
    else:
        for size in scale.l1d_sizes_kb:
            config = base.with_l1d(size)
            configs.append((structure_config_label(structure, config), config))
    return configs


def _benchmark_salt(benchmark: str, structure: TargetStructure) -> int:
    """Stable per-(benchmark, structure) seed offset.

    CRC-based rather than ``hash()`` so fault lists are reproducible across
    interpreter invocations (``hash`` of strings is salted per process).
    """
    return zlib.crc32(f"{benchmark}:{structure.name}".encode("utf-8")) % 10_000


@dataclass
class AccuracyStudy:
    """All the data the accuracy/homogeneity figures need for one campaign."""

    benchmark: str
    structure: TargetStructure
    config_label: str
    golden: GoldenRecord
    fault_list: FaultList
    grouped: GroupedFaults
    merlin: MerlinResult
    baseline_after_ace: ClassificationCounts
    baseline_full: ClassificationCounts
    baseline_outcomes: Dict[int, FaultEffectClass]
    ace_sample_verified: bool
    baseline_campaign: Optional[ComprehensiveCampaign] = None


class ExperimentContext:
    """Resolves experiment campaigns through a shared :class:`Session`.

    Programs, golden runs and fault lists are cached inside the session by
    spec identity; this context adds the experiment-specific layering on
    top (per-benchmark seed offsets, accuracy studies with the ACE-masked
    assumption) and memoises the studies themselves.
    """

    def __init__(self, scale: Optional[ExperimentScale] = None,
                 session: Optional[Session] = None):
        self.scale = scale or ExperimentScale.default()
        self.session = session or Session()
        self._studies: Dict[Tuple[str, TargetStructure, str, int], AccuracyStudy] = {}

    # ------------------------------------------------------------------
    def _spec(self, benchmark: str, structure: TargetStructure,
              config: MicroarchConfig, faults: Optional[int] = None,
              seed: int = 0, method: str = "merlin") -> CampaignSpec:
        return CampaignSpec(
            workload=benchmark,
            structure=structure,
            config=config,
            scale=self.scale.workload_scale,
            faults=faults,
            seed=seed,
            method=method,
        )

    def _list_seed(self, benchmark: str, structure: TargetStructure,
                   seed_offset: int = 0) -> int:
        return self.scale.seed + seed_offset + _benchmark_salt(benchmark, structure)

    # ------------------------------------------------------------------
    def program(self, benchmark: str) -> Program:
        return self.session.program(benchmark, self.scale.workload_scale)

    def golden(self, benchmark: str, config: MicroarchConfig) -> GoldenRecord:
        return self.session.golden(self._spec(benchmark, TargetStructure.RF, config))

    # ------------------------------------------------------------------
    def fault_list(self, benchmark: str, structure: TargetStructure,
                   config: MicroarchConfig, count: int, seed_offset: int = 0) -> FaultList:
        seed = self._list_seed(benchmark, structure, seed_offset)
        return self.session.fault_list(
            self._spec(benchmark, structure, config, faults=count, seed=seed)
        )

    def grouping(self, benchmark: str, structure: TargetStructure,
                 config: MicroarchConfig, count: Optional[int] = None,
                 seed_offset: int = 0) -> GroupedFaults:
        """Run only the preprocessing + reduction phases (no injections)."""
        count = count if count is not None else self.scale.initial_faults
        fault_list = self.fault_list(benchmark, structure, config, count, seed_offset)
        return reduce_fault_list(self.golden(benchmark, config), fault_list)

    def intervals(self, benchmark: str, structure: TargetStructure,
                  config: MicroarchConfig) -> IntervalSet:
        golden = self.golden(benchmark, config)
        return build_interval_set(golden.tracer, structure)

    # ------------------------------------------------------------------
    def accuracy_study(self, benchmark: str, structure: TargetStructure,
                       config: MicroarchConfig, config_label: str,
                       faults: Optional[int] = None) -> AccuracyStudy:
        """Run MeRLiN and the baseline over a shared fault list (memoised).

        The baseline injects every fault that survives the ACE-like pruning;
        faults pruned by the ACE-like step are counted as Masked in the
        full-list baseline when ``assume_ace_masked`` is set (a sample of
        them is injected to verify the assumption), which is what keeps the
        accuracy figures tractable at laptop scale.
        """
        faults = faults if faults is not None else self.scale.accuracy_faults
        key = (benchmark, structure, config_label, faults)
        if key in self._studies:
            return self._studies[key]

        spec = self._spec(
            benchmark, structure, config, faults=faults,
            seed=self._list_seed(benchmark, structure), method="both",
        )
        prepared = self.session.prepare(spec)
        fault_list = prepared.fault_list
        baseline = prepared.comprehensive_campaign()
        merlin_result = MerlinCampaign(baseline).run()
        grouped = merlin_result.grouped

        # Baseline over the faults that hit vulnerable intervals (Figure 14's
        # reference), reusing the memoised outcomes of the shared campaign.
        pruned = set(grouped.masked_fault_ids)
        after_ace_faults = [fault for fault in fault_list if fault.fault_id not in pruned]
        after_ace_result = baseline.run(after_ace_faults)

        # Verify on a small sample that ACE-pruned faults are indeed masked,
        # then extend the baseline to the full list.
        sample = [fault for fault in fault_list if fault.fault_id in pruned][:8]
        sample_ok = all(
            baseline.run_fault(fault).effect is FaultEffectClass.MASKED for fault in sample
        )
        baseline_full = ClassificationCounts.empty()
        baseline_outcomes: Dict[int, FaultEffectClass] = dict(after_ace_result.outcomes)
        for label, count in after_ace_result.counts.counts.items():
            baseline_full.add(label, count)
        if self.scale.assume_ace_masked:
            remaining_masked = len(pruned)
            baseline_full.add(FaultEffectClass.MASKED, remaining_masked)
            for fault_id in pruned:
                baseline_outcomes[fault_id] = FaultEffectClass.MASKED
        else:
            pruned_result = baseline.run(
                [fault for fault in fault_list if fault.fault_id in pruned]
            )
            baseline_full = baseline_full.merge(pruned_result.counts)
            baseline_outcomes.update(pruned_result.outcomes)

        study = AccuracyStudy(
            benchmark=benchmark,
            structure=structure,
            config_label=config_label,
            golden=prepared.golden,
            fault_list=fault_list,
            grouped=grouped,
            merlin=merlin_result,
            baseline_after_ace=after_ace_result.counts,
            baseline_full=baseline_full,
            baseline_outcomes=baseline_outcomes,
            ace_sample_verified=sample_ok,
            baseline_campaign=baseline,
        )
        self._studies[key] = study
        return study

    # ------------------------------------------------------------------
    def benchmarks(self, suite: str = "mibench") -> Sequence[str]:
        return self.scale.mibench if suite == "mibench" else self.scale.spec
