"""Table 4: MeRLiN accuracy for gcc and bzip2 with SimPoint-terminated runs.

Section 4.4.3.4 injects register-file faults in the gcc and bzip2 SimPoints
and terminates every run at the end of the interval; the outcome taxonomy
therefore gains an ``Unknown`` class for faults that are still latent at
the interval end.  The harness runs MeRLiN and the comprehensive baseline
in the same SimPoint mode and prints the two columns per benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.merlin import reduce_fault_list
from repro.core.reporting import TableReport
from repro.experiments.common import ExperimentContext, ExperimentScale
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.classification import ClassificationCounts, SimpointEffectClass
from repro.faults.sampling import generate_fault_list
from repro.uarch.config import SPEC_CONFIG
from repro.uarch.structures import TargetStructure, structure_geometry

#: Benchmarks of Table 4.
TABLE4_BENCHMARKS = ("gcc", "bzip2")


def _simpoint_campaign(context: ExperimentContext, benchmark: str,
                       faults: int) -> Dict[str, ClassificationCounts]:
    """Run MeRLiN and the baseline in SimPoint mode for one benchmark."""
    golden = context.golden(benchmark, SPEC_CONFIG)
    geometry = structure_geometry(TargetStructure.RF, SPEC_CONFIG)
    fault_list = generate_fault_list(
        geometry, golden.cycles, sample_size=faults, seed=context.scale.seed + 17
    )
    grouped = reduce_fault_list(golden, fault_list)
    # run_fault memoises by fault id: representatives are simulated once
    # for both columns.
    campaign = ComprehensiveCampaign(golden, fault_list, simpoint_mode=True)

    baseline = ClassificationCounts.empty(SimpointEffectClass)
    pruned = set(grouped.masked_fault_ids)
    for fault in fault_list:
        if fault.fault_id in pruned:
            baseline.add(SimpointEffectClass.MASKED)
        else:
            baseline.add(campaign.run_fault(fault).simpoint_effect)

    merlin = ClassificationCounts.empty(SimpointEffectClass)
    for group in grouped.groups:
        effect = campaign.run_fault(group.representative).simpoint_effect
        merlin.add(effect, weight=group.size)
    merlin.add(SimpointEffectClass.MASKED, weight=len(grouped.masked_fault_ids))

    return {"baseline": baseline, "merlin": merlin}


def run(scale: Optional[ExperimentScale] = None,
        context: Optional[ExperimentContext] = None) -> TableReport:
    context = context or ExperimentContext(scale)
    faults = max(60, context.scale.accuracy_faults // 2)
    classes = list(SimpointEffectClass)
    table = TableReport(
        title="Table 4: MeRLiN accuracy for gcc and bzip2 (SimPoint-terminated runs)",
        columns=["Category"] + [
            f"{name} ({method})" for name in TABLE4_BENCHMARKS for method in ("MeRLiN", "baseline")
        ],
    )
    results = {name: _simpoint_campaign(context, name, faults) for name in TABLE4_BENCHMARKS}
    for effect in classes:
        row = [effect.value]
        for name in TABLE4_BENCHMARKS:
            row.append(f"{results[name]['merlin'].fraction(effect) * 100:.2f}%")
            row.append(f"{results[name]['baseline'].fraction(effect) * 100:.2f}%")
        table.add_row(row)
    table.add_note(
        "The paper reports a maximum MeRLiN-vs-baseline difference of 1.11 "
        "percentile points (Unknown class of bzip2)."
    )
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
