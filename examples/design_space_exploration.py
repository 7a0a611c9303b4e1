"""Design-space exploration: how does register-file sizing change reliability?

The paper motivates early microarchitecture-level reliability assessment as
a way to guide protection decisions.  This example expands a workloads x
register-file-sizes cross-product with :func:`repro.api.sweep`, fans it out
through an execution engine and prints the kind of table an architect would
use to decide where ECC is worth its cost — the same sweep as Figure
8/15/16.  Swap ``SerialEngine()`` for ``make_engine("process")`` to shard
the campaigns across every core; the results are bit-identical.

Run with:  python examples/design_space_exploration.py
"""

from __future__ import annotations

from repro.api import SerialEngine, config_axis, sweep
from repro.core.metrics import fit_rate
from repro.core.reporting import TableReport

WORKLOADS = ("sha", "qsort", "fft")
REGISTER_FILE_SIZES = (256, 128, 64)
FAULTS_PER_CAMPAIGN = 800


def main() -> None:
    specs = sweep(
        WORKLOADS,
        structures=("RF",),
        configs=config_axis(registers=REGISTER_FILE_SIZES),
        faults=FAULTS_PER_CAMPAIGN,
        seed=3,
    )
    outcomes = SerialEngine().run(specs)

    table = TableReport(
        title="Register-file sizing: AVF / FIT per configuration (MeRLiN estimates)",
        columns=["workload", "registers", "injections", "speedup", "AVF", "FIT"],
    )
    for outcome in outcomes:
        merlin = outcome.merlin
        table.add_row([
            outcome.spec.workload,
            outcome.spec.config.num_phys_int_regs,
            merlin.injections,
            round(merlin.total_speedup, 1),
            round(merlin.avf, 4),
            round(fit_rate(merlin.avf, outcome.total_bits), 3),
        ])
    table.add_note(
        "Smaller register files concentrate live values and raise the AVF, but "
        "larger ones expose more raw bits: the FIT column is what a designer "
        "would weigh against the area/power cost of protection."
    )
    print(table.render())


if __name__ == "__main__":
    main()
