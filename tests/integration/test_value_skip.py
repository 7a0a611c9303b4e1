"""Skipping to the next read, against the cold reference path.

A checkpointing campaign's injection runs skip ahead while they differ
from the golden run only in stored values: a run jumps to the last golden
checkpoint before the next read of such a value, and ends with the golden
result once no differing value is read again.  This differential injects
the representatives of test-scale MeRLiN SQ and L1D campaigns both ways —
through the campaign's pooled CPU with fast-forwarding, and on a fresh
CPU from cycle 0 — and requires every :class:`SimulationResult` field to
agree.  It also requires that the skip path jumped at least once and
ended at least one run on unread values, so it cannot pass vacuously.
A small kernel adds the case these campaigns may miss: a jump whose run
differs in a cell read later and in one the golden run overwrites only
after that read, or never accesses again, which the faulty run reads.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.merlin import reduce_fault_list
from repro.faults import injector
from repro.faults.campaign import ComprehensiveCampaign
from repro.faults.golden import capture_golden
from repro.faults.injector import inject_fault
from repro.faults.model import FaultSpec
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg as R
from repro.testing import shared_fault_list, small_config
from repro.uarch.checkpoint import DEFAULT_INTERVAL, new_restore_pool
from repro.uarch.config import MicroarchConfig
from repro.uarch.pipeline import OutOfOrderCpu
from repro.uarch.structures import TargetStructure
from repro.workloads.registry import build_program


@pytest.mark.parametrize("structure", [TargetStructure.SQ, TargetStructure.L1D],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("workload", ["qsort", "gcc"])
def test_merlin_representatives_skip_bit_identically(workload, structure,
                                                     monkeypatch):
    golden = capture_golden(build_program(workload, 1), MicroarchConfig(),
                            trace=True, checkpoint_interval=DEFAULT_INTERVAL)
    fault_list = shared_fault_list(golden, structure, sample_size=2000, seed=1)
    representatives = [group.representative
                       for group in reduce_fault_list(golden, fault_list).groups]
    campaign = ComprehensiveCampaign(golden, fault_list, use_checkpoints=True)

    jumps = []
    write_cells = injector.write_cells
    monkeypatch.setattr(injector, "write_cells", lambda cpu, cells: (
        jumps.append(cells), write_cells(cpu, cells)))
    with obs.observe() as ctx:
        warm = [campaign.run_fault(fault) for fault in representatives]
    monkeypatch.undo()

    for fault, skipped in zip(representatives, warm):
        cold = inject_fault(golden, fault)
        assert cold.effect == skipped.effect, fault.describe()
        for name in cold.result.__dataclass_fields__:
            assert getattr(cold.result, name) == getattr(skipped.result, name), (
                f"{fault.describe()}: SimulationResult.{name} differs")
    assert jumps, "no run jumped to a later checkpoint"
    assert ctx.registry.value("repro_run_end_total", reason="unread_values"), (
        "no run ended on unread values")


def build_carry_program(overwrite: bool):
    """Word X reads 0 and word Y, in the next line, 5; both lines are
    loaded first.  After a slow divide chain the run loads X and, only if
    it is not 0, loads Y and prints it.  The golden run prints X and then,
    with ``overwrite``, stores over Y, else never accesses Y again.
    Returns the program and X's address."""
    b = ProgramBuilder("carry")
    buf = b.alloc_words("buf", [0] * 8 + [5] * 8)
    b.movi(R.RDI, buf)
    b.load(R.R8, R.RDI, 0)
    b.load(R.R9, R.RDI, 64)
    b.movi(R.RDX, 0)
    for _ in range(16):
        b.div(R.RDX, R.RDX, 7)
    b.add(R.RBX, R.RDI, R.RDX)
    b.load(R.R10, R.RBX, 0)
    b.bne(R.R10, 0, "other")
    b.out(R.R10)
    if overwrite:
        b.store(R.R10, R.RDI, 64)
    b.halt()
    b.label("other")
    b.load(R.R11, R.RDI, 64)
    b.out(R.R11)
    b.halt()
    return b.build(), buf


FAULT_CYCLE = 40


@pytest.mark.parametrize("overwrite", [False, True],
                         ids=["never-accessed", "overwritten-after-the-read"])
def test_a_jump_carries_values_the_golden_run_does_not_read_first(overwrite,
                                                                  monkeypatch):
    program, x_address = build_carry_program(overwrite)
    config = small_config()
    golden = capture_golden(program, config, trace=False,
                            checkpoint_interval=DEFAULT_INTERVAL)
    entries = []

    def locate(cpu):
        if cpu.cycle == FAULT_CYCLE:
            dcache = cpu.dcache
            for address in (x_address, x_address + 64):
                set_index, tag, offset = dcache._locate(address)
                way = dcache._find_way(set_index, tag)
                entries.append(dcache.entry_index(set_index, way, offset // 8))
        return None

    OutOfOrderCpu(program, config).run(cycle_hook=locate)
    x, y = entries
    index = golden.checkpoints.dead_cells
    read = index.next_read(TargetStructure.L1D, x, FAULT_CYCLE)
    assert golden.checkpoints.nearest(read).cycle > 2 * DEFAULT_INTERVAL
    # Y's next golden access is an overwrite after X's read, or none.
    after = index.next_access(TargetStructure.L1D, y, FAULT_CYCLE)
    assert after is None if not overwrite else (after[0] > read and not after[1])

    # X becomes 1, so the run takes the other branch and prints Y, now 7.
    fault = FaultSpec(0, TargetStructure.L1D, entry=x, bit=0,
                      cycle=FAULT_CYCLE, model="multi-bit",
                      flips=((x, 0), (y, 1)))
    cold = inject_fault(golden, fault)
    assert cold.result.output == [7]

    jumps = []
    write_cells = injector.write_cells
    monkeypatch.setattr(injector, "write_cells", lambda cpu, cells: (
        jumps.append(cells), write_cells(cpu, cells)))
    warm = inject_fault(golden, fault, fast_forward=True,
                        pool=new_restore_pool(program, config))
    assert [sorted(entry for _, entry, _ in cells) for cells in jumps] == [
        sorted((x, y))]
    assert warm.effect == cold.effect
    assert warm.result == cold.result
