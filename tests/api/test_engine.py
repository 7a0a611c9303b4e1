"""Execution engines: serial/process/checkpoint equivalence, progress, failures."""

import pytest

from repro.api import (
    ResultStore,
    SerialEngine,
    config_axis,
    make_engine,
    sweep,
)
from repro.cluster import ClusterEngine
from repro.uarch.config import MicroarchConfig


def tiny_sweep():
    return sweep(
        ["sha", "qsort"],
        structures=("RF",),
        configs=config_axis(registers=(64,)),
        faults=40,
        scale=1,
        seed=0,
    )


def test_sweep_expands_cross_product():
    specs = sweep(
        ["sha", "qsort"],
        structures=("RF", "SQ"),
        configs=config_axis(registers=(128, 64)),
        faults=40,
    )
    assert len(specs) == 2 * 2 * 2
    assert len({spec.run_id() for spec in specs}) == len(specs)
    # Workload-major ordering keeps each workload's campaigns adjacent.
    assert [spec.workload for spec in specs[:4]] == ["sha"] * 4


def test_sweep_rejects_unknown_structure():
    with pytest.raises(ValueError):
        sweep(["sha"], structures=("ROB",))


def test_config_axis_combinations():
    assert config_axis() == [MicroarchConfig()]
    axis = config_axis(registers=(128, 64), sq_entries=(16,))
    assert len(axis) == 2
    assert {config.num_phys_int_regs for config in axis} == {128, 64}
    assert all(config.store_queue_entries == 16 for config in axis)


def test_serial_engine_runs_in_order_with_progress():
    specs = tiny_sweep()
    events = []
    outcomes = SerialEngine().run(
        specs, progress=lambda done, total: events.append((done, total))
    )
    assert [outcome.spec for outcome in outcomes] == specs
    assert events == [(1, 2), (2, 2)]


def test_process_engine_matches_serial_bit_for_bit(tmp_path):
    specs = tiny_sweep()
    serial = SerialEngine().run(specs)
    process = make_engine("process", max_workers=2,
                          cache_dir=str(tmp_path / "cache")).run(
        specs, store=ResultStore(tmp_path / "store")
    )
    assert len(process) == len(serial)
    for left, right in zip(serial, process):
        assert left.classification_fingerprint() == right.classification_fingerprint()


def test_process_engine_persists_to_store(tmp_path):
    store = ResultStore(tmp_path / "store")
    specs = tiny_sweep()
    events = []
    make_engine("process", max_workers=1, cache_dir=str(tmp_path / "cache")).run(
        specs, store=store, progress=lambda done, total: events.append((done, total))
    )
    assert sorted(store.run_ids()) == sorted(spec.run_id() for spec in specs)
    # Progress counts shards, and the last report says they all finished.
    done, total = events[-1]
    assert done == total >= len(specs)


def _failing_shard_worker(*args, **kwargs):
    # Module-level so the pool can pickle it by reference.
    raise ValueError("injected shard failure")


def test_process_engine_failure_chains_the_worker_exception(tmp_path,
                                                             monkeypatch):
    """A worker exception surfaces chained, naming the campaign's run id.

    The shard worker is patched in the parent; the fork-started pool
    children inherit the patched module.
    """
    import repro.cluster.engine as cluster_engine

    monkeypatch.setattr(cluster_engine, "_run_shard_worker",
                        _failing_shard_worker)
    spec = tiny_sweep()[0]
    engine = make_engine("process", max_workers=1, cache_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="failed in a worker") as failure:
        engine.run([spec])
    assert spec.run_id() in str(failure.value)
    assert isinstance(failure.value.__cause__, ValueError)
    assert "injected shard failure" in str(failure.value.__cause__)


def test_serial_engine_honors_store_with_injected_session(tmp_path):
    from repro.api import Session

    session = Session()
    store = ResultStore(tmp_path / "store")
    specs = tiny_sweep()[:1]
    SerialEngine(session).run(specs, store=store)
    assert store.run_ids() == [specs[0].run_id()]
    # The injected session's own (absent) store is restored afterwards.
    assert session.store is None


def test_make_engine():
    serial = make_engine("serial")
    assert isinstance(serial, SerialEngine) and not serial.checkpointing
    # process is an alias of cluster: the sharded engine over the local pool.
    process = make_engine("process", max_workers=3)
    assert isinstance(process, ClusterEngine)
    assert process.max_workers == 3 and process.transport is None
    checkpoint = make_engine("checkpoint")
    assert isinstance(checkpoint, SerialEngine) and checkpoint.checkpointing
    with pytest.raises(ValueError):
        make_engine("distributed")
    # A worker count the engine would ignore, or one that cannot size a
    # pool, is refused rather than dropped or read as "every core".
    for name in ("serial", "checkpoint"):
        with pytest.raises(ValueError, match="workers"):
            make_engine(name, max_workers=2)
    with pytest.raises(ValueError, match=">= 1"):
        make_engine("process", max_workers=0)
    with pytest.raises(ValueError, match=">= 1"):
        make_engine("cluster", max_workers=0)


def test_checkpoint_engine_matches_serial_bit_for_bit(tmp_path):
    specs = tiny_sweep()
    serial = SerialEngine().run(specs)
    checkpoint = make_engine("checkpoint").run(
        specs, store=ResultStore(tmp_path / "store")
    )
    assert len(checkpoint) == len(serial)
    for left, right in zip(serial, checkpoint):
        assert left.classification_fingerprint() == right.classification_fingerprint()


def test_checkpoint_engine_configures_injected_session_for_the_run_only():
    from repro.api import Session

    session = Session()
    engine = SerialEngine(session, checkpointing=True)
    engine.run(tiny_sweep()[:1])
    # The run itself used checkpointing...
    golden = next(iter(session._goldens.values()))
    assert golden.checkpoints is not None and len(golden.checkpoints) > 0
    # ...but the shared session is handed back unchanged, so a later
    # SerialEngine batch through it stays on the cold-start path.
    assert not session.checkpointing


def test_store_listing_and_delete(tmp_path):
    store = ResultStore(tmp_path / "store")
    specs = tiny_sweep()[:1]
    outcomes = SerialEngine().run(specs, store=store)
    run_id = outcomes[0].run_id
    assert store.run_ids() == [run_id]
    assert len(store) == 1
    loaded = list(store)[0]
    assert loaded.to_dict() == outcomes[0].to_dict()
    assert store.delete(run_id)
    assert not store.delete(run_id)
    assert store.get(run_id) is None
    with pytest.raises(ValueError):
        store.has("../escape")
