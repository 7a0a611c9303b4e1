"""Unit tests for the worker-transport seam: frames, local pool, fake.

The frame codec must fail closed on every malformed input (typed errors,
never a hang or a half-parsed frame), the local transport must preserve
the process-pool semantics the cluster engine always had, and the fake
transport's chaos schedule must be deterministic — it is the instrument
the chaos/differential suites calibrate against.
"""

from __future__ import annotations

import io

import pytest

from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    ConnectionClosedError,
    FakeTransport,
    FrameBuffer,
    FrameTooLargeError,
    Heartbeat,
    HostDown,
    LocalPoolTransport,
    ProtocolError,
    ShardFailed,
    ShardResult,
    ShardTask,
    decode_frame,
    encode_frame,
    read_frame,
)


def task_of(task_id: str = "t1") -> ShardTask:
    return ShardTask(task_id=task_id, spec={}, shard={}, obs_enabled=False,
                     warm_key="golden-key")


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    frame = {"kind": "result", "task_id": "a", "payload": {"x": [1, 2]}}
    encoded = encode_frame(frame)
    assert encoded.endswith(b"\n")
    assert decode_frame(encoded) == frame


def test_encode_rejects_oversized_frames():
    with pytest.raises(FrameTooLargeError):
        encode_frame({"kind": "result", "blob": "x" * 64}, max_bytes=32)


@pytest.mark.parametrize("line", [
    b"not json at all\n",
    b'{"truncated": \n',
    b'[1, 2, 3]\n',          # valid JSON, wrong shape
    b'{"no-kind": true}\n',  # object without a kind
    b'{"kind": 7}\n',        # kind is not a string
    b"\xff\xfe\n",           # not UTF-8
])
def test_decode_rejects_malformed_frames(line):
    with pytest.raises(ProtocolError):
        decode_frame(line)


def test_read_frame_clean_eof_returns_none():
    assert read_frame(io.BytesIO(b"")) is None


def test_read_frame_rejects_half_closed_stream():
    # EOF mid-line: the torn fragment must never parse as a frame.
    with pytest.raises(ConnectionClosedError):
        read_frame(io.BytesIO(b'{"kind": "result"'))


def test_read_frame_rejects_oversized_lines():
    data = b'{"kind": "x", "pad": "' + b"y" * 100 + b'"}\n'
    with pytest.raises(FrameTooLargeError):
        read_frame(io.BytesIO(data), max_bytes=50)


def test_frame_buffer_reassembles_split_frames():
    buffer = FrameBuffer()
    assert buffer.feed(b'{"kind": "heart') == []
    frames = buffer.feed(b'beat"}\n{"kind": "pong"}\n{"kind":')
    assert [frame["kind"] for frame in frames] == ["heartbeat", "pong"]
    assert buffer.feed(b' "bye"}\n') == [{"kind": "bye"}]
    buffer.close()  # nothing dangling


def test_frame_buffer_rejects_unbounded_fragments():
    buffer = FrameBuffer(max_bytes=64)
    with pytest.raises(FrameTooLargeError):
        buffer.feed(b"x" * 100)


def test_frame_buffer_close_rejects_dangling_fragment():
    buffer = FrameBuffer()
    buffer.feed(b'{"kind": "resu')
    with pytest.raises(ConnectionClosedError):
        buffer.close()


# ----------------------------------------------------------------------
# LocalPoolTransport
# ----------------------------------------------------------------------
def test_local_transport_runs_patched_worker(monkeypatch, tmp_path):
    # The engine's tests monkeypatch the worker entry point; dispatch
    # must resolve it late so the seam stays patchable.
    calls = {}

    def fake_worker(spec, shard, cache_dir, obs_enabled=False):
        calls["args"] = (spec, shard, cache_dir, obs_enabled)
        return {"shard_id": "s", "outcomes": {}}

    import repro.cluster.engine as engine_module

    class ImmediatePool:
        def submit(self, fn, *args):
            from concurrent.futures import Future

            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True):
            pass

    transport = LocalPoolTransport(max_workers=2, cache_dir=str(tmp_path))
    monkeypatch.setattr(engine_module, "_run_shard_worker", fake_worker)
    hosts = transport.open()
    assert hosts == ["local/0", "local/1"]
    transport._pool.shutdown(wait=True)
    transport._pool = ImmediatePool()
    transport.dispatch(hosts[0], task_of())
    events = transport.poll(timeout=1.0)
    assert [type(event) for event in events] == [ShardResult]
    assert calls["args"][2] == str(tmp_path)
    transport.close()


def test_local_transport_failure_is_not_transient(tmp_path):
    class FailingPool:
        def submit(self, fn, *args):
            from concurrent.futures import Future

            future = Future()
            future.set_exception(RuntimeError("boom"))
            return future

        def shutdown(self, wait=True):
            pass

    transport = LocalPoolTransport(max_workers=1, cache_dir=str(tmp_path))
    hosts = transport.open()
    transport._pool.shutdown(wait=True)
    transport._pool = FailingPool()
    transport.dispatch(hosts[0], task_of())
    events = transport.poll(timeout=1.0)
    assert len(events) == 1
    failure = events[0]
    assert isinstance(failure, ShardFailed)
    assert not failure.transient
    assert "boom" in failure.error
    assert isinstance(failure.cause, RuntimeError)
    transport.close()


# ----------------------------------------------------------------------
# FakeTransport
# ----------------------------------------------------------------------
def synthetic(task: ShardTask) -> dict:
    return {"shard_id": task.task_id, "outcomes": {"1": ["Masked", 10],
                                                   "2": ["SDC", 11]}}


def test_fake_transport_rejects_unknown_actions_eagerly():
    with pytest.raises(ValueError, match="unknown fake-transport action"):
        FakeTransport(schedule=["explode"])
    with pytest.raises(ValueError, match="workers"):
        FakeTransport(workers=0)


def test_fake_transport_seeded_schedule_is_deterministic():
    first = FakeTransport.seeded_schedule(42, 30)
    again = FakeTransport.seeded_schedule(42, 30)
    other = FakeTransport.seeded_schedule(43, 30)
    assert first == again
    assert first != other
    assert any(action == "die" for action in first)


def test_fake_transport_die_emits_hostdown_and_loses_result():
    transport = FakeTransport(workers=2, schedule=["die"], executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    events = transport.poll(0.0)
    assert events == [HostDown(hosts[0], "injected mid-shard death")]
    # The dead host refuses further dispatches.
    from repro.cluster.transport import HostLostError

    with pytest.raises(HostLostError):
        transport.dispatch(hosts[0], task_of("b"))


def test_fake_transport_protects_the_last_survivor():
    transport = FakeTransport(workers=1, schedule=["die"], executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    events = transport.poll(0.0)
    # The lethal action was downgraded: the shard completes instead.
    assert [type(event) for event in events] == [ShardResult]


def test_fake_transport_total_loss_when_unprotected():
    transport = FakeTransport(workers=1, schedule=["die"],
                              executor=synthetic, protect_last_host=False)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    assert [type(event) for event in transport.poll(0.0)] == [HostDown]


def test_fake_transport_slow_heartbeats_then_delivers():
    transport = FakeTransport(workers=1, schedule=["slow:3"],
                              executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    assert transport.poll(0.0) == [Heartbeat(hosts[0], "a")]
    assert transport.poll(0.0) == [Heartbeat(hosts[0], "a")]
    events = transport.poll(0.0)
    assert [type(event) for event in events] == [ShardResult]
    assert transport.clock() == pytest.approx(3.0)


def test_fake_transport_late_is_silent_then_delivers_and_retires():
    transport = FakeTransport(workers=2, schedule=["late:2"],
                              executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    assert transport.poll(0.0) == []  # no heartbeat: looks dead
    events = transport.poll(0.0)
    assert [type(event) for event in events] == [ShardResult]
    from repro.cluster.transport import HostLostError

    with pytest.raises(HostLostError):  # zombie host is retired
        transport.dispatch(hosts[0], task_of("b"))


def test_fake_transport_torn_payload_loses_outcomes():
    transport = FakeTransport(workers=1, schedule=["torn"],
                              executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    [event] = transport.poll(0.0)
    assert isinstance(event, ShardResult)
    assert len(event.payload["outcomes"]) < 2


def test_fake_transport_duplicate_delivers_twice():
    transport = FakeTransport(workers=1, schedule=["duplicate"],
                              executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    events = transport.poll(0.0)
    assert [type(event) for event in events] == [ShardResult, ShardResult]
    assert events[0] == events[1]


def test_fake_transport_failure_flavours():
    transport = FakeTransport(workers=2, schedule=["fail", "fatal"],
                              executor=synthetic)
    hosts = transport.open()
    transport.dispatch(hosts[0], task_of("a"))
    transport.dispatch(hosts[1], task_of("b"))
    events = transport.poll(0.0)
    flavours = {event.task_id: event.transient for event in events}
    assert flavours == {"a": True, "b": False}


def test_fake_transport_records_warms():
    transport = FakeTransport(workers=1, executor=synthetic)
    hosts = transport.open()
    transport.warm(hosts[0], task_of("a"))
    assert transport.warms == [(hosts[0], "golden-key")]


def test_default_frame_cap_is_generous():
    # Shard payloads are a few KB; the cap is a guard against runaway
    # buffers, not a practical ceiling.
    assert MAX_FRAME_BYTES >= 1024 * 1024
