"""Agent wire-protocol tests: every violation fails closed, never hangs.

A raw socket client plays coordinator against a real
:class:`~repro.cluster.agent.AgentServer` thread: version-mismatched
handshakes, malformed frames, oversized frames, half-closed streams and
unknown kinds must each draw one typed ``error`` frame (when the agent
can still answer) followed by a dropped connection — and the agent must
never execute a frame it could not fully parse.  The final test runs a
real campaign through :class:`~repro.cluster.transport.TcpAgentTransport`
end to end and checks the fingerprint against the serial engine.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

import repro.cluster.transport as transport_module
from repro.api import CampaignSpec, SerialEngine
from repro.cluster import ClusterEngine
from repro.cluster.agent import AgentServer
from repro.cluster.transport import (
    PROTOCOL_VERSION,
    HandshakeError,
    TcpAgentTransport,
    decode_frame,
    encode_frame,
)
from repro.testing import small_config
from repro.uarch.structures import TargetStructure
from repro.version import __version__

HELLO = {"kind": "hello", "protocol": PROTOCOL_VERSION,
         "simulator": __version__}


@pytest.fixture
def agent(tmp_path):
    server = AgentServer(cache_dir=str(tmp_path / "agent-cache"),
                         heartbeat_interval=0.05, max_frame_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive(), "agent thread failed to stop"


class Client:
    """A raw line-JSON client with hard timeouts: a hang fails the test."""

    def __init__(self, server: AgentServer, timeout: float = 5.0):
        self.sock = socket.create_connection(server.address, timeout=timeout)
        self.reader = self.sock.makefile("rb")

    def send(self, frame: dict) -> None:
        self.sock.sendall(encode_frame(frame, max_bytes=1 << 20))

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self):
        line = self.reader.readline()
        return decode_frame(line) if line else None

    def half_close(self) -> None:
        self.sock.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


@pytest.fixture
def client(agent):
    connection = Client(agent)
    yield connection
    connection.close()


def shake(client: Client) -> None:
    client.send(HELLO)
    assert client.recv() == {"kind": "welcome", "protocol": PROTOCOL_VERSION,
                             "simulator": __version__}


def assert_refused(client: Client, error: str) -> None:
    frame = client.recv()
    assert frame is not None, "agent closed without the typed error frame"
    assert frame["kind"] == "error"
    assert frame["error"] == error
    assert client.recv() is None, "agent must drop the connection"


def test_handshake_and_ping(client):
    shake(client)
    client.send({"kind": "ping"})
    assert client.recv() == {"kind": "pong"}


def test_handshake_rejects_wrong_protocol(client):
    client.send({**HELLO, "protocol": PROTOCOL_VERSION + 1})
    assert_refused(client, "handshake-rejected")


def test_handshake_rejects_wrong_simulator(client):
    client.send({**HELLO, "simulator": "0.0.0"})
    assert_refused(client, "handshake-rejected")


def test_handshake_rejects_non_hello_opening(client):
    client.send({"kind": "shard", "task_id": "sneaky"})
    assert_refused(client, "handshake-rejected")


def test_malformed_frame_fails_closed(client):
    shake(client)
    client.send_raw(b"this is not json\n")
    assert_refused(client, "malformed-frame")


def test_oversized_frame_fails_closed(client):
    shake(client)
    # Over the agent's 4096-byte cap but under the client's own.
    client.send({"kind": "shard", "task_id": "big", "pad": "x" * 8192})
    assert_refused(client, "frame-too-large")


def test_half_closed_socket_fails_closed_without_hanging(client):
    shake(client)
    client.send_raw(b'{"kind": "shard", "task_id": "to')  # no newline
    client.half_close()
    assert_refused(client, "connection-torn")


def test_unknown_kind_fails_closed(client):
    shake(client)
    client.send({"kind": "reboot"})
    assert_refused(client, "unknown-kind")


def test_worker_exception_reports_failed_not_silence(client):
    # A shard frame whose spec cannot even be parsed: the agent answers a
    # typed non-transient failure instead of tearing the connection.  The
    # frame also carries a key older coordinators sent, which is ignored.
    shake(client)
    client.send({"kind": "shard", "task_id": "bad", "spec": {},
                 "shard": {}, "checkpoint_interval": None, "obs": False})
    frame = client.recv()
    while frame is not None and frame["kind"] == "heartbeat":
        frame = client.recv()
    assert frame["kind"] == "failed"
    assert frame["task_id"] == "bad"
    assert frame["transient"] is False


def test_agent_heartbeats_during_slow_work(agent):
    beats = []

    def slow(_frame):
        time.sleep(0.2)
        return {"kind": "result", "task_id": "slow", "payload": {}}

    agent._run_heartbeating({"task_id": "slow"}, beats.append, slow)
    kinds = [frame["kind"] for frame in beats]
    assert kinds[-1] == "result"
    assert kinds.count("heartbeat") >= 2, "slow work must keep the lease"


def test_coordinator_rejects_mismatched_agent(agent, monkeypatch):
    # An older coordinator (different wire protocol) must be refused at
    # open() with a typed HandshakeError — never half-join the pool.
    monkeypatch.setattr(transport_module, "PROTOCOL_VERSION",
                        PROTOCOL_VERSION + 1)
    transport = TcpAgentTransport([f"127.0.0.1:{agent.address[1]}"])
    with pytest.raises(HandshakeError, match="handshake-rejected"):
        transport.open()


def test_coordinator_rejects_mismatched_simulator(agent, monkeypatch):
    monkeypatch.setattr(transport_module, "__version__", "0.0.0")
    transport = TcpAgentTransport([f"127.0.0.1:{agent.address[1]}"])
    with pytest.raises(HandshakeError, match="handshake-rejected"):
        transport.open()


class RecordingTransport(TcpAgentTransport):
    """A TCP transport that records every (host, warm key) it warms."""

    def __init__(self, hosts):
        super().__init__(hosts)
        self.warms = []

    def warm(self, host, task):
        self.warms.append((host, task.warm_key))
        super().warm(host, task)


def test_remote_engine_over_real_sockets_matches_serial(agent, tmp_path):
    spec = CampaignSpec(
        workload="sha", structure=TargetStructure.RF, config=small_config(),
        scale=1, faults=12, seed=3, method="comprehensive",
    )
    reference = SerialEngine().run([spec])[0].classification_fingerprint()
    transport = RecordingTransport([f"127.0.0.1:{agent.address[1]}"])
    engine = ClusterEngine(
        transport=transport,
        shard_size=5, cache_dir=tmp_path / "coordinator-cache",
    )
    outcome = engine.run([spec])[0]
    assert outcome.classification_fingerprint() == reference
    # One agent, warmed once for the campaign's one golden identity; with
    # a single host, finishing at all means it was never lost.
    assert len(transport.warms) == 1
