"""The pluggable worker-transport seam behind the cluster engine.

A :class:`WorkerTransport` is how a coordinator ships
:class:`ShardTask`s to injection hosts and hears back about them.  The
contract is deliberately narrow — ``open`` / ``dispatch`` / ``warm`` /
``poll`` / ``close`` plus a stream of typed :data:`TransportEvent`s — so
the lease/heartbeat/work-stealing loop in :mod:`repro.cluster.remote`
is written once and runs unchanged over:

* :class:`LocalPoolTransport` — a ``ProcessPoolExecutor`` fan-out (the
  default behind :class:`~repro.cluster.engine.ClusterEngine`, i.e.
  ``--engine process``/``cluster``), where hosts are virtual lease slots
  on this machine and heartbeats are synthesised (a local future cannot
  silently vanish);
* ``TcpAgentTransport`` (below) — line-JSON worker agents started with
  ``python -m repro.cluster.agent`` on remote machines (``--engine
  remote``);
* :class:`FakeTransport` — the in-memory chaos harness: a deterministic
  action schedule injects host deaths mid-shard, silent hangs, torn
  payloads, duplicate deliveries and transient failures, which is how
  the remote path is held to the same bit-identical standard as every
  other engine without real machines.

The wire format shared with the agent is one JSON object per line
(``\\n``-terminated, UTF-8, size-capped).  Every decode failure maps to
a *typed* error — :class:`ProtocolError`, :class:`FrameTooLargeError`,
:class:`ConnectionClosedError`, :class:`HandshakeError` — so both sides
fail closed instead of hanging or half-applying a frame.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.resilience.retry import RetryPolicy

from repro.version import __version__

#: Version of the coordinator<->agent wire protocol; both sides must
#: agree exactly (checked in the handshake before any work is accepted).
PROTOCOL_VERSION = 1

#: Hard cap on one frame's encoded size.  Oversized frames are rejected
#: with :class:`FrameTooLargeError` on both sides — an agent must never
#: buffer an unbounded line, and a coordinator must never journal one.
MAX_FRAME_BYTES = 8 * 1024 * 1024


# ----------------------------------------------------------------------
# Typed transport errors
# ----------------------------------------------------------------------
class TransportError(Exception):
    """Base for everything the transport layer can fail with."""


class TransientTransportError(TransportError):
    """A failure worth retrying with backoff (timeout, brief refusal)."""


class HostLostError(TransportError):
    """The connection to one host is gone; its leases must be re-leased."""

    def __init__(self, host: str, reason: str):
        super().__init__(f"host {host} lost: {reason}")
        self.host = host
        self.reason = reason


class ProtocolError(TransportError):
    """A frame violated the wire protocol (malformed, wrong shape)."""


class HandshakeError(ProtocolError):
    """The hello/welcome exchange failed (version or identity mismatch)."""


class FrameTooLargeError(ProtocolError):
    """A frame exceeded :data:`MAX_FRAME_BYTES`."""


class ConnectionClosedError(ProtocolError):
    """The peer closed (or half-closed) the stream mid-conversation."""


# ----------------------------------------------------------------------
# Frame codec (shared by the TCP transport and the agent)
# ----------------------------------------------------------------------
def encode_frame(record: Dict[str, Any],
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One JSON object, compact, newline-terminated, size-capped."""
    data = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(data) > max_bytes:
        raise FrameTooLargeError(
            f"frame of {len(data)} bytes exceeds the {max_bytes}-byte cap"
        )
    return data


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one complete frame line into a ``{"kind": ...}`` mapping."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as failure:
        raise ProtocolError(f"malformed frame: {failure}") from None
    if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
        raise ProtocolError("frame is not an object with a 'kind' field")
    return record


def write_frame(stream, record: Dict[str, Any],
                max_bytes: int = MAX_FRAME_BYTES) -> None:
    stream.write(encode_frame(record, max_bytes))
    stream.flush()


def read_frame(stream, max_bytes: int = MAX_FRAME_BYTES,
               ) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking binary stream.

    Returns ``None`` on a clean EOF (peer said everything it wanted to).
    An EOF in the *middle* of a line — a half-closed socket, a peer
    killed mid-write — raises :class:`ConnectionClosedError`: the torn
    fragment must never be parsed as a frame.
    """
    line = stream.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        raise FrameTooLargeError(
            f"frame exceeds the {max_bytes}-byte cap"
        )
    if not line.endswith(b"\n"):
        raise ConnectionClosedError("stream closed mid-frame")
    return decode_frame(line)


class FrameBuffer:
    """Incremental frame splitter for non-blocking socket reads.

    ``feed`` bytes as they arrive; complete frames come back decoded.
    The unterminated tail is bounded by the frame cap, and ``close``
    rejects a leftover fragment as a half-closed stream.
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buffer = b""

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer += data
        frames: List[Dict[str, Any]] = []
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                break
            line, self._buffer = (self._buffer[:newline + 1],
                                  self._buffer[newline + 1:])
            if len(line) > self.max_bytes:
                raise FrameTooLargeError(
                    f"frame exceeds the {self.max_bytes}-byte cap"
                )
            frames.append(decode_frame(line))
        if len(self._buffer) > self.max_bytes:
            raise FrameTooLargeError(
                f"unterminated frame exceeds the {self.max_bytes}-byte cap"
            )
        return frames

    def close(self) -> None:
        if self._buffer:
            raise ConnectionClosedError(
                f"stream closed mid-frame ({len(self._buffer)} dangling bytes)"
            )


# ----------------------------------------------------------------------
# Tasks and events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardTask:
    """One shard's worth of work, self-contained for any host.

    ``spec`` and ``shard`` are the plain JSON-shaped dictionaries the
    pool workers already consume (:meth:`CampaignSpec.to_dict`,
    :meth:`FaultShard.to_dict`), so a task needs nothing from the
    coordinator's memory to execute anywhere.  ``warm_key`` is the
    golden-artifact identity (:func:`~repro.cluster.artifacts.golden_cache_key`)
    the coordinator uses to warm each host's cache once per identity.
    """

    task_id: str
    spec: Dict[str, Any]
    shard: Dict[str, Any]
    obs_enabled: bool
    warm_key: str = ""


@dataclass(frozen=True)
class ShardResult:
    """A host delivered a (claimed) completed shard payload."""

    host: str
    task_id: str
    payload: Dict[str, Any]


@dataclass(frozen=True)
class ShardFailed:
    """A host reports the shard raised; ``transient`` failures retry.

    ``cause`` is the exception itself when the transport has it (a local
    pool future, with the worker traceback), so a fatal failure chains.
    """

    host: str
    task_id: str
    error: str
    transient: bool
    cause: Optional[BaseException] = field(default=None, compare=False)


@dataclass(frozen=True)
class Heartbeat:
    """A host is alive and still working (``task_id`` may be ``None``)."""

    host: str
    task_id: Optional[str] = None


@dataclass(frozen=True)
class HostDown:
    """A host is gone; every lease it held must be stolen."""

    host: str
    reason: str


TransportEvent = Union[ShardResult, ShardFailed, Heartbeat, HostDown]


class WorkerTransport(Protocol):
    """The seam the coordinator loop drives."""

    name: str

    def open(self) -> List[str]:
        """Connect and return the host names available for leasing."""
        ...

    def capacity(self, host: str) -> int:
        """Concurrent shards ``host`` accepts (usually 1)."""
        ...

    def warm(self, host: str, task: ShardTask) -> None:
        """Ask ``host`` to pre-build/load the task's golden artifact."""
        ...

    def dispatch(self, host: str, task: ShardTask) -> None:
        """Ship one shard to ``host``; raises a typed error on failure."""
        ...

    def poll(self, timeout: float) -> List[TransportEvent]:
        """Wait up to ``timeout`` seconds and return what happened."""
        ...

    def close(self) -> None:
        """Tear down connections / pools; abandon undelivered work."""
        ...


# ----------------------------------------------------------------------
# LocalPoolTransport — the local process pool behind the seam
# ----------------------------------------------------------------------
class LocalPoolTransport:
    """Process-pool workers on this machine, presented as lease slots.

    Hosts are virtual (``local/0`` ... ``local/N-1``): the pool assigns
    work to whichever worker process is idle, the slot names only bound
    how many shards are in flight.  Heartbeats are synthesised for every
    outstanding future on each poll — a local future either completes or
    raises, it cannot silently vanish, so leases never expire here.
    ``warm`` is a no-op: the coordinator stores every golden in the
    machine-shared :class:`~repro.cluster.artifacts.ArtifactCache`
    during planning, which *is* the warm-up for same-machine workers.
    """

    name = "local"

    def __init__(self, max_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.max_workers = max_workers
        self.cache_dir = cache_dir
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Any, Tuple[str, ShardTask]] = {}

    def open(self) -> List[str]:
        count = (self.max_workers if self.max_workers is not None
                 else os.cpu_count() or 1)
        self._pool = ProcessPoolExecutor(max_workers=count)
        self._futures = {}
        return [f"local/{slot}" for slot in range(count)]

    def capacity(self, host: str) -> int:
        return 1

    def warm(self, host: str, task: ShardTask) -> None:
        return None

    def dispatch(self, host: str, task: ShardTask) -> None:
        if self._pool is None:
            raise TransportError("transport is not open")
        # Late attribute lookup so tests that monkeypatch the worker
        # entry point in repro.cluster.engine keep working.
        from repro.cluster import engine as _engine

        future = self._pool.submit(
            _engine._run_shard_worker,
            task.spec, task.shard, str(self.cache_dir), task.obs_enabled,
        )
        self._futures[future] = (host, task)

    def poll(self, timeout: float) -> List[TransportEvent]:
        events: List[TransportEvent] = []
        if not self._futures:
            return events
        finished, _ = wait(self._futures, timeout=timeout,
                           return_when=FIRST_COMPLETED)
        for future in finished:
            host, task = self._futures.pop(future)
            try:
                payload = future.result()
            except Exception as failure:
                events.append(ShardFailed(host, task.task_id,
                                          repr(failure), transient=False,
                                          cause=failure))
            else:
                events.append(ShardResult(host, task.task_id, payload))
        for host, task in self._futures.values():
            events.append(Heartbeat(host, task.task_id))
        return events

    def close(self) -> None:
        for future in self._futures:
            future.cancel()
        self._futures = {}
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# FakeTransport — the fault-injecting harness
# ----------------------------------------------------------------------
#: Chaos actions a schedule can apply to the Nth dispatch (in dispatch
#: order, re-dispatches included).  Parameterised actions take ":k".
FAKE_ACTIONS = ("run", "slow", "late", "die", "torn", "duplicate",
                "fail", "fatal")


def _parse_action(action: str) -> Tuple[str, int]:
    kind, _, arg = action.partition(":")
    if kind not in FAKE_ACTIONS:
        raise ValueError(f"unknown fake-transport action {action!r}")
    return kind, int(arg) if arg else 1


class FakeTransport:
    """In-memory transport that executes shards inline, with chaos.

    Each dispatch consumes the next entry of ``schedule`` (``"run"``
    once exhausted).  Time is a synthetic tick: every ``poll`` advances
    the fake clock by ``tick`` — pass :meth:`clock` to the coordinator
    so lease deadlines are deterministic poll counts, not wall time.

    Actions:

    ``run``          execute, heartbeat once, deliver the result.
    ``slow:k``       take ``k`` polls, heartbeating — must NOT be stolen.
    ``late:k``       take ``k`` polls *silently* (no heartbeat): the
                     coordinator steals it, then the stale host delivers
                     anyway — the duplicate must be dropped.
    ``die``          the host dies mid-shard: ``HostDown``, result lost.
    ``torn``         deliver a corrupted payload (outcomes truncated).
    ``duplicate``    deliver the same valid result twice.
    ``fail``         report a transient failure (retry/backoff path).
    ``fatal``        report a non-transient failure (run must abort).

    ``protect_last_host=True`` (default) downgrades a lethal action
    (``die``, or ``late`` — the coordinator writes off a silent host)
    that would leave no surviving host to ``run``, so seeded chaos
    schedules always terminate; pass ``False`` to test total loss.  A
    ``late`` host is retired after its stale delivery: as far as the
    coordinator is concerned it died at the missed deadline (size
    ``late``'s ``k`` above the coordinator's lease timeout in ticks).

    ``executor`` maps a :class:`ShardTask` to its result payload; the
    default runs the real worker entry point in-process (deterministic,
    cache-warm), property tests inject a cheap synthetic one.
    """

    name = "fake"

    def __init__(self, workers: int = 2,
                 cache_dir: Optional[str] = None,
                 schedule: Optional[Sequence[str]] = None,
                 executor: Optional[Callable[[ShardTask], Dict[str, Any]]] = None,
                 protect_last_host: bool = True,
                 tick: float = 1.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        for action in schedule or ():
            _parse_action(action)  # validate eagerly, not mid-run
        self.workers = workers
        self.cache_dir = cache_dir
        self.schedule = list(schedule or ())
        self.protect_last_host = protect_last_host
        self.tick = tick
        self.now = 0.0
        self._executor = executor or self._run_inline
        self._cursor = 0
        self._alive: List[str] = []
        self._running: Dict[str, Dict[str, Any]] = {}
        #: Every (host, warm_key) the coordinator asked to warm.
        self.warms: List[Tuple[str, str]] = []
        #: Every (host, action, task_id) applied, for assertions.
        self.log: List[Tuple[str, str, str]] = []

    @staticmethod
    def seeded_schedule(seed: int, length: int,
                        death_rate: float = 0.15,
                        slow_rate: float = 0.15,
                        torn_rate: float = 0.1,
                        duplicate_rate: float = 0.1,
                        fail_rate: float = 0.1) -> List[str]:
        """A deterministic chaos schedule drawn from ``seed``."""
        rng = random.Random(seed)
        actions: List[str] = []
        for _ in range(length):
            roll = rng.random()
            if roll < death_rate:
                actions.append("die")
            elif roll < death_rate + slow_rate:
                actions.append(f"slow:{rng.randint(2, 4)}")
            elif roll < death_rate + slow_rate + torn_rate:
                actions.append("torn")
            elif roll < death_rate + slow_rate + torn_rate + duplicate_rate:
                actions.append("duplicate")
            elif roll < (death_rate + slow_rate + torn_rate
                         + duplicate_rate + fail_rate):
                actions.append("fail")
            else:
                actions.append("run")
        return actions

    # ------------------------------------------------------------------
    def clock(self) -> float:
        return self.now

    def open(self) -> List[str]:
        self._alive = [f"fake/{slot}" for slot in range(self.workers)]
        self._running = {}
        return list(self._alive)

    def capacity(self, host: str) -> int:
        return 1

    def warm(self, host: str, task: ShardTask) -> None:
        self.warms.append((host, task.warm_key))

    def dispatch(self, host: str, task: ShardTask) -> None:
        if host not in self._alive:
            raise HostLostError(host, "dispatch to a dead host")
        if host in self._running:
            raise TransportError(f"host {host} is already running a shard")
        action = (self.schedule[self._cursor]
                  if self._cursor < len(self.schedule) else "run")
        self._cursor += 1
        kind, arg = _parse_action(action)
        if kind in ("die", "late") and self.protect_last_host:
            doomed = sum(1 for job in self._running.values()
                         if job["kind"] in ("die", "late"))
            if len(self._alive) - doomed <= 1:
                kind, arg = "run", 1
        self.log.append((host, kind, task.task_id))
        self._running[host] = {"task": task, "kind": kind, "remaining": arg}

    def poll(self, timeout: float) -> List[TransportEvent]:
        self.now += self.tick
        events: List[TransportEvent] = []
        for host in sorted(self._running):
            job = self._running[host]
            task: ShardTask = job["task"]
            kind = job["kind"]
            if kind == "die":
                del self._running[host]
                self._alive.remove(host)
                events.append(HostDown(host, "injected mid-shard death"))
                continue
            job["remaining"] -= 1
            if job["remaining"] > 0:
                if kind != "late":
                    events.append(Heartbeat(host, task.task_id))
                continue
            del self._running[host]
            if kind == "late":
                # The coordinator wrote this host off at the missed
                # deadline; retire it after the stale delivery.
                self._alive.remove(host)
            if kind == "fail":
                events.append(ShardFailed(
                    host, task.task_id, "injected transient failure",
                    transient=True))
            elif kind == "fatal":
                events.append(ShardFailed(
                    host, task.task_id, "injected fatal failure",
                    transient=False))
            else:
                payload = self._executor(task)
                if kind == "torn":
                    payload = self._tear(payload)
                events.append(ShardResult(host, task.task_id, payload))
                if kind == "duplicate":
                    events.append(ShardResult(host, task.task_id, payload))
        return events

    def close(self) -> None:
        self._running = {}

    # ------------------------------------------------------------------
    def _run_inline(self, task: ShardTask) -> Dict[str, Any]:
        from repro.cluster import engine as _engine

        return _engine._run_shard_worker(
            task.spec, task.shard, str(self.cache_dir), task.obs_enabled,
        )

    @staticmethod
    def _tear(payload: Dict[str, Any]) -> Dict[str, Any]:
        """A result torn mid-transfer: some per-fault outcomes missing."""
        torn = dict(payload)
        outcomes = dict(payload.get("outcomes") or {})
        kept = sorted(outcomes)[: len(outcomes) // 2]
        torn["outcomes"] = {key: outcomes[key] for key in kept}
        return torn


# ----------------------------------------------------------------------
# TcpAgentTransport — line-JSON agents on real sockets
# ----------------------------------------------------------------------
class _AgentConnection:
    """One coordinator-side connection to a worker agent."""

    def __init__(self, address: str, connect_timeout: float,
                 max_frame_bytes: int):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise TransportError(
                f"host address {address!r} is not HOST:PORT"
            )
        self.address = address
        self.max_frame_bytes = max_frame_bytes
        try:
            self.sock = socket.create_connection(
                (host, int(port)), timeout=connect_timeout)
        except socket.timeout as failure:
            raise TransientTransportError(
                f"connecting to {address} timed out"
            ) from failure
        except OSError as failure:
            raise TransportError(
                f"cannot connect to agent at {address}: {failure}"
            ) from failure
        self.buffer = FrameBuffer(max_frame_bytes)

    def handshake(self, timeout: float) -> None:
        self.send({"kind": "hello", "protocol": PROTOCOL_VERSION,
                   "simulator": __version__})
        self.sock.settimeout(timeout)
        try:
            frames = self._pump_until_frame()
        finally:
            self.sock.settimeout(None)
        frame = frames[0]
        if frame.get("kind") == "error":
            raise HandshakeError(
                f"agent at {self.address} rejected the handshake: "
                f"{frame.get('error')}: {frame.get('detail')}"
            )
        if (frame.get("kind") != "welcome"
                or frame.get("protocol") != PROTOCOL_VERSION
                or frame.get("simulator") != __version__):
            raise HandshakeError(
                f"agent at {self.address} answered the handshake with "
                f"{frame.get('kind')!r} (protocol {frame.get('protocol')!r}, "
                f"simulator {frame.get('simulator')!r}); this coordinator "
                f"is protocol {PROTOCOL_VERSION}, simulator {__version__}"
            )

    def _pump_until_frame(self) -> List[Dict[str, Any]]:
        while True:
            try:
                data = self.sock.recv(65536)
            except socket.timeout as failure:
                raise TransientTransportError(
                    f"agent at {self.address} did not answer in time"
                ) from failure
            if not data:
                self.buffer.close()  # raises on a dangling fragment
                raise ConnectionClosedError(
                    f"agent at {self.address} closed the connection"
                )
            frames = self.buffer.feed(data)
            if frames:
                return frames

    def send(self, record: Dict[str, Any]) -> None:
        try:
            self.sock.sendall(encode_frame(record, self.max_frame_bytes))
        except OSError as failure:
            raise HostLostError(self.address, f"send failed: {failure}")

    def pump(self) -> List[Dict[str, Any]]:
        """Drain readable bytes into complete frames (call after select)."""
        data = self.sock.recv(65536)
        if not data:
            self.buffer.close()
            raise ConnectionClosedError("agent closed the connection")
        return self.buffer.feed(data)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class TcpAgentTransport:
    """Dispatch shards to ``python -m repro.cluster.agent`` workers.

    ``hosts`` is a list of ``HOST:PORT`` strings; each agent runs one
    shard at a time on its own machine with its own
    :class:`~repro.cluster.artifacts.ArtifactCache`.  The handshake pins
    both the wire-protocol version and the simulator version, so a stale
    agent can never contribute outcomes a different simulator produced
    (the same invariant the journal and artifact cache enforce on disk).
    """

    name = "tcp"

    def __init__(self, hosts: Sequence[str],
                 connect_timeout: float = 10.0,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 connect_retry: Optional[RetryPolicy] = None):
        if not hosts:
            raise ValueError("TcpAgentTransport needs at least one HOST:PORT")
        self.hosts = list(hosts)
        self.connect_timeout = connect_timeout
        self.max_frame_bytes = max_frame_bytes
        #: Shared capped-backoff policy for connect/handshake: an agent
        #: that is still starting up (connect timeout, slow handshake) is
        #: transient; a refused or version-mismatched agent is not.
        self.connect_retry = connect_retry if connect_retry is not None else (
            RetryPolicy(retry_on=(TransientTransportError,)))
        self._connections: Dict[str, _AgentConnection] = {}

    def _connect(self, address: str) -> None:
        connection = _AgentConnection(
            address, self.connect_timeout, self.max_frame_bytes)
        connection.handshake(self.connect_timeout)
        self._connections[address] = connection

    def open(self) -> List[str]:
        self.close()
        for address in self.hosts:
            self.connect_retry.run(
                lambda address=address: self._connect(address),
                describe=f"connect to agent {address}",
            )
        return list(self._connections)

    def capacity(self, host: str) -> int:
        return 1

    def warm(self, host: str, task: ShardTask) -> None:
        self._connection(host).send({
            "kind": "warm",
            "task_id": task.task_id,
            "spec": task.spec,
        })

    def dispatch(self, host: str, task: ShardTask) -> None:
        self._connection(host).send({
            "kind": "shard",
            "task_id": task.task_id,
            "spec": task.spec,
            "shard": task.shard,
            "obs": task.obs_enabled,
        })

    def poll(self, timeout: float) -> List[TransportEvent]:
        events: List[TransportEvent] = []
        if not self._connections:
            time.sleep(min(timeout, 0.05))
            return events
        by_fd = {conn.sock: host for host, conn in self._connections.items()}
        readable, _, _ = select.select(list(by_fd), [], [], timeout)
        for sock in readable:
            host = by_fd[sock]
            connection = self._connections[host]
            try:
                frames = connection.pump()
            except (ProtocolError, OSError) as failure:
                self._drop(host)
                events.append(HostDown(host, str(failure)))
                continue
            for frame in frames:
                event = self._event_of(host, frame)
                if event is not None:
                    events.append(event)
                    if isinstance(event, HostDown):
                        self._drop(host)
        return events

    def close(self) -> None:
        for connection in self._connections.values():
            try:
                connection.send({"kind": "bye"})
            except TransportError:
                pass
            connection.close()
        self._connections = {}

    # ------------------------------------------------------------------
    def _connection(self, host: str) -> _AgentConnection:
        connection = self._connections.get(host)
        if connection is None:
            raise HostLostError(host, "no open connection")
        return connection

    def _drop(self, host: str) -> None:
        connection = self._connections.pop(host, None)
        if connection is not None:
            connection.close()

    @staticmethod
    def _event_of(host: str,
                  frame: Dict[str, Any]) -> Optional[TransportEvent]:
        kind = frame.get("kind")
        if kind == "heartbeat":
            return Heartbeat(host, frame.get("task_id"))
        if kind == "result":
            payload = frame.get("payload")
            if not isinstance(payload, dict):
                return HostDown(host, "result frame without a payload")
            return ShardResult(host, str(frame.get("task_id")), payload)
        if kind == "failed":
            return ShardFailed(host, str(frame.get("task_id")),
                               str(frame.get("error")),
                               transient=bool(frame.get("transient")))
        if kind == "error":
            return HostDown(
                host, f"{frame.get('error')}: {frame.get('detail')}")
        if kind in ("warmed", "pong"):
            return None
        return HostDown(host, f"unexpected frame kind {kind!r}")
