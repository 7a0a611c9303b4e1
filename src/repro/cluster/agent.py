"""The remote worker agent: ``python -m repro.cluster.agent``.

One agent runs on each injection host and serves one coordinator
connection at a time over the line-JSON protocol in
:mod:`repro.cluster.transport`:

1. handshake — the coordinator's ``hello`` must match this agent's
   wire-protocol version *and* simulator version exactly, otherwise the
   agent answers a typed ``error`` frame and closes: a stale agent can
   never contribute outcomes a different simulator produced;
2. work — ``warm`` frames pre-build/load the golden artifact into this
   host's local :class:`~repro.cluster.artifacts.ArtifactCache`;
   ``shard`` frames run the same worker entry point the process pool
   uses (:func:`repro.cluster.engine._run_shard_worker`), so a shard
   computed here is byte-identical to one computed anywhere else;
3. heartbeats — while a warm or shard is executing in the worker
   thread, the connection thread emits ``heartbeat`` frames every
   ``heartbeat_interval`` seconds so the coordinator's lease never
   expires on a merely *slow* host, only on a dead or wedged one.

Every protocol violation — malformed frame, oversized frame, unknown
kind, half-closed stream — fails closed: the agent sends one ``error``
frame when it still can, then drops the connection.  It never executes
a frame it could not fully parse, and it never answers a shard it did
not finish, so the coordinator can only ever journal complete results.
"""

from __future__ import annotations

import argparse
import socket
import threading
from typing import Any, Dict, List, Optional

from repro.cluster.transport import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.version import __version__

#: Seconds between heartbeat frames while a warm or shard is running.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


class AgentServer:
    """Serve shards to one coordinator at a time on ``host:port``.

    ``port=0`` binds an ephemeral port; :attr:`address` has the bound
    ``(host, port)`` either way.  ``cache_dir`` is this host's own
    artifact cache — agents never share disk with the coordinator.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir: str = ".repro-cache",
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        self.cache_dir = str(cache_dir)
        self.heartbeat_interval = heartbeat_interval
        self.max_frame_bytes = max_frame_bytes
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`shutdown`."""
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    self._serve_connection(conn)
        finally:
            self._listener.close()

    def shutdown(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(None)
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")
        write_lock = threading.Lock()

        def send(record: Dict[str, Any]) -> None:
            with write_lock:
                write_frame(writer, record, self.max_frame_bytes)

        try:
            if not self._handshake(reader, send):
                return
            while not self._stop.is_set():
                try:
                    frame = read_frame(reader, self.max_frame_bytes)
                except FrameTooLargeError as failure:
                    self._refuse(send, "frame-too-large", str(failure))
                    return
                except ConnectionClosedError as failure:
                    # Half-closed mid-frame: nothing to answer to — the
                    # torn fragment is dropped, never executed.
                    self._refuse(send, "connection-torn", str(failure))
                    return
                except ProtocolError as failure:
                    self._refuse(send, "malformed-frame", str(failure))
                    return
                if frame is None or frame.get("kind") == "bye":
                    return
                if not self._serve_frame(frame, send):
                    return
        except OSError:
            return  # peer vanished; nothing left to tell it
        finally:
            # Close gracefully: flush our last frame, half-close, and
            # drain whatever the peer already sent.  Closing with unread
            # bytes in the receive buffer would turn into a TCP reset
            # that can destroy an in-flight error frame.
            try:
                writer.flush()
            except OSError:
                pass
            try:
                conn.shutdown(socket.SHUT_WR)
                conn.settimeout(1.0)
                while conn.recv(65536):
                    pass
            except OSError:
                pass
            for stream in (reader, writer):
                try:
                    stream.close()
                except OSError:
                    pass

    def _handshake(self, reader, send) -> bool:
        try:
            hello = read_frame(reader, self.max_frame_bytes)
        except ProtocolError as failure:
            self._refuse(send, "malformed-frame", str(failure))
            return False
        if hello is None:
            return False
        if (hello.get("kind") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
                or hello.get("simulator") != __version__):
            self._refuse(
                send, "handshake-rejected",
                f"agent speaks protocol {PROTOCOL_VERSION} for simulator "
                f"{__version__}; coordinator sent kind={hello.get('kind')!r} "
                f"protocol={hello.get('protocol')!r} "
                f"simulator={hello.get('simulator')!r}",
            )
            return False
        send({"kind": "welcome", "protocol": PROTOCOL_VERSION,
              "simulator": __version__})
        return True

    def _serve_frame(self, frame: Dict[str, Any], send) -> bool:
        kind = frame.get("kind")
        if kind == "ping":
            send({"kind": "pong"})
            return True
        if kind == "warm":
            self._run_heartbeating(frame, send, self._do_warm)
            return True
        if kind == "shard":
            self._run_heartbeating(frame, send, self._do_shard)
            return True
        self._refuse(send, "unknown-kind", f"frame kind {kind!r}")
        return False

    def _run_heartbeating(self, frame: Dict[str, Any], send,
                          operation) -> None:
        """Run ``operation`` in a thread, heartbeating until it finishes."""
        task_id = frame.get("task_id")
        box: Dict[str, Any] = {}

        def work() -> None:
            try:
                box["reply"] = operation(frame)
            except Exception as failure:
                box["reply"] = {
                    "kind": "failed", "task_id": task_id,
                    "error": repr(failure), "transient": False,
                }

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        while worker.is_alive():
            worker.join(self.heartbeat_interval)
            if worker.is_alive():
                send({"kind": "heartbeat", "task_id": task_id})
        send(box["reply"])

    def _do_warm(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        from repro.cluster.engine import _worker_golden
        from repro.api.spec import CampaignSpec

        spec = CampaignSpec.from_dict(frame["spec"])
        _worker_golden(spec, self.cache_dir)
        return {"kind": "warmed", "task_id": frame.get("task_id")}

    def _do_shard(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        from repro.cluster.engine import _run_shard_worker

        payload = _run_shard_worker(frame["spec"], frame["shard"],
                                    self.cache_dir, bool(frame.get("obs")))
        return {"kind": "result", "task_id": frame.get("task_id"),
                "payload": payload}

    @staticmethod
    def _refuse(send, error: str, detail: str) -> None:
        try:
            send({"kind": "error", "error": error, "detail": detail})
        except OSError:
            pass  # the peer is already gone; closing is answer enough


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.agent",
        description="Serve fault-injection shards to a repro coordinator.",
    )
    parser.add_argument("--bind", default="127.0.0.1",
                        help="address to listen on (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7651,
                        help="port to listen on; 0 picks one (default 7651)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="this host's artifact cache directory")
    parser.add_argument("--heartbeat-interval", type=float,
                        default=DEFAULT_HEARTBEAT_INTERVAL,
                        help="seconds between heartbeats while working")
    args = parser.parse_args(argv)
    server = AgentServer(
        host=args.bind, port=args.port, cache_dir=args.cache_dir,
        heartbeat_interval=args.heartbeat_interval,
    )
    print(f"repro agent (protocol {PROTOCOL_VERSION}, simulator "
          f"{__version__}) listening on "
          f"{server.address[0]}:{server.address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
