"""repro.cluster.remote — lease/heartbeat coordination over any transport.

The :class:`Coordinator` is the one scheduling loop behind
:class:`~repro.cluster.engine.ClusterEngine`, whatever its transport
(local pool, TCP agents, or the chaos fake).  It leases shards to hosts
(one per free capacity slot), tracks heartbeats against a lease
deadline, and *steals* — re-leases — shards
from hosts that die mid-shard or fall silent past the deadline.  Results
merge through the caller's journal exactly once: shard payloads are
deterministic, so the first valid delivery wins and later duplicates are
counted and dropped.  Torn payloads (validation failure) and transient
transport errors retry with capped exponential backoff; a non-transient
worker failure aborts the run, leaving the journal's completed shards
for ``resume``.  Every steal, heartbeat miss, duplicate, torn result,
retry and lost host is counted in the active :mod:`repro.obs` context.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro import obs
from repro.cluster.shards import FaultShard
from repro.resilience.retry import RetryPolicy
from repro.cluster.transport import (
    Heartbeat,
    HostDown,
    HostLostError,
    ShardFailed,
    ShardResult,
    ShardTask,
    TransientTransportError,
    WorkerTransport,
)

#: Seconds (or fake-clock ticks) a host may go without a heartbeat
#: before its leases are stolen.
DEFAULT_LEASE_TIMEOUT = 30.0

#: How long one transport poll may block waiting for events.
DEFAULT_POLL_INTERVAL = 0.2

#: Attempts per shard across transient failures and torn results, and
#: per transport operation across :class:`TransientTransportError`s.
DEFAULT_MAX_ATTEMPTS = 3

#: Backoff for retried transport operations: ``base * 2**n`` capped.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def parse_hosts(hosts: Union[str, Sequence[str], None]) -> List[str]:
    """Normalise ``--hosts`` input into a list of ``HOST:PORT`` strings."""
    if hosts is None:
        return []
    if isinstance(hosts, str):
        entries = [entry.strip() for entry in hosts.split(",")]
    else:
        entries = [str(entry).strip() for entry in hosts]
    entries = [entry for entry in entries if entry]
    for entry in entries:
        head, _, port = entry.rpartition(":")
        if not head or not port.isdigit():
            raise ValueError(
                f"host {entry!r} is not HOST:PORT (e.g. 10.0.0.5:7651)"
            )
    return entries


def validate_shard_payload(shard: FaultShard,
                           payload: Any) -> Optional[str]:
    """Why ``payload`` cannot be ``shard``'s result, or ``None`` if it can.

    A torn or misdirected delivery must never reach the journal: the
    payload has to name the shard it claims to be and carry a
    well-formed ``(effect, cycles)`` outcome for *exactly* the shard's
    fault ids — no fewer (torn), no extras (foreign).
    """
    if not isinstance(payload, dict):
        return f"payload is {type(payload).__name__}, not a mapping"
    if payload.get("shard_id") != shard.shard_id():
        return (f"payload claims shard {payload.get('shard_id')!r}, "
                f"expected {shard.shard_id()!r}")
    outcomes = payload.get("outcomes")
    if not isinstance(outcomes, dict):
        return "payload has no outcomes mapping"
    try:
        got = {int(fault_id) for fault_id in outcomes}
    except (TypeError, ValueError):
        return "payload has non-integer fault ids"
    expected = set(shard.fault_ids)
    if got != expected:
        return (f"payload covers {len(got)} fault ids, "
                f"expected {len(expected)} (torn result?)")
    for value in outcomes.values():
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and isinstance(value[0], str)):
            return "payload has a malformed outcome entry"
    return None


@dataclass
class _Lease:
    """One shard currently entrusted to one host."""

    task: ShardTask
    host: str
    deadline: float


class Coordinator:
    """Drive a :class:`WorkerTransport` until every task is done once.

    ``clock`` defaults to the transport's own ``clock`` attribute when it
    has one (:class:`~repro.cluster.transport.FakeTransport` exposes its
    tick counter) and ``time.monotonic`` otherwise, so lease deadlines
    are deterministic under test and wall-clock in production.  ``sleep``
    is only used for retry backoff and is injectable for the same reason.
    """

    def __init__(self, transport: WorkerTransport,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 clock: Optional[Callable[[], float]] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 describe: Optional[Callable[[ShardTask], str]] = None):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.transport = transport
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.clock = clock or getattr(transport, "clock", None) or time.monotonic
        self.sleep = sleep
        #: The one retry/backoff policy (shared shape with the disk and
        #: transport-connect paths; see repro.resilience.retry).
        self.retry_policy = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
            retry_on=(TransientTransportError,),
            sleep=sleep,
        )
        self.describe = describe or (lambda task: f"shard task {task.task_id}")

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[ShardTask],
            on_result: Callable[[ShardTask, Dict[str, Any]], None],
            validate: Optional[Callable[[ShardTask, Dict[str, Any]],
                                        Optional[str]]] = None) -> None:
        """Execute every task exactly once, calling ``on_result`` for each.

        ``on_result`` fires at most once per task, only for payloads that
        passed ``validate`` — it is where the engine journals and merges,
        so nothing torn or duplicated can reach the journal.
        """
        by_id = {task.task_id: task for task in tasks}
        if len(by_id) != len(tasks):
            raise ValueError("duplicate task ids in one coordinator run")
        self._obs = obs.active()
        self._queue: Deque[ShardTask] = deque(tasks)
        self._leases: Dict[str, _Lease] = {}
        self._completed: Set[str] = set()
        self._attempts: Dict[str, int] = {}
        self._warmed: Set[Tuple[str, str]] = set()
        self._on_result = on_result
        self._validate = validate

        hosts = self.transport.open()
        if not hosts:
            raise RuntimeError(
                f"transport {self.transport.name!r} opened with no hosts")
        self._hosts = list(hosts)
        self._alive: Set[str] = set(hosts)
        self._free: Dict[str, int] = {
            host: self.transport.capacity(host) for host in hosts
        }
        self._update_queue_depth()

        try:
            while len(self._completed) < len(by_id):
                if not self._alive:
                    outstanding = len(by_id) - len(self._completed)
                    raise RuntimeError(
                        f"all {len(hosts)} hosts lost with {outstanding} "
                        f"shards outstanding; completed shards are "
                        f"journaled — re-run with resume to continue"
                    )
                self._assign()
                events = self.transport.poll(self.poll_interval)
                for event in events:
                    self._handle(event)
                self._expire_leases()
        finally:
            self.transport.close()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _assign(self) -> None:
        """Lease queued tasks onto free slots of living hosts."""
        while self._queue:
            host = next(
                (candidate for candidate in self._hosts
                 if candidate in self._alive
                 and self._free.get(candidate, 0) > 0),
                None,
            )
            if host is None:
                return
            task = self._queue.popleft()
            if task.task_id in self._completed:
                continue  # completed by a late delivery while queued
            if not self._lease(host, task):
                # The host died dispatching; the task is back in the
                # queue (or the all-dead check will fire next loop).
                continue

    def _lease(self, host: str, task: ShardTask) -> bool:
        if task.warm_key and (host, task.warm_key) not in self._warmed:
            if not self._attempt(host, task,
                                 lambda: self.transport.warm(host, task)):
                return False
            self._warmed.add((host, task.warm_key))
        if not self._attempt(host, task,
                             lambda: self.transport.dispatch(host, task)):
            return False
        self._free[host] -= 1
        self._leases[task.task_id] = _Lease(
            task=task, host=host, deadline=self.clock() + self.lease_timeout)
        return True

    def _count_retry(self, attempt: int,
                     failure: Optional[BaseException]) -> None:
        if self._obs is not None:
            self._obs.transport_retry()

    def _attempt(self, host: str, task: ShardTask,
                 operation: Callable[[], None]) -> bool:
        """Run one transport operation under the shared retry policy.

        Returns ``False`` when the host was lost (the task is requeued by
        :meth:`_lose_host` machinery via the caller re-queuing); raises
        nothing but re-raises non-transport errors.
        """
        try:
            self.retry_policy.run(operation,
                                  describe=f"transport op on {host}",
                                  on_retry=self._count_retry)
            return True
        except TransientTransportError:
            # Retries exhausted; count the final failure like the ones
            # that were retried, then give up on the host.
            self._count_retry(self.max_attempts - 1, None)
            self._queue.appendleft(task)
            self._lose_host(
                host,
                f"{self.max_attempts} transient transport errors in a row")
            return False
        except HostLostError as failure:
            self._queue.appendleft(task)
            self._lose_host(host, failure.reason)
            return False

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _handle(self, event: Any) -> None:
        if isinstance(event, Heartbeat):
            now = self.clock()
            for lease in self._leases.values():
                if lease.host == event.host:
                    lease.deadline = now + self.lease_timeout
        elif isinstance(event, ShardResult):
            self._handle_result(event)
        elif isinstance(event, ShardFailed):
            self._handle_failure(event)
        elif isinstance(event, HostDown):
            self._lose_host(event.host, event.reason)
        else:
            raise RuntimeError(f"transport produced unknown event {event!r}")

    def _handle_result(self, event: ShardResult) -> None:
        lease = self._leases.get(event.task_id)
        if event.task_id in self._completed or lease is None:
            # A stale host (stolen lease), a double delivery, or a result
            # for a task not leased out right now: results are
            # deterministic, so the copy is identical — drop it.
            if self._obs is not None:
                self._obs.duplicate_result()
            if lease is not None and lease.host == event.host:
                self._release(event.task_id)
            return
        task = lease.task
        error = (self._validate(task, event.payload)
                 if self._validate is not None else None)
        if error is not None:
            if self._obs is not None:
                self._obs.torn_result()
            if lease.host == event.host:
                self._release(event.task_id)
                self._requeue_failed(task, error)
            return
        if lease.host == event.host:
            self._release(event.task_id)
        self._completed.add(event.task_id)
        if self._obs is not None:
            self._obs.host_shard_done(event.host)
        self._on_result(task, event.payload)
        self._update_queue_depth()

    def _handle_failure(self, event: ShardFailed) -> None:
        lease = self._leases.get(event.task_id)
        task = lease.task if lease is not None else None
        if lease is not None and lease.host == event.host:
            self._release(event.task_id)
        if task is None or event.task_id in self._completed:
            return
        if not event.transient:
            raise RuntimeError(
                f"{self.describe(task)} failed in a worker process: "
                f"{event.error}"
            ) from event.cause
        self._count_retry(0, None)
        self._requeue_failed(task, event.error)

    def _requeue_failed(self, task: ShardTask, error: str) -> None:
        attempts = self._attempts.get(task.task_id, 0) + 1
        self._attempts[task.task_id] = attempts
        if attempts >= self.max_attempts:
            raise RuntimeError(
                f"{self.describe(task)} failed {attempts} times, giving "
                f"up: {error}"
            )
        self.sleep(self.retry_policy.delay_for(attempts - 1))
        self._queue.append(task)

    def _expire_leases(self) -> None:
        now = self.clock()
        expired_hosts = sorted({
            lease.host for lease in self._leases.values()
            if lease.deadline <= now and lease.host in self._alive
        })
        for host in expired_hosts:
            if self._obs is not None:
                self._obs.heartbeat_miss()
            self._lose_host(host, "missed its lease deadline")

    def _lose_host(self, host: str, reason: str) -> None:
        if host not in self._alive:
            return
        self._alive.discard(host)
        self._free.pop(host, None)
        if self._obs is not None:
            self._obs.host_lost()
        for task_id in sorted(
                tid for tid, lease in self._leases.items()
                if lease.host == host):
            lease = self._leases.pop(task_id)
            if task_id in self._completed:
                continue
            if self._obs is not None:
                self._obs.shard_stolen()
            self._queue.append(lease.task)

    def _release(self, task_id: str) -> None:
        lease = self._leases.pop(task_id, None)
        if lease is not None and lease.host in self._free:
            self._free[lease.host] += 1

    def _update_queue_depth(self) -> None:
        # Depth = work accepted but not completed: queued + leased.
        if self._obs is not None:
            self._obs.queue_depth(len(self._queue) + len(self._leases))
