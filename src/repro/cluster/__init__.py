"""`repro.cluster` — sharded campaign orchestration for production scale.

The execution layer above the engines of :mod:`repro.api`: a single
campaign's fault list is cut into deterministic, checkpoint-aligned
:class:`FaultShard`s, golden runs and their checkpoint timelines are
shared machine-wide through a content-addressed :class:`ArtifactCache`,
per-shard outcomes are journaled append-only in a :class:`RunJournal`, and
the :class:`ClusterEngine` fans the shards of a whole batch out across
worker hosts — with ``repro resume <run_id>`` restarting a killed run
from exactly the shards it was missing.  Merged outcomes are
bit-identical to :class:`~repro.api.engine.SerialEngine`'s.

Execution is pluggable below the engine: a
:class:`~repro.cluster.transport.WorkerTransport` carries shards to
hosts, and the :class:`~repro.cluster.remote.Coordinator` leases,
heartbeats and work-steals over whichever transport is plugged in.
``--engine process`` and ``cluster`` use the local process pool
(:class:`LocalPoolTransport`), ``--engine remote --hosts ...`` passes a
:class:`TcpAgentTransport`, and tests pass the fault-injecting
:class:`FakeTransport`; all are ``ClusterEngine(transport=...)``.
"""

from repro.cluster.artifacts import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    golden_cache_key,
)
from repro.cluster.engine import DEFAULT_CACHE_DIR, ClusterEngine
from repro.cluster.journal import JournalError, RunJournal, journal_path
from repro.cluster.merge import MergeError, merge_shard_outcomes
from repro.cluster.remote import Coordinator
from repro.cluster.shards import DEFAULT_SHARD_SIZE, FaultShard, shard_faults
from repro.cluster.transport import (
    FakeTransport,
    LocalPoolTransport,
    ShardTask,
    TcpAgentTransport,
    TransportError,
    WorkerTransport,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCache",
    "ClusterEngine",
    "Coordinator",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_SHARD_SIZE",
    "FakeTransport",
    "FaultShard",
    "JournalError",
    "LocalPoolTransport",
    "MergeError",
    "RunJournal",
    "ShardTask",
    "TcpAgentTransport",
    "TransportError",
    "WorkerTransport",
    "golden_cache_key",
    "journal_path",
    "merge_shard_outcomes",
    "shard_faults",
]
