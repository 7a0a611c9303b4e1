"""Append-only, crash-safe journal of a sharded campaign run.

A :class:`RunJournal` is one JSON-lines file per campaign run id: a header
line pinning the campaign's identity (spec, shard plan, engine knobs)
followed by one line per completed shard carrying that shard's per-fault
outcomes, and finally a ``merged`` marker once the campaign's outcome has
been assembled and persisted.  Every append is flushed and fsynced, so a
killed run loses at most the line being written — and the reader tolerates
exactly that, ignoring a torn trailing line.

``repro resume <run_id>`` rebuilds the spec from the header, re-derives
the shard plan (sharding is deterministic), verifies it matches the
journaled plan, replays the journaled shard outcomes, and executes only
the missing shards — producing a merged outcome bit-identical to an
uninterrupted run.

Robustness contract (see the README's "Resilience" section):

- all filesystem access goes through the injectable
  :class:`~repro.resilience.fs.Fs` seam, with crash points before the
  write, between flush and fsync, and after fsync of every append;
- appends hold an ``flock`` on the journal file, so two processes
  appending to the same journal interleave whole records, never bytes;
- a failed append (EIO, ENOSPC) rolls the file back to its pre-append
  size *under the lock* before the retry, so a retried append can never
  glue onto its own torn tail; persistent failures raise the typed
  :class:`JournalWriteError` — and only writes are refused: loading a
  journal for resume works on a full disk.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.api.spec import CampaignSpec
from repro.api.store import validate_run_id
from repro.cluster.shards import FaultShard
from repro.resilience.fs import Fs, default_fs, register_crash_point
from repro.resilience.retry import RetryPolicy, disk_retry_policy
from repro.version import __version__

#: Journal layout version; bump on incompatible format changes so resume
#: never misreads an old journal.
JOURNAL_SCHEMA_VERSION = 1

#: fault_id -> (effect label, simulated cycles) for every fault of a shard.
ShardOutcomes = Dict[int, Tuple[str, int]]

CRASH_APPEND_PRE_WRITE = register_crash_point(
    "journal.append.pre_write",
    "journal record not yet written (applies to the header line too)",
)
CRASH_APPEND_PRE_FSYNC = register_crash_point(
    "journal.append.pre_fsync",
    "journal record written and flushed but not yet fsynced",
)
CRASH_APPEND_POST_FSYNC = register_crash_point(
    "journal.append.post_fsync",
    "journal record durable on disk, append about to return",
)


class JournalError(Exception):
    """A journal is missing, unreadable, or names a different run plan."""


class JournalWriteError(JournalError):
    """The journal cannot accept appends (persistent disk failure).

    Reads are unaffected: a journal that refuses writes still loads, so
    ``repro resume`` can always replay completed shards once the disk
    recovers.
    """

    def __init__(self, path: Path, reason: str):
        self.path = path
        super().__init__(
            f"journal {path} refused an append: {reason} — completed shards "
            f"are safe and `repro resume` will continue once writes succeed"
        )


def journal_path(journal_dir: Union[str, Path], run_id: str) -> Path:
    try:
        validate_run_id(run_id)
    except ValueError as failure:
        raise JournalError(str(failure)) from None
    return Path(journal_dir) / f"{run_id}.jsonl"


def _lock(stream: IO[Any]) -> None:
    if fcntl is not None:
        fcntl.flock(stream.fileno(), fcntl.LOCK_EX)


def _unlock(stream: IO[Any]) -> None:
    if fcntl is not None:
        fcntl.flock(stream.fileno(), fcntl.LOCK_UN)


class RunJournal:
    """One campaign's append-only shard-outcome log."""

    def __init__(self, path: Path, header: Dict[str, Any],
                 completed: Optional[Dict[str, ShardOutcomes]] = None,
                 merged: bool = False,
                 fs: Optional[Fs] = None,
                 retry: Optional[RetryPolicy] = None):
        self.path = path
        self.header = header
        #: shard_id -> journaled per-fault outcomes.
        self.completed: Dict[str, ShardOutcomes] = dict(completed or {})
        self.merged = merged
        self.fs = fs if fs is not None else default_fs()
        self.retry = retry if retry is not None else disk_retry_policy()

    # ------------------------------------------------------------------
    # Creation / resumption
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        journal_dir: Union[str, Path],
        spec: CampaignSpec,
        shards: Sequence[FaultShard],
        shard_size: int,
        fs: Optional[Fs] = None,
    ) -> "RunJournal":
        """Start a fresh journal (truncating any previous one for this run)."""
        path = journal_path(journal_dir, spec.run_id())
        active_fs = fs if fs is not None else default_fs()
        active_fs.mkdir(path.parent, parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "schema": JOURNAL_SCHEMA_VERSION,
            "simulator": __version__,
            "run_id": spec.run_id(),
            "spec": spec.to_dict(),
            "shard_size": shard_size,
            "total_shards": len(shards),
            "shard_ids": [shard.shard_id() for shard in shards],
        }
        journal = cls(path, header, fs=active_fs)
        journal._append_record(header, truncate_first=True)
        # The file is fsynced by the append; its *directory entry* is not
        # durable until the parent is too.
        active_fs.fsync_dir(path.parent)
        return journal

    @classmethod
    def load(cls, journal_dir: Union[str, Path], run_id: str,
             fs: Optional[Fs] = None) -> "RunJournal":
        """Parse an existing journal, tolerating a torn trailing line.

        A torn trailing line (the append a killed run was in the middle
        of) is *truncated away*, not just skipped: a later
        :meth:`record_shard` appends at EOF, and gluing a new record onto
        the fragment would turn a harmless torn tail into a corrupt
        mid-file line that poisons every subsequent load.
        """
        path = journal_path(journal_dir, run_id)
        active_fs = fs if fs is not None else default_fs()
        try:
            with active_fs.open(path, "r", encoding="utf-8") as stream:
                lines = stream.readlines()
        except OSError as failure:
            raise JournalError(
                f"no journal for run {run_id!r} under {Path(journal_dir)}"
            ) from failure
        if lines and not lines[-1].endswith("\n"):
            # A kill can also land exactly between the record and its
            # newline; restore the terminator so a future append starts
            # on a fresh line (an unparseable tail is truncated below).
            try:
                json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
            else:
                try:
                    with active_fs.open(path, "a", encoding="utf-8") as stream:
                        _lock(stream)
                        try:
                            stream.write("\n")
                            stream.flush()
                            active_fs.fsync(stream)
                        finally:
                            _unlock(stream)
                except OSError as failure:
                    raise JournalError(
                        f"journal {path} has an unterminated tail and could "
                        f"not be repaired ({failure})"
                    ) from failure
                lines[-1] += "\n"
                obs_ctx = obs.active()
                if obs_ctx is not None:
                    obs_ctx.journal_repair()

        header: Optional[Dict[str, Any]] = None
        completed: Dict[str, ShardOutcomes] = {}
        merged = False
        for position, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    valid_bytes = sum(
                        len(kept.encode("utf-8")) for kept in lines[:position]
                    )
                    try:
                        with active_fs.open(path, "a",
                                            encoding="utf-8") as stream:
                            _lock(stream)
                            try:
                                stream.truncate(valid_bytes)
                            finally:
                                _unlock(stream)
                    except OSError as failure:
                        raise JournalError(
                            f"journal {path} has a torn tail that could not "
                            f"be truncated ({failure})"
                        ) from failure
                    obs_ctx = obs.active()
                    if obs_ctx is not None:
                        obs_ctx.journal_repair()
                    continue
                raise JournalError(
                    f"corrupt journal line {position + 1} in {path}"
                ) from None
            kind = record.get("kind")
            if kind == "header":
                if record.get("schema") != JOURNAL_SCHEMA_VERSION:
                    raise JournalError(
                        f"journal {path} has schema {record.get('schema')!r}, "
                        f"expected {JOURNAL_SCHEMA_VERSION}"
                    )
                if record.get("simulator") != __version__:
                    # Mirrors the artifact cache: outcomes journaled by a
                    # different simulator version must never merge with
                    # this version's (the result would be reproducible by
                    # no engine at all).
                    raise JournalError(
                        f"journal {path} was written by simulator version "
                        f"{record.get('simulator')!r}, this is {__version__}"
                    )
                header = record
            elif kind == "shard":
                completed[record["shard_id"]] = {
                    int(fault_id): (effect, cycles)
                    for fault_id, (effect, cycles) in record["outcomes"].items()
                }
            elif kind == "merged":
                merged = True
        if header is None:
            raise JournalError(f"journal {path} has no header line")
        return cls(path, header, completed, merged, fs=active_fs)

    @staticmethod
    def exists(journal_dir: Union[str, Path], run_id: str,
               fs: Optional[Fs] = None) -> bool:
        active_fs = fs if fs is not None else default_fs()
        return active_fs.exists(journal_path(journal_dir, run_id))

    # ------------------------------------------------------------------
    # Appends (flushed and fsynced: crash loses at most the torn line)
    # ------------------------------------------------------------------
    def _append_record(self, record: Dict[str, Any],
                       truncate_first: bool = False) -> None:
        """Durably append one record, whole-or-not-at-all.

        The write happens under an exclusive ``flock`` (concurrent
        appenders interleave records, never bytes).  On an injected or
        real disk error the file is rolled back to its pre-append length
        while the lock is still held, so the retry — and any concurrent
        writer — starts from a clean EOF.  Retries exhausted raises
        :class:`JournalWriteError`; loading stays possible throughout.
        """
        payload = json.dumps(record, separators=(",", ":")) + "\n"
        mode = "w" if truncate_first else "a"

        def append_once() -> None:
            self.fs.crash_point("journal.append.pre_write")
            with self.fs.open(self.path, mode, encoding="utf-8") as stream:
                _lock(stream)
                try:
                    start = 0 if truncate_first else self.fs.stat(
                        self.path).st_size
                    try:
                        stream.write(payload)
                        stream.flush()
                        self.fs.crash_point("journal.append.pre_fsync")
                        self.fs.fsync(stream)
                    except OSError:
                        try:
                            stream.truncate(start)
                        except OSError:
                            pass
                        raise
                finally:
                    _unlock(stream)
            self.fs.crash_point("journal.append.post_fsync")

        try:
            self.retry.run(append_once, describe=f"journal append {self.path.name}")
        except OSError as failure:
            raise JournalWriteError(self.path, str(failure)) from failure
        obs_ctx = obs.active()
        if obs_ctx is not None:
            obs_ctx.journal_append()

    def record_shard(self, shard: FaultShard, outcomes: ShardOutcomes) -> None:
        shard_id = shard.shard_id()
        record = {
            "kind": "shard",
            "shard_id": shard_id,
            "index": shard.index,
            "outcomes": {
                str(fault_id): [effect, cycles]
                for fault_id, (effect, cycles) in outcomes.items()
            },
        }
        self._append_record(record)
        self.completed[shard_id] = dict(outcomes)

    def record_merged(self, stats: Optional[Dict[str, Any]] = None) -> None:
        record = {"kind": "merged", "run_id": self.run_id, "stats": stats or {}}
        self._append_record(record)
        self.merged = True

    # ------------------------------------------------------------------
    # Header accessors / validation
    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return self.header["run_id"]

    @property
    def shard_ids(self) -> List[str]:
        return list(self.header["shard_ids"])

    @property
    def shard_size(self) -> int:
        return self.header["shard_size"]

    def spec(self) -> CampaignSpec:
        return CampaignSpec.from_dict(self.header["spec"])

    def missing_shard_ids(self) -> List[str]:
        return [sid for sid in self.shard_ids if sid not in self.completed]

    def validate_plan(self, spec: CampaignSpec,
                      shards: Sequence[FaultShard]) -> None:
        """Check the journal describes exactly this (spec, shard) plan.

        Sharding is deterministic, so a mismatch means the journal belongs
        to a different campaign or was produced with a different shard
        size — resuming over it would merge
        outcomes of the wrong faults.
        """
        if self.header["spec"] != spec.to_dict():
            raise JournalError(
                f"journal {self.path} was written for a different spec; "
                f"refusing to resume run {spec.run_id()}"
            )
        planned = [shard.shard_id() for shard in shards]
        if planned != self.shard_ids:
            raise JournalError(
                f"journal {self.path} shard plan does not match "
                f"(journaled {len(self.shard_ids)} shards, derived "
                f"{len(planned)}); was it written with a different "
                f"--shard-size?"
            )
