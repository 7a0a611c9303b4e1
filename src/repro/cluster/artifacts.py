"""Content-addressed on-disk cache for golden runs and their checkpoints.

Capturing a traced golden run plus its :class:`CheckpointTimeline` is the
expensive fixed cost of every campaign — PR 2 made injection cheap, which
makes the golden build the dominant per-process cost of a fanned-out run.
The :class:`ArtifactCache` amortises it to once per *machine*: the cluster
coordinator builds each distinct golden once and stores it under a content
hash of the spec's golden identity (workload, scale, configuration); pool
workers then warm-start by loading the artifact instead of re-simulating.

Artifacts are pickled payloads (trusted local cache, not an interchange
format) written atomically — write to a temp file, fsync, then rename —
exactly like :class:`~repro.api.store.ResultStore`, so concurrent writers
of the same key race benignly (identical content, last rename wins) and a
reader never observes a half-written file.  A corrupt or truncated
artifact is treated as a miss and removed.  Total size is bounded by an
LRU cap: loads touch the file's mtime, stores evict the least recently
used artifacts once the cap is exceeded.

The cache is an *optimisation*, so every disk failure degrades instead of
killing the campaign: an unusable cache root means every load misses and
every store is a no-op (counted in obs as
``repro_artifact_cache_degraded_total``), and the campaign rebuilds its
goldens from scratch — slower, never wrong.  All filesystem access goes
through the :class:`~repro.resilience.fs.Fs` seam; transient faults are
retried before degrading.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro import obs
from repro.api.spec import CampaignSpec, config_to_dict
from repro.api.store import atomic_write
from repro.faults.golden import GoldenRecord
from repro.resilience.fs import Fs, default_fs, register_crash_point
from repro.resilience.retry import RetryPolicy, disk_retry_policy
from repro.uarch.checkpoint import CheckpointTimeline
from repro.version import __version__

#: Version folded into every artifact (and its key), so incompatible layout
#: changes can never resurrect stale artifacts.  3: timelines start at
#: cycle 0 and snapshots carry no structure-read logs.  4: the dead-cell
#: index carries the RF read windows.  5: the index holds one toggle list
#: per structure (RF read windows, SQ/L1D deadness) and no RF deadness.
#: 6: the index holds, per cell of every structure, the golden run's
#: ordered reads and full overwrites.
ARTIFACT_SCHEMA_VERSION = 6

#: Default LRU size cap (bytes) for the golden-artifact directory.
DEFAULT_MAX_BYTES = 4 * 1024 ** 3

CRASH_CACHE_PRE_REPLACE = register_crash_point(
    "cache.store.pre_replace",
    "golden artifact temp file fsynced, atomic rename not yet performed",
)
CRASH_CACHE_POST_REPLACE = register_crash_point(
    "cache.store.post_replace",
    "golden artifact renamed into place, parent directory not yet fsynced",
)


def golden_cache_key(spec: CampaignSpec) -> str:
    """Content hash of the golden identity this cache speaks.

    The identity is (workload, scale, config) *plus* the artifact schema
    and the package version (a simulator whose semantics changed must
    never warm-start from a previous version's golden, which would break
    the bit-identical-to-serial invariant).  The checkpoint timeline is
    not part of the key: only a checkpointing session's inline capture,
    under one fixed spacing policy, is ever stored.
    """
    payload = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "simulator": __version__,
        "workload": spec.workload,
        "scale": spec.scale,
        "config": config_to_dict(spec.config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ArtifactCache:
    """Persist and reload golden runs (with timelines) by content identity."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
                 fs: Optional[Fs] = None,
                 retry: Optional[RetryPolicy] = None):
        self.root = Path(root)
        self.golden_dir = self.root / "golden"
        self.fs = fs if fs is not None else default_fs()
        self.retry = retry if retry is not None else disk_retry_policy()
        self.max_bytes = max_bytes
        #: Permanently degraded: the cache root itself is unusable.
        self.degraded = False
        try:
            self.retry.run(
                lambda: self.fs.mkdir(self.golden_dir,
                                      parents=True, exist_ok=True),
                describe=f"create cache dir {self.golden_dir}",
            )
        except OSError:
            # An unusable cache directory is a slower campaign, never a
            # dead one: all loads miss, all stores no-op.
            self._degrade()
            self.degraded = True

    def _count(self, event: str) -> None:
        """Count a cache event in the active obs context (role-labelled)."""
        obs_ctx = obs.active()
        if obs_ctx is not None:
            obs_ctx.cache_event(event)

    def _degrade(self) -> None:
        """Count one fall-back to rebuild-from-scratch behaviour."""
        obs_ctx = obs.active()
        if obs_ctx is not None:
            obs_ctx.cache_degraded()

    # ------------------------------------------------------------------
    def golden_path(self, spec: CampaignSpec) -> Path:
        return self.golden_dir / f"{golden_cache_key(spec)}.pkl"

    def has_golden(self, spec: CampaignSpec) -> bool:
        if self.degraded:
            return False
        return self.fs.exists(self.golden_path(spec))

    def load_golden(self, spec: CampaignSpec) -> Optional[GoldenRecord]:
        """The cached golden for the spec's identity, or ``None`` on a miss."""
        key = golden_cache_key(spec)
        path = self.golden_dir / f"{key}.pkl"
        if self.degraded:
            self._count("miss")
            return None
        try:
            with self.fs.open(path, "rb") as stream:
                payload = pickle.load(stream)
            golden = self._decode(payload, key)
        except FileNotFoundError:
            self._count("miss")
            return None
        except OSError:
            # Unreadable cache dir or artifact (EIO, permissions): a miss,
            # counted as degradation because the bytes may be fine and the
            # campaign pays a rebuild anyway.
            self._count("miss")
            self._degrade()
            return None
        except Exception:
            # Truncated write from a killed process, a foreign pickle, or a
            # stale schema: a corrupt artifact is a miss, and leaving it on
            # disk would make it a miss forever.
            self._count("miss")
            self._remove(path)
            return None
        self._count("hit")
        self._touch(path)
        return golden

    def store_golden(self, spec: CampaignSpec, golden: GoldenRecord) -> Path:
        """Atomically persist ``golden`` (timeline included); return the path.

        Best-effort: a store that still fails after the transient-error
        retries degrades (the golden simply is not cached) rather than
        failing the campaign that produced it.
        """
        key = golden_cache_key(spec)
        path = self.golden_dir / f"{key}.pkl"
        if self.degraded:
            return path
        payload = pickle.dumps(self._encode(golden, key),
                               protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write(path, payload, fs=self.fs,
                         crash_scope="cache.store", retry=self.retry)
        except OSError:
            self._degrade()
            return path
        self._count("store")
        self._evict_over_cap()
        return path

    # ------------------------------------------------------------------
    # Artifact format
    # ------------------------------------------------------------------
    def _encode(self, golden: GoldenRecord, key: str) -> Dict[str, Any]:
        timeline = golden.checkpoints
        return {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "key": key,
            # The timeline travels as its pure-data payload; the record
            # itself is stored without it so the two halves stay decoupled.
            "golden": dataclasses.replace(golden, checkpoints=None),
            "timeline": timeline.to_payload() if timeline is not None else None,
        }

    def _decode(self, payload: Dict[str, Any], key: str) -> GoldenRecord:
        if payload["schema"] != ARTIFACT_SCHEMA_VERSION or payload["key"] != key:
            raise ValueError("artifact schema/key mismatch")
        golden: GoldenRecord = payload["golden"]
        if payload["timeline"] is not None:
            golden.checkpoints = CheckpointTimeline.from_payload(payload["timeline"])
        return golden

    # ------------------------------------------------------------------
    # LRU bookkeeping
    # ------------------------------------------------------------------
    def _touch(self, path: Path) -> None:
        try:
            self.fs.utime(path)
        except OSError:
            pass

    def _remove(self, path: Path) -> None:
        try:
            self.fs.unlink(path, missing_ok=True)
        except OSError:
            pass

    def _artifacts(self) -> Iterable[Path]:
        """Finished artifacts only — never in-flight ``.tmp-*`` temp files
        (unlinking a concurrent writer's temp file would abort its rename).
        An unlistable directory yields nothing rather than raising."""
        try:
            paths = self.fs.glob(self.golden_dir, "*.pkl")
        except OSError:
            self._degrade()
            return ()
        return (path for path in paths if not path.name.startswith("."))

    def _evict_over_cap(self) -> None:
        if self.max_bytes is None:
            return
        entries = []
        for path in self._artifacts():
            try:
                stat = self.fs.stat(path)
            except OSError:
                # ENOENT race: a concurrent eviction (or gc) already took
                # this artifact between the listing and the stat.
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):
            self._remove(path)
            self._count("evict")
            total -= size
            if total <= self.max_bytes:
                return

    # ------------------------------------------------------------------
    def describe(self) -> str:
        artifacts = len(list(self._artifacts()))
        return f"ArtifactCache({self.root}, {artifacts} goldens)"
