"""repro.obs — the measurement layer: metrics, tracing, export.

One :class:`ObsContext` bundles a :class:`MetricsRegistry` and a
:class:`Tracer` for the duration of a campaign.  The engines never hold
an obs object; instrumented code asks :func:`active` for the current
context (one module-global read — the disabled cost the throughput gate
budgets for) and does nothing when observability is off:

    ctx = obs.active()
    if ctx is not None:
        ctx.injection_done(effect.value)

The coordinator process activates a context with :func:`observe`;
pool / cluster workers activate their own (``role="worker"``), drain it
into the worker return payload with :meth:`ObsContext.drain_payload`,
and the coordinator folds payloads back in — metrics commutatively,
trace events in deterministic shard order.

Everything in this package is exempt from the determinism lint (it reads
clocks by design) and therefore must never feed the identity path: run
ids, journal contents and outcome fingerprints are bit-identical with
observability on or off, which ``tests/obs/test_identity_differential.py``
proves for every engine.

The registry is also the one place run bookkeeping is counted: shards
executed and reused, golden builds, cache traffic by role, and the
coordinator's steals, heartbeat misses, duplicates, torn results,
retries and lost hosts.  Engines keep no counters of their own.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.tracing import Tracer
from repro.obs.export import (
    ExportError,
    render_prometheus,
    render_trace_jsonl,
    validate_prometheus_file,
    validate_prometheus_text,
    validate_trace_file,
    validate_trace_jsonl,
    write_metrics_file,
    write_trace_file,
)

__all__ = [
    "ObsContext",
    "MetricsRegistry",
    "MetricsError",
    "Tracer",
    "ExportError",
    "active",
    "observe",
    "span",
    "render_prometheus",
    "render_trace_jsonl",
    "validate_prometheus_file",
    "validate_prometheus_text",
    "validate_trace_file",
    "validate_trace_jsonl",
    "write_metrics_file",
    "write_trace_file",
]


class ObsContext:
    """Per-campaign observability state: one registry, one tracer.

    Construction registers the full metric catalogue so snapshots from
    different processes always agree on family metadata and the exported
    file documents every series the instrumentation can produce.
    """

    def __init__(self, role: str = "main") -> None:
        self.role = role
        self.registry = MetricsRegistry()
        self.tracer = Tracer(process_name=f"repro-{role}")
        self._start = time.perf_counter()
        registry = self.registry
        self._injections = registry.counter(
            "repro_injections_total",
            "Fault injections executed (golden-path fast-forwards excluded).",
        )
        self._classifications = registry.counter(
            "repro_fault_classifications_total",
            "Injection outcomes by classification.",
            labels=("effect",),
        )
        self._stepped_cycles = registry.counter(
            "repro_stepped_cycles_total",
            "Pipeline cycles injection runs actually stepped, summed over "
            "their segments (restored prefixes, skipped stretches and "
            "early-exit tails excluded).",
        )
        self._run_ends = registry.counter(
            "repro_run_end_total",
            "Injection runs by why they ended: the termination kind, "
            "reconverged, unread_values (only stored values differed, "
            "none read again), unread_flip (an RF fault answered at its "
            "cycle) or dead_flip (an SQ/L1D fault answered at its cycle).",
            labels=("reason",),
        )
        self._internal_errors = registry.counter(
            "repro_internal_errors_total",
            "Injection runs ended by an unexpected simulator exception "
            "(still classified Crash), by exception type.",
            labels=("type",),
        )
        self._faults_per_second = registry.gauge(
            "repro_faults_per_second",
            "End-to-end campaign throughput: injections / wall seconds.",
            labels=("run_id",),
        )
        self._campaigns = registry.counter(
            "repro_campaigns_total",
            "Campaigns executed to completion by this run.",
        )
        self._campaigns_from_store = registry.counter(
            "repro_campaigns_from_store_total",
            "Campaigns satisfied from the result store without re-running.",
        )
        self._golden_builds = registry.counter(
            "repro_golden_builds_total",
            "Golden (fault-free) reference executions built from scratch.",
        )
        self._checkpoint_restores = registry.counter(
            "repro_checkpoint_restores_total",
            "Injections started from a restored mid-run checkpoint.",
        )
        self._cycles_fast_forwarded = registry.counter(
            "repro_checkpoint_cycles_fast_forwarded_total",
            "Simulated cycles skipped by restoring checkpoints instead of "
            "re-executing from cycle zero.",
        )
        self._cache_hits = registry.counter(
            "repro_artifact_cache_hits_total",
            "Artifact-cache lookups served from disk.",
            labels=("role",),
        )
        self._cache_misses = registry.counter(
            "repro_artifact_cache_misses_total",
            "Artifact-cache lookups that required a rebuild.",
            labels=("role",),
        )
        self._cache_stores = registry.counter(
            "repro_artifact_cache_stores_total",
            "Artifacts written into the cache.",
            labels=("role",),
        )
        self._cache_evictions = registry.counter(
            "repro_artifact_cache_evictions_total",
            "Artifacts evicted to stay under the cache size cap.",
            labels=("role",),
        )
        self._cache_hit_ratio = registry.gauge(
            "repro_artifact_cache_hit_ratio",
            "hits / (hits + misses) across all roles; -1 when no lookups.",
        )
        self._journal_appends = registry.counter(
            "repro_journal_appends_total",
            "Records appended to run journals.",
        )
        self._journal_repairs = registry.counter(
            "repro_journal_repairs_total",
            "Journal loads that repaired torn or unterminated tails.",
        )
        self._queue_depth = registry.gauge(
            "repro_pool_queue_depth",
            "Work items submitted to the pool and not yet completed.",
        )
        self._shards_executed = registry.counter(
            "repro_shards_executed_total",
            "Shards executed by pool workers this run.",
        )
        self._shards_reused = registry.counter(
            "repro_shards_reused_total",
            "Shards reused from the journal on resume.",
        )
        self._shard_wall = registry.histogram(
            "repro_shard_wall_seconds",
            "Wall-clock seconds per executed shard.",
            buckets=DEFAULT_TIME_BUCKETS,
        )
        self._heartbeat_misses = registry.counter(
            "repro_remote_heartbeat_misses_total",
            "Lease deadlines a worker host let expire without a heartbeat.",
        )
        self._shard_steals = registry.counter(
            "repro_remote_shard_steals_total",
            "Shards re-leased away from hosts that died or fell silent.",
        )
        self._duplicate_results = registry.counter(
            "repro_remote_duplicate_results_total",
            "Shard results delivered after the shard was already merged.",
        )
        self._torn_results = registry.counter(
            "repro_remote_torn_results_total",
            "Shard payloads that failed validation and were re-leased.",
        )
        self._transport_retries = registry.counter(
            "repro_remote_transport_retries_total",
            "Transient transport failures retried with capped backoff.",
        )
        self._hosts_lost = registry.counter(
            "repro_remote_hosts_lost_total",
            "Worker hosts declared dead during a run.",
        )
        self._host_shards = registry.counter(
            "repro_remote_host_shards_total",
            "Shards completed per worker host.",
            labels=("host",),
        )
        self._fs_faults = registry.counter(
            "repro_fs_faults_injected_total",
            "Filesystem faults injected by a FaultFs, by kind.",
            labels=("kind",),
        )
        self._disk_retries = registry.counter(
            "repro_disk_retries_total",
            "Transient disk errors absorbed by the retry policy.",
        )
        self._cache_degraded = registry.counter(
            "repro_artifact_cache_degraded_total",
            "Times the artifact cache fell back to rebuild-from-scratch.",
        )

    # ------------------------------------------------------------------
    # Instrumentation entry points (one call each at the existing seams)
    # ------------------------------------------------------------------
    def injection_done(self, effect: str, stepped_cycles: int = 0,
                       end_reason: Optional[str] = None) -> None:
        self._injections.inc()
        self._classifications.inc(effect=effect)
        if stepped_cycles > 0:
            self._stepped_cycles.inc(stepped_cycles)
        if end_reason is not None:
            self._run_ends.inc(reason=end_reason)

    def internal_error(self, kind: str) -> None:
        self._internal_errors.inc(type=kind)

    def checkpoint_restore(self, cycles_saved: int) -> None:
        self._checkpoint_restores.inc()
        if cycles_saved > 0:
            self._cycles_fast_forwarded.inc(cycles_saved)

    def golden_build(self) -> None:
        self._golden_builds.inc()

    def campaign_done(self) -> None:
        self._campaigns.inc()

    def campaign_from_store(self) -> None:
        self._campaigns_from_store.inc()

    def cache_event(self, kind: str) -> None:
        counter = {
            "hit": self._cache_hits,
            "miss": self._cache_misses,
            "store": self._cache_stores,
            "evict": self._cache_evictions,
        }.get(kind)
        if counter is None:
            raise MetricsError(f"unknown cache event {kind!r}")
        counter.inc(role=self.role)

    def fs_fault(self, kind: str) -> None:
        self._fs_faults.inc(kind=kind)

    def disk_retry(self) -> None:
        self._disk_retries.inc()

    def cache_degraded(self) -> None:
        self._cache_degraded.inc()

    def journal_append(self) -> None:
        self._journal_appends.inc()

    def journal_repair(self) -> None:
        self._journal_repairs.inc()

    def queue_depth(self, depth: int) -> None:
        self._queue_depth.set(depth)

    def shard_executed(self, wall_seconds: Optional[float] = None) -> None:
        self._shards_executed.inc()
        if wall_seconds is not None:
            self._shard_wall.observe(wall_seconds)

    def shards_reused(self, count: int) -> None:
        if count > 0:
            self._shards_reused.inc(count)

    def heartbeat_miss(self) -> None:
        self._heartbeat_misses.inc()

    def shard_stolen(self) -> None:
        self._shard_steals.inc()

    def duplicate_result(self) -> None:
        self._duplicate_results.inc()

    def torn_result(self) -> None:
        self._torn_results.inc()

    def transport_retry(self) -> None:
        self._transport_retries.inc()

    def host_lost(self) -> None:
        self._hosts_lost.inc()

    def host_shard_done(self, host: str) -> None:
        self._host_shards.inc(host=host)

    # ------------------------------------------------------------------
    # Coordinator-side aggregation
    # ------------------------------------------------------------------
    def drain_payload(self) -> Dict[str, Any]:
        """Ship this context's state home in a worker return payload."""
        return {
            "metrics": self.registry.to_snapshot(),
            "events": self.tracer.drain(),
        }

    def absorb_metrics(self, snapshot: Optional[Dict[str, Any]]) -> None:
        self.registry.merge_snapshot(snapshot)

    def absorb_events(self, events: Optional[List[Dict[str, Any]]]) -> None:
        self.tracer.absorb(events)

    def absorb_payload(self, payload: Optional[Dict[str, Any]]) -> None:
        if payload:
            self.absorb_metrics(payload.get("metrics"))
            self.absorb_events(payload.get("events"))

    def finalize(self, run_id: Optional[str] = None) -> None:
        """Compute the derived gauges once the campaign is over.

        Sets faults/sec from this context's own lifetime (construction to
        now) and the cache hit ratio from the merged hit/miss counters.
        Call exactly once, on the coordinator, after worker payloads have
        been absorbed.
        """
        elapsed = time.perf_counter() - self._start
        injections = self.registry.total("repro_injections_total")
        rate = injections / elapsed if elapsed > 0 else 0.0
        self._faults_per_second.set(rate, run_id=run_id or "unidentified")
        hits = self.registry.total("repro_artifact_cache_hits_total")
        misses = self.registry.total("repro_artifact_cache_misses_total")
        lookups = hits + misses
        self._cache_hit_ratio.set(hits / lookups if lookups else -1.0)

    # Convenience passthroughs -----------------------------------------
    def span(self, name: str, **args: Any) -> Any:
        return self.tracer.span(name, **args)

    def to_snapshot(self) -> Dict[str, Any]:
        return self.registry.to_snapshot()


# ----------------------------------------------------------------------
# The module-global active context.  Plain module state, not threadlocal:
# a campaign owns the process (workers are separate processes with their
# own interpreter and their own `observe()` call), and the hot path wants
# the cheapest possible "is this on?" test.
# ----------------------------------------------------------------------
_ACTIVE: Optional[ObsContext] = None


def active() -> Optional[ObsContext]:
    """The currently active context, or ``None`` when observability is off."""
    return _ACTIVE


@contextmanager
def observe(role: str = "main") -> Iterator[ObsContext]:
    """Activate a fresh :class:`ObsContext` for the duration of a block."""
    global _ACTIVE
    previous = _ACTIVE
    context = ObsContext(role=role)
    _ACTIVE = context
    try:
        yield context
    finally:
        _ACTIVE = previous


@contextmanager
def span(name: str, **args: Any) -> Iterator[None]:
    """Trace a block under the active context; no-op when observability is off."""
    context = _ACTIVE
    if context is None:
        yield
    else:
        with context.tracer.span(name, **args):
            yield
