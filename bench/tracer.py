"""Per-layer timing for the benchmark's traced pass, measured from outside.

:class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers and restores them on :meth:`Tracer.uninstall`; no file
under ``src/`` changes.  Module functions are wrapped on the *call-site*
module attribute (``repro.core.merlin.group_faults``, not
``repro.core.grouping.group_faults``), because callers import them by name.

Every wrapped call is a span with a name, start, end and parent.  Spans are
kept in memory and written at exit as Chrome ``trace_event`` JSON.  A
layer's self time is its duration minus the time its child spans cover;
the per-cycle reconvergence hook is accounted the same way but aggregated
instead of recorded one span per cycle.  Calls made inside a forked pool
worker pass straight through: worker-side time comes from ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

HOOK = "uarch.checkpoint.hook"
INJECT = "faults.injector.inject"
ROOT = "bench.workload"
END_REASONS = ("halted", "timeout", "deadlock", "crash", "assert", "reconverged")


class Tracer:
    """Span stack, per-layer totals and the installed wrappers."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.inject_ms: List[float] = []
        self.goldens: Dict[int, Any] = {}
        self._stack: List[list] = []
        self._next_id = 1
        self._injection: Optional[Dict[str, bool]] = None
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def enter(self, name: str, record: bool = True) -> list:
        span_id = 0
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, span_id, start, children = frame
        duration = end - start
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][3] += duration
        if span_id:
            parent = next((f[1] for f in reversed(stack) if f[1]), 0)
            self.spans.append((name, span_id, parent, start, end))
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------
    def _wrap(self, owner: Any, attr: str, layer: Any,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed call-through.

        ``layer`` is a span name or a function of the call's arguments;
        ``before(args)`` returns a token handed to ``after(args, result,
        token, seconds)``, which records the layer's counts.
        """
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer.pid:
                return function(*args, **kwargs)
            name = layer(args) if callable(layer) else layer
            token = before(args) if before is not None else None
            frame = tracer.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = tracer.exit(frame)
            if after is not None:
                after(args, result, token, seconds)
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        from repro import cli
        from repro.api import session as api_session
        from repro.api.session import Session
        from repro.api.store import ResultStore
        from repro.cluster import engine as cluster_engine
        from repro.cluster.artifacts import ArtifactCache
        from repro.cluster.journal import RunJournal
        from repro.cluster.remote import Coordinator
        from repro.core import merlin
        from repro.faults import campaign, injector
        from repro.uarch import checkpoint
        from repro.uarch.pipeline import OutOfOrderCpu

        wrap = self._wrap
        wrap(api_session, "capture_golden", "faults.golden.capture",
             after=self._golden_captured)
        wrap(api_session, "generate_fault_list", "faults.sampling.draw",
             after=self._faults_drawn)
        for module in (merlin, cluster_engine):
            wrap(module, "build_interval_set", "core.intervals.build")
            wrap(module, "group_faults", "core.grouping.group",
                 after=self._grouped)
        wrap(cluster_engine, "shard_faults", "cluster.shards.plan")
        wrap(cluster_engine, "merge_shard_outcomes", "cluster.merge")
        for module in (merlin, campaign):
            wrap(module, "inject_fault", INJECT,
                 before=self._injection_started, after=self._injected)
        self._wrap_hook_factory(injector)
        wrap(injector, "classify_outcome", "faults.classification.classify")
        wrap(checkpoint, "capture_state", self._capture_layer)
        wrap(OutOfOrderCpu, "run", self._run_layer,
             before=lambda args: args[0].cycle, after=self._ran)
        wrap(OutOfOrderCpu, "restore", lambda args: (
            "uarch.checkpoint.restore" if args[1].cycle
            else "uarch.checkpoint.cold_restore"))
        wrap(Session, "golden", "api.session.golden", after=self._golden_seen)
        wrap(ResultStore, "save", "api.store.save")
        wrap(ResultStore, "save_metrics", "api.store.save_metrics")
        wrap(RunJournal, "create", "cluster.journal.create")
        wrap(RunJournal, "record_shard", "cluster.journal.append")
        wrap(RunJournal, "record_merged", "cluster.journal.merged")
        wrap(ArtifactCache, "load_golden", "cluster.artifacts.load",
             after=self._artifact_loaded)
        wrap(ArtifactCache, "store_golden", "cluster.artifacts.store")
        wrap(Coordinator, "run", "cluster.coordinator")
        for writer in ("write_metrics_file", "write_trace_file"):
            wrap(cli, writer, "obs.export")

    def _wrap_hook_factory(self, injector: Any) -> None:
        """Time every call of each reconvergence hook the injector builds."""
        factory = injector.make_reconvergence_hook
        tracer = self
        self._undo.append((injector, "make_reconvergence_hook", factory))

        def make_hook(*args: Any, **kwargs: Any) -> Any:
            hook = factory(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return hook
            enter, exit_ = tracer.enter, tracer.exit

            def timed_hook(cpu: Any) -> Any:
                frame = enter(HOOK, False)
                try:
                    early = hook(cpu)
                finally:
                    exit_(frame)
                if early is not None and tracer._injection is not None:
                    tracer._injection["reconverged"] = True
                return early

            return timed_hook

        injector.make_reconvergence_hook = make_hook

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Per-layer observations
    # ------------------------------------------------------------------
    def _golden_captured(self, args, golden, token, seconds) -> None:
        self.counts["golden_cycles"] += golden.cycles

    def _golden_seen(self, args, golden, token, seconds) -> None:
        self.goldens[id(golden)] = golden

    def _faults_drawn(self, args, fault_list, token, seconds) -> None:
        self.counts["sampled_faults"] += len(fault_list)

    def _grouped(self, args, grouped, token, seconds) -> None:
        self.counts["groups"] += grouped.num_groups
        self.counts["ace_pruned"] += len(grouped.masked_fault_ids)

    def _artifact_loaded(self, args, golden, token, seconds) -> None:
        self.counts["artifact_hits"] += golden is not None

    def _injection_started(self, args) -> None:
        self._injection = {"reconverged": False}

    def _injected(self, args, outcome, token, seconds) -> None:
        reconverged = self._injection is not None and self._injection["reconverged"]
        reason = "reconverged" if reconverged else outcome.result.termination.value
        self.counts["end." + reason] += 1
        self.inject_ms.append(seconds * 1000.0)
        self._injection = None

    def _capture_layer(self, args) -> str:
        inside_hook = self._stack and self._stack[-1][0] == HOOK
        return ("uarch.checkpoint.full_capture" if inside_hook
                else "uarch.checkpoint.capture")

    def _run_layer(self, args) -> str:
        return ("uarch.pipeline.run" if self._injection is not None
                else "uarch.pipeline.golden_run")

    def _ran(self, args, result, cycle_before, seconds) -> None:
        if self._injection is not None:
            self.counts["stepped_cycles"] += args[0].cycle - cycle_before
            self.counts["logical_cycles"] += result.cycles

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def root_seconds(self) -> float:
        return self.total_s[ROOT]

    def layer_sum_frac(self) -> float:
        """Self time of every layer below the root over the root's span."""
        root = self.root_seconds()
        covered = sum(s for name, s in self.self_s.items() if name != ROOT)
        return covered / root if root else 0.0

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this process observed (zero where unused)."""
        t, calls, counts = self.total_s, self.calls, self.counts
        injections = calls[INJECT]
        samples = sorted(self.inject_ms)
        p50 = p90 = 0.0
        if len(samples) >= 2:
            deciles = statistics.quantiles(samples, n=10, method="inclusive")
            p50, p90 = statistics.median(samples), deciles[8]
        elif samples:
            p50 = p90 = samples[0]
        stepped = counts["stepped_cycles"]
        full_captures = calls["uarch.checkpoint.full_capture"]
        timelines = [g.checkpoints for g in self.goldens.values()
                     if g.checkpoints is not None]
        metrics = {
            "faults.golden.capture_s": t["faults.golden.capture"],
            "faults.golden.kcycles_per_s": _ratio(
                counts["golden_cycles"] / 1000.0, t["faults.golden.capture"]),
            "faults.sampling.draw_s": t["faults.sampling.draw"],
            "faults.sampling.faults": counts["sampled_faults"],
            "core.intervals.build_s": t["core.intervals.build"],
            "core.grouping.group_s": t["core.grouping.group"],
            "core.grouping.groups": counts["groups"],
            "core.grouping.ace_pruned": counts["ace_pruned"],
            "faults.injector.calls": injections,
            "faults.injector.inject_s": t[INJECT],
            "faults.injector.inject_ms_p50": p50,
            "faults.injector.inject_ms_p90": p90,
            "faults.injector.samples": len(samples),
            "faults.classification.classify_s": t["faults.classification.classify"],
            "uarch.pipeline.run_s": t["uarch.pipeline.run"],
            "uarch.pipeline.stepped_cycles": stepped,
            "uarch.pipeline.logical_cycles": counts["logical_cycles"],
            "uarch.pipeline.stepped_per_injection": _ratio(stepped, injections),
            "uarch.pipeline.kcycles_per_s": _ratio(
                stepped / 1000.0, t["uarch.pipeline.run"]),
            "uarch.checkpoint.restores": calls["uarch.checkpoint.restore"],
            "uarch.checkpoint.restore_s": t["uarch.checkpoint.restore"],
            "uarch.checkpoint.cold_restore_s": t["uarch.checkpoint.cold_restore"],
            "uarch.checkpoint.hook_s": t[HOOK],
            "uarch.checkpoint.full_captures": full_captures,
            "uarch.checkpoint.full_capture_s": t["uarch.checkpoint.full_capture"],
            "uarch.checkpoint.reconverge_hit_ratio": _ratio(
                counts["end.reconverged"], full_captures),
            "uarch.checkpoint.count": sum(len(tl) for tl in timelines),
            "uarch.checkpoint.timeline_bytes": sum(
                len(pickle.dumps(tl.to_payload(), pickle.HIGHEST_PROTOCOL))
                for tl in timelines),
            "api.session.golden_s": t["api.session.golden"],
            "api.store.saves": calls["api.store.save"],
            "api.store.save_s": t["api.store.save"],
            "cluster.artifacts.load_s": t["cluster.artifacts.load"],
            "cluster.artifacts.store_s": t["cluster.artifacts.store"],
            "cluster.artifacts.hit_ratio": _ratio(
                counts["artifact_hits"], calls["cluster.artifacts.load"]),
            "cluster.journal.appends": calls["cluster.journal.append"],
            "cluster.journal.append_s": t["cluster.journal.append"],
            "cluster.merge_s": t["cluster.merge"],
            "cluster.coordinator_s": t["cluster.coordinator"],
            "trace.layer_sum_frac": self.layer_sum_frac(),
        }
        for reason in END_REASONS:
            metrics["faults.injector.end." + reason] = counts["end." + reason]
        return metrics

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (Perfetto-loadable)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        events = [
            {"name": name, "cat": "bench", "ph": "X", "pid": self.pid, "tid": 1,
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "args": {"id": span_id, "parent": parent}}
            for name, span_id, parent, start, end in self.spans
        ]
        aggregated = {
            HOOK: {"calls": self.calls[HOOK], "total_s": self.total_s[HOOK],
                   "self_s": self.self_s[HOOK]},
        }
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"aggregated": aggregated}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def _ratio(amount: float, base: float) -> float:
    return amount / base if base else 0.0
