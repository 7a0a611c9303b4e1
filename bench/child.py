"""One benchmark workload, run in a fresh interpreter started by ``run.py``.

Protocol on stdout: a ``READY`` line once ``repro`` is imported and the
workload's programs are decoded by ``build_cached`` (``run.py``'s set-up
time ends there); then, unless ``--setup-only``, one JSON line with the
run's measurements.  Diagnostics go to stderr.

The load is a closed loop with one client: the next unit of work (one
campaign spec, or one cold+warm pair of CLI sweeps) is submitted only
after the previous one returned, until ``--seconds`` have passed.  Every
input is derived from ``--seed``; the program sees only the generated
``CampaignSpec``s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: The paper's use case: the six (workload, structure) campaigns of one
#: merlin-fulllist round, sharing three golden runs.
MERLIN_COMBOS = (("qsort", "SQ"), ("qsort", "L1D"), ("libquantum", "SQ"),
                 ("libquantum", "L1D"), ("gcc", "SQ"), ("gcc", "L1D"))


def spec_seed(seed: int, index: int) -> int:
    """The campaign seed of the ``index``-th unit of a run seeded ``seed``."""
    return seed * 1000 + index


def fingerprint(outcome: Any) -> str:
    """sha256 of the outcome's canonical JSON, wall-clock fields removed."""
    canonical = json.dumps(outcome.classification_fingerprint(),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Baseline:
    """qsort/RF campaigns with method="both", cold or fast-forwarded."""

    def __init__(self, seed: int, smoke: bool, checkpointing: bool) -> None:
        self.seed = seed
        self.faults = 6 if smoke else 100
        self.checkpointing = checkpointing
        self.programs = ("qsort",)
        self.campaigns_per_unit = 1
        self.kinds = 1

    def fresh(self) -> Any:
        from repro.api import Session

        return Session(checkpointing=self.checkpointing)

    def unit(self, session: Any, index: int) -> List[Any]:
        from repro.api import CampaignSpec
        from repro.uarch.structures import TargetStructure

        spec = CampaignSpec("qsort", TargetStructure.RF, faults=self.faults,
                            method="both", seed=spec_seed(self.seed, index))
        return [session.run(spec)]

    def cross_check(self, first: Any) -> Any:
        """The first campaign again, on the other injection path."""
        from repro.api import Session

        return Session(checkpointing=not self.checkpointing).run(first.spec)


class MerlinFullList:
    """Leveugle-sized MeRLiN campaigns, six per checkpointing session."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.combos = MERLIN_COMBOS[:1] if smoke else MERLIN_COMBOS
        # A 10% margin keeps the smoke list to a few hundred faults.
        self.margin = 0.1 if smoke else None
        self.programs = tuple(sorted({name for name, _ in self.combos}))
        self.campaigns_per_unit = 1
        self.kinds = len(self.combos)

    def fresh(self) -> Dict[str, Any]:
        return {"session": None}

    def unit(self, state: Dict[str, Any], index: int) -> List[Any]:
        from repro.api import CampaignSpec, Session
        from repro.uarch.structures import TargetStructure

        # A fresh session per round bounds memory: a session memoises every
        # fault list it draws (about 25 MB per campaign here).
        if index % len(self.combos) == 0:
            state["session"] = Session(checkpointing=True)
        workload, structure = self.combos[index % len(self.combos)]
        extra = {} if self.margin is None else {"error_margin": self.margin}
        spec = CampaignSpec(workload, TargetStructure[structure], faults=None,
                            method="merlin", seed=spec_seed(self.seed, index),
                            **extra)
        return [state["session"].run(spec)]

    def cross_check(self, first: Any) -> Any:
        """The first campaign again, cold (no checkpoints, no reconvergence)."""
        from repro.api import Session

        return Session().run(first.spec)


class ClusterSweep:
    """Pairs of ``repro sweep --engine cluster`` CLI runs: cold, then warm.

    The cold leg starts from an empty store and artifact cache; the warm
    leg reuses the cache with the next seed.  The untimed traced pass runs
    the same argv in-process through ``repro.cli.main``.
    """

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        workloads = ("sha",) if smoke else ("sha", "fft", "qsort")
        structures = ("RF",) if smoke else ("RF", "SQ", "L1D")
        self.programs = workloads
        self.campaigns_per_unit = 2 * len(workloads) * len(structures)
        self.kinds = 1
        self.workers = min(2, os.cpu_count() or 1)
        self.args = [
            "sweep", "--workloads", ",".join(workloads),
            "--structures", ",".join(structures),
            "--faults", "6" if smoke else "40", "--method", "both",
            "--engine", "cluster", "--workers", str(self.workers), "--json",
        ]
        self.in_process = False
        self.obs_files: List[tuple] = []
        self.passes = 0

    def fresh(self) -> Path:
        self.passes += 1
        directory = WORK / f"cluster-{os.getpid()}" / f"pass-{self.passes}"
        directory.mkdir(parents=True)
        return directory

    def unit(self, directory: Path, index: int) -> List[Any]:
        from repro.api import CampaignOutcome

        pair = directory / f"pair-{index}"
        outcomes: List[Any] = []
        for leg in (0, 1):
            argv = self.args + [
                "--seed", str(spec_seed(self.seed, 2 * index + leg)),
                "--store", str(pair / "store"), "--cache-dir", str(pair / "cache"),
            ]
            text = (self._leg_in_process(argv, pair, leg) if self.in_process
                    else self._leg_subprocess(argv))
            outcomes += [CampaignOutcome.from_dict(item) for item in json.loads(text)]
        return outcomes

    def _leg_subprocess(self, argv: List[str]) -> str:
        done = subprocess.run([sys.executable, "-m", "repro"] + argv,
                              capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"repro sweep exited {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
        return done.stdout

    def _leg_in_process(self, argv: List[str], pair: Path, leg: int) -> str:
        from repro.cli import main

        metrics, trace = pair / f"metrics-{leg}.prom", pair / f"trace-{leg}.jsonl"
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = main(argv + ["--metrics-out", str(metrics),
                                "--trace-out", str(trace)])
        if code != 0:
            raise RuntimeError(f"repro.cli.main exited {code}")
        self.obs_files.append((metrics, trace))
        return captured.getvalue()

    def cross_check(self, first: Any) -> Any:
        """The first campaign again, in-process on the checkpoint path."""
        from repro.api import Session

        return Session(checkpointing=True).run(first.spec)

    def obs_metrics(self, coordinator_s: float) -> Dict[str, float]:
        """Cluster layers read from the traced legs' ``repro.obs`` exports."""
        plan_s = busy_s = shards = 0.0
        for metrics, trace in self.obs_files:
            for line in metrics.read_text(encoding="utf-8").splitlines():
                name, _, value = line.partition(" ")
                if name == "repro_shard_wall_seconds_sum":
                    busy_s += float(value)
                elif name == "repro_shard_wall_seconds_count":
                    shards += float(value)
            for line in trace.read_text(encoding="utf-8").splitlines():
                event = json.loads(line)
                if event.get("name") == "cluster_plan":
                    plan_s += event["dur"] / 1e6
        capacity = self.workers * coordinator_s
        return {
            "cluster.plan_s": plan_s,
            "cluster.shards": shards,
            "cluster.shard_busy_s": busy_s,
            "cluster.worker_idle_frac": 1.0 - busy_s / capacity if capacity else 0.0,
        }


def make_workload(name: str, seed: int, smoke: bool) -> Any:
    if name == "baseline-cold":
        return Baseline(seed, smoke, checkpointing=False)
    if name == "baseline-ffwd":
        return Baseline(seed, smoke, checkpointing=True)
    if name == "merlin-fulllist":
        return MerlinFullList(seed, smoke)
    if name == "cluster-sweep":
        return ClusterSweep(seed, smoke)
    raise SystemExit(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Pass:
    """What one closed-loop pass submitted, returned and how long it took."""

    def __init__(self) -> None:
        #: (unit kind, seconds, outcomes) of every unit that completed.
        self.completed: List[tuple] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.seconds = 0.0

    @property
    def outcomes(self) -> List[Any]:
        return [outcome for _, _, outcomes in self.completed for outcome in outcomes]


def closed_loop(workload: Any, seconds: float,
                units: Optional[int] = None) -> Pass:
    """Submit units back to back for ``seconds`` (or exactly ``units``)."""
    result = Pass()
    state = workload.fresh()
    start = time.perf_counter()
    while True:
        result.attempted += workload.campaigns_per_unit
        began = time.perf_counter()
        try:
            outcomes = workload.unit(state, result.units)
        except Exception as error:  # a failed unit is counted, not fatal
            result.failed += workload.campaigns_per_unit
            result.failures.append(f"unit {result.units}: {error!r}")
        else:
            result.completed.append((result.units % workload.kinds,
                                     time.perf_counter() - began, outcomes))
        result.units += 1
        elapsed = time.perf_counter() - start
        if (result.units >= units) if units is not None else (elapsed >= seconds):
            break
    result.seconds = elapsed
    return result


def work(outcome: Any) -> tuple:
    """(initial faults classified, injection runs simulated) of one outcome."""
    merlin, comprehensive = outcome.merlin, outcome.comprehensive
    faults = merlin.initial_faults if merlin else comprehensive.injections
    # With method="both" the representatives are simulated once, as part of
    # the comprehensive campaign.
    return faults, comprehensive.injections if comprehensive else merlin.injections


def end_to_end(run: Pass) -> Dict[str, Optional[float]]:
    """Host rates and MeRLiN's reduction over one pass's outcomes.

    The rates weigh every kind of unit equally (the mean unit of each kind,
    summed over kinds), so they do not depend on which kinds happened to
    fit in the window: merlin-fulllist's six campaign kinds differ twofold
    in faults per second.
    """
    from repro.core.metrics import max_inaccuracy
    from repro.faults.classification import ClassificationCounts

    kinds: Dict[int, List[float]] = {}
    for kind, seconds, outcomes in run.completed:
        totals = kinds.setdefault(kind, [0.0, 0.0, 0.0, 0])
        totals[0] += seconds
        for outcome in outcomes:
            faults, injections = work(outcome)
            totals[1] += faults
            totals[2] += injections
        totals[3] += 1
    mean_seconds = sum(t[0] / t[3] for t in kinds.values())
    merlin_faults = merlin_injections = 0
    reference, measured = ClassificationCounts(), ClassificationCounts()
    for outcome in run.outcomes:
        merlin, comprehensive = outcome.merlin, outcome.comprehensive
        if merlin:
            merlin_faults += merlin.initial_faults
            merlin_injections += merlin.injections
        if merlin and comprehensive:
            reference = reference.merge(comprehensive.classification())
            measured = measured.merge(merlin.classification())

    def rate(column: int) -> float:
        amount = sum(t[column] / t[3] for t in kinds.values())
        return amount / mean_seconds if mean_seconds else 0.0

    return {
        "faults_per_s": rate(1),
        "injections_per_s": rate(2),
        # As GroupedFaults.total_speedup: a list pruned to nothing counts
        # as one injection's worth.
        "merlin_speedup": merlin_faults / max(merlin_injections, 1),
        "merlin_err_pp": max_inaccuracy(reference, measured) if reference.total else None,
    }


def check(run: Pass, workload: Any) -> Dict[str, str]:
    """Fingerprint every outcome and re-run the first on another path."""
    prints = {}
    for outcome in run.outcomes:
        digest = fingerprint(outcome)
        if prints.setdefault(outcome.run_id, digest) != digest:
            run.failed += 1
            run.failures.append(f"run {outcome.run_id}: two outcomes differ")
    if run.outcomes:
        first = run.outcomes[0]
        run.attempted += 1
        try:
            again = fingerprint(workload.cross_check(first))
        except Exception as error:
            again = repr(error)
        if again != prints[first.run_id]:
            run.failed += 1
            run.failures.append(f"run {first.run_id}: cross-check diverged")
    return prints


def traced(workload: Any, args: argparse.Namespace, untraced: Pass,
           prints: Dict[str, str]) -> Dict[str, float]:
    """Repeat the untraced pass's units under the tracer; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    cluster = isinstance(workload, ClusterSweep)
    if cluster:
        workload.in_process = True
    tracer.install()
    try:
        with tracer.span("bench.workload"):
            run = closed_loop(workload, 0.0, units=untraced.units)
    finally:
        tracer.uninstall()
    untraced.attempted += run.attempted
    untraced.failed += run.failed
    untraced.failures += run.failures
    for outcome in run.outcomes:
        digest = fingerprint(outcome)
        if prints.get(outcome.run_id, digest) != digest:
            untraced.failed += 1
            untraced.failures.append(f"run {outcome.run_id}: traced outcome differs")
    layers = tracer.metrics()
    layers["trace.overhead_frac"] = tracer.root_seconds() / untraced.seconds - 1.0
    if cluster:
        layers.update(workload.obs_metrics(layers["cluster.coordinator_s"]))
    else:
        layers.update({"cluster.plan_s": 0.0, "cluster.shards": 0.0,
                       "cluster.shard_busy_s": 0.0, "cluster.worker_idle_frac": 0.0})
    if not 0.9 <= layers["trace.layer_sum_frac"] <= 1.1:
        untraced.failed += 1
        untraced.failures.append(
            f"layer self times cover {layers['trace.layer_sum_frac']:.3f} "
            "of the traced span, outside [0.9, 1.1]")
    tracer.write_chrome_trace(WORK / f"trace-{args.workload}-seed{args.seed}.json")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import repro.api  # noqa: F401  (the import is what set-up measures)
    from repro.workloads import build_cached, get_workload

    source = Path(repro.api.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"bench: repro imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    imported = time.perf_counter()
    workload = make_workload(args.workload, args.seed, args.smoke)
    for name in workload.programs:
        build_cached(name, get_workload(name).default_scale)
    built = time.perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    WORK.mkdir(exist_ok=True)
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        with contextlib.redirect_stdout(sys.stderr):
            run = closed_loop(workload, seconds)
            prints = check(run, workload)
            report: Dict[str, Any] = {"end_to_end": end_to_end(run), "layers": None}
            if args.trace:
                layers = traced(workload, args, run, prints)
                layers["setup.import_s"] = imported - started
                layers["workloads.build_s"] = built - imported
                report["layers"] = layers
    finally:
        shutil.rmtree(WORK / f"cluster-{os.getpid()}", ignore_errors=True)
    report.update({
        "workload": args.workload, "seed": args.seed, "units": run.units,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures, "fingerprints": prints,
    })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
