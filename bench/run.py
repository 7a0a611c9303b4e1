"""End-to-end and per-layer benchmark of MeRLiN injection campaigns.

Usage (from the repository root)::

    python3 bench/run.py --seed 1                        # all four workloads
    python3 bench/run.py --workload baseline-ffwd --seed 2 --seconds 20
    python3 bench/run.py --seed 1 --trace 1              # per-layer pass
    python3 bench/run.py --seed 1 --repeat 10 --record bench/results/x.json
    python3 bench/run.py --seed 1 --pin                  # rewrite expected/
    python3 bench/run.py --smoke                         # tiny sizes, < 30 s

Each run launches fresh child interpreters (``child.py``): set-up-only
children first, then the one child that generates the load.  ``run.py``
times each child from ``Popen`` to its ``READY`` line (``setup_s`` is the
median) and reaps the load child with ``os.wait4`` (``peak_rss_mb``
includes its reaped descendants).  Metric names, units and bounds come
from ``BENCHMARK.json``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any campaign failed or diverged from ``expected/seed-<S>.json``; a
child that cannot start (for instance without ``src/``) fails the run
without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("baseline-cold", "baseline-ffwd", "merlin-fulllist", "cluster-sweep")
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Wall-clock budget of one run, set-ups and checks included.
RUN_DEADLINE_S = 170.0
#: Reported in the summary table but kept out of BENCHMARK.json: failed_frac
#: is 0 on every accepted run (the result line's "failed" carries it), and
#: the MeRLiN numbers are fixed by the seed's fault sample, so their spread
#: across seeds is the sample's, not the program's.
REPORT_ONLY = {"failed_frac": "ratio", "merlin_speedup": "x", "merlin_err_pp": "pp"}


class BenchError(Exception):
    """A child did not produce a report: no result can be printed."""


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(argv: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``child.py argv`` to completion; time its READY line and reap it."""
    work = ROOT / ".bench_work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work / "tmp"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *argv], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - started), _stop_group, (proc.pid,))
    watchdog.start()
    ready_s: Optional[float] = None
    lines: List[str] = []
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "READY":
                ready_s = time.perf_counter() - started
            elif line.strip():
                lines.append(line)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _stop_group(proc.pid)
    if proc.returncode != 0 or ready_s is None:
        raise BenchError(f"child {' '.join(argv)} exited {proc.returncode}"
                         + (" before READY" if ready_s is None else ""))
    return {"ready_s": ready_s, "lines": lines, "maxrss_kb": usage.ru_maxrss}


def run_once(workload: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> Dict[str, Any]:
    """One measured run of one workload: set-ups, then the load child."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    setups = [] if trace or smoke else [
        spawn(argv + ["--setup-only"], deadline)["ready_s"]
        for _ in range(SETUPS - 1)
    ]
    child = spawn(argv, deadline)
    if not child["lines"]:
        raise BenchError(f"{workload}: the child printed no report")
    report = json.loads(child["lines"][-1])
    setups.append(child["ready_s"])
    values = dict(report["end_to_end"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = child["maxrss_kb"] / 1024.0
    values["failed_frac"] = report["failed"] / report["attempted"]
    report["values"] = report["layers"] if trace else values
    report["report_only"] = {name: values[name] for name in REPORT_ONLY}
    return report


def declared(config: Dict[str, Any], trace: int) -> List[Dict[str, Any]]:
    return config["per_layer" if trace else "end_to_end"]


def check_fingerprints(report: Dict[str, Any], expected: Dict[str, str],
                       expected_name: str, seen: Dict[str, tuple]) -> None:
    """Count every run id whose outcome differs from the pin or another run."""
    for run_id, digest in sorted(report["fingerprints"].items()):
        problem = None
        if expected.get(run_id, digest) != digest:
            problem = f"run {run_id} diverged from {expected_name}"
        other = seen.setdefault(run_id, (report["workload"], digest))
        if other[1] != digest:
            problem = f"run {run_id} differs from the same run of {other[0]}"
        if problem:
            report["failed"] += 1
            report["failures"].append(problem)


def expected_path(args: argparse.Namespace, seed: int) -> Path:
    if args.expected:
        return Path(args.expected)
    return BENCH / "expected" / f"seed-{seed}.json"


def load_expected(path: Path) -> Dict[str, str]:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["fingerprints"]


def write_expected(path: Path, seed: int, fingerprints: Dict[str, str]) -> None:
    payload = {
        "seed": seed,
        "about": ("sha256 of each campaign outcome's canonical JSON without "
                  "wall_clock_seconds, by run id; regenerate with --pin"),
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def print_run(report: Dict[str, Any], config: Dict[str, Any], trace: int) -> None:
    print(f"{report['workload']} seed {report['seed']}: {report['units']} units, "
          f"{report['attempted']} campaigns attempted, {report['failed']} failed "
          f"(nproc {os.cpu_count()})")
    rows = [(m["name"], report["values"].get(m["name"]), m["unit"])
            for m in declared(config, trace)]
    if not trace:
        rows += [(name, report["report_only"][name], unit + " (report only)")
                 for name, unit in REPORT_ONLY.items()]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>14s} {unit}")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so spawn() still stops the child's group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        description="MeRLiN campaign benchmark (see bench/README.md)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (1 for development, 2 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced pass")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="runs per workload, with seeds S, S+1, ..., S+N-1")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="write every run and the quartiles as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one unit per workload")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the expected fingerprints from this run")
    parser.add_argument("--expected", default=None, metavar="FILE",
                        help="expected fingerprints (default expected/seed-<S>.json)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else config["run_seconds"])

    reports: List[Dict[str, Any]] = []
    seen: Dict[str, tuple] = {}
    try:
        for workload in workloads:
            for offset in range(args.repeat):
                seed = args.seed + offset
                report = run_once(workload, seed, seconds, args.trace, args.smoke)
                path = expected_path(args, seed)
                check_fingerprints(report, {} if args.pin else load_expected(path),
                                   path.name, seen)
                missing = [m["name"] for m in declared(config, args.trace)
                           if report["values"].get(m["name"]) is None]
                if missing:
                    raise BenchError(f"{workload}: no value for {', '.join(missing)}")
                print_run(report, config, args.trace)
                reports.append(report)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.pin:
        if failed:
            print("bench: not pinning a run with failures", file=sys.stderr)
        else:
            for seed in sorted({r["seed"] for r in reports}):
                path = expected_path(args, seed)
                prints = {k: v for r in reports if r["seed"] == seed
                          for k, v in r["fingerprints"].items()}
                write_expected(path, seed, prints)
                print(f"pinned {len(prints)} fingerprints to {path}")

    units = {m["name"]: m["unit"] for m in declared(config, args.trace)}
    metrics: Dict[str, Dict[str, Any]] = {}
    summary: Dict[str, Dict[str, Any]] = {}
    for workload in workloads:
        runs = [r for r in reports if r["workload"] == workload]
        summary[workload] = {
            name: quartiles([r["values"][name] for r in runs]) for name in units
        }
        for name in REPORT_ONLY:
            values = [r["report_only"][name] for r in runs
                      if r["report_only"][name] is not None]
            if values and not args.trace:
                summary[workload][name] = quartiles(values)
        if args.repeat > 1:
            print(f"{workload}: {len(runs)} runs, seeds {args.seed}.."
                  f"{args.seed + args.repeat - 1}")
            for name, stats in summary[workload].items():
                print(f"  {name:42s} median {stats['median']:.6g}  q1 "
                      f"{stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}")
        for name, unit in units.items():
            key = name if len(reports) == 1 else f"{workload}/{name}"
            metrics[key] = {"value": summary[workload][name]["median"], "unit": unit}
    if args.record:
        runs = [{key: r[key] for key in ("workload", "seed", "units", "attempted",
                                         "failed", "values", "report_only")}
                for r in reports]
        record = {"nproc": os.cpu_count(), "seconds": seconds, "trace": args.trace,
                  "seeds": [args.seed + k for k in range(args.repeat)],
                  "runs": runs, "summary": summary}
        Path(args.record).parent.mkdir(parents=True, exist_ok=True)
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n",
                                     encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
