"""Command-line interface for MeRLiN campaigns, built on :mod:`repro.api`.

Every subcommand resolves to the same façade the Python API exposes:
declarative :class:`~repro.api.CampaignSpec` values executed by a
:class:`~repro.api.Session` through a pluggable engine, with optional
JSON output and a directory-backed result store.

Examples::

    python -m repro list
    python -m repro run --workload sha --structure RF --registers 64 --faults 2000
    python -m repro run --workload qsort --structure SQ --sq-entries 16 --baseline
    python -m repro sweep --workloads sha,qsort --structures RF,SQ \\
        --faults 500 --engine process --store results/
    python -m repro report --store results/ --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api import (
    CampaignOutcome,
    CampaignSpec,
    ENGINES,
    ResultStore,
    StoreError,
    config_axis,
    make_engine,
    sweep,
)
from repro import obs
from repro.cluster.journal import JournalError
from repro.cluster.transport import TransportError
from repro.obs import (
    MetricsError,
    MetricsRegistry,
    render_prometheus,
    write_metrics_file,
    write_trace_file,
)
from repro.core.metrics import fit_rate, max_inaccuracy
from repro.faults.models import DEFAULT_MODEL, model_names
from repro.core.reporting import TableReport
from repro.faults.classification import FaultEffectClass
from repro.uarch.structures import TargetStructure, structure_config_label
from repro.workloads import MIBENCH_NAMES, SPEC_NAMES, all_names, get_workload


def _build_config(args: argparse.Namespace):
    sizes = config_axis(
        registers=(args.registers,) if args.registers else (),
        sq_entries=(args.sq_entries,) if args.sq_entries else (),
        l1d_kb=(args.l1d_kb,) if args.l1d_kb else (),
    )
    return sizes[0]


def _store_from(args: argparse.Namespace) -> Optional[ResultStore]:
    return ResultStore(args.store) if getattr(args, "store", None) else None


def _engine_from(args: argparse.Namespace):
    return make_engine(
        args.engine, max_workers=args.workers,
        shard_size=args.shard_size, cache_dir=args.cache_dir,
        resume=args.resume, hosts=args.hosts,
    )


def _parse_model_params(pairs: Optional[List[str]]) -> dict:
    """Parse repeated ``--model-param NAME=VALUE`` flags (integer values)."""
    params: dict = {}
    for pair in pairs or ():
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ValueError(
                f"--model-param expects NAME=VALUE, got {pair!r}"
            )
        try:
            params[name] = int(value)
        except ValueError:
            raise ValueError(
                f"--model-param {name!r} needs an integer value, got {value!r}"
            ) from None
    return params


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "metrics_out", None)
                or getattr(args, "trace_out", None))


def _flush_obs(ctx, args: argparse.Namespace,
               outcomes: List[CampaignOutcome],
               store: Optional[ResultStore]) -> None:
    """Finalize the run's observability context and write its artifacts.

    The Prometheus file and trace JSONL go wherever the flags point; when
    a result store is in play the raw snapshot is additionally persisted
    as a sidecar per completed run id, so ``repro metrics <run_id>`` can
    re-render it later.
    """
    run_id = outcomes[0].run_id if len(outcomes) == 1 else "batch"
    ctx.finalize(run_id=run_id)
    if getattr(args, "metrics_out", None):
        write_metrics_file(args.metrics_out, ctx.registry)
    if getattr(args, "trace_out", None):
        write_trace_file(args.trace_out, ctx.tracer.events())
    if store is not None:
        snapshot = ctx.to_snapshot()
        for outcome in outcomes:
            store.save_metrics(outcome.run_id, snapshot)


def _run_specs(args: argparse.Namespace, engine, specs: List[CampaignSpec],
               show_progress: bool = False, observe: bool = False):
    """Run ``specs`` for one subcommand; ``(outcomes, metrics registry)``.

    The run is observed when ``observe`` is set or ``--metrics-out``/
    ``--trace-out`` ask for artifacts; the registry is ``None`` otherwise.
    """
    progress = None
    if show_progress and not args.json:
        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} {engine.progress_unit}", end="",
                  file=sys.stderr, flush=True)
    store = _store_from(args)
    registry = None
    if observe or _obs_requested(args):
        with obs.observe() as obs_ctx:
            outcomes = engine.run(specs, store=store, progress=progress)
            if _obs_requested(args):
                _flush_obs(obs_ctx, args, outcomes, store)
        registry = obs_ctx.registry
    else:
        outcomes = engine.run(specs, store=store, progress=progress)
    if progress is not None:
        print(file=sys.stderr)
    return outcomes, registry


def _print_outcome(outcome: CampaignOutcome) -> None:
    spec = outcome.spec
    print(f"workload {spec.workload}: golden {outcome.golden_cycles} cycles, "
          f"{outcome.committed_instructions} instructions")
    if outcome.merlin is not None:
        merlin = outcome.merlin
        counts = merlin.classification()
        print(f"{spec.structure.short_name}: {merlin.initial_faults} faults -> "
              f"{merlin.injections} injections "
              f"(ACE-like {merlin.ace_speedup:.1f}x, total {merlin.total_speedup:.1f}x)")
        for effect in FaultEffectClass:
            print(f"  {effect.value:8s} {counts.fraction(effect) * 100:6.2f}%")
        print(f"AVF {merlin.avf:.4f}, "
              f"FIT {fit_rate(merlin.avf, outcome.total_bits):.3f}")
    if outcome.comprehensive is not None:
        reference = outcome.comprehensive
        print(f"baseline: {reference.injections} injections, "
              f"AVF {reference.avf:.4f}")
        if outcome.merlin is None:
            counts = reference.classification()
            for effect in FaultEffectClass:
                print(f"  {effect.value:8s} {counts.fraction(effect) * 100:6.2f}%")
        else:
            print(f"max per-class difference: "
                  f"{max_inaccuracy(reference.classification(), outcome.merlin.classification()):.2f} "
                  f"percentile points")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    if getattr(args, "store", None):
        store = ResultStore(args.store)
        if args.json:
            _emit_json(store.run_ids())
            return 0
        for outcome in store:
            print(outcome.describe())
        print(f"{len(store)} stored outcomes in {store.root}", file=sys.stderr)
        return 0
    if args.json:
        _emit_json([
            {
                "name": name,
                "suite": get_workload(name).suite,
                "description": get_workload(name).description,
            }
            for name in all_names()
        ])
        return 0
    for name in all_names():
        spec = get_workload(name)
        print(f"{name:14s} [{spec.suite:7s}] {spec.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    method = "both" if args.baseline else args.method
    spec = CampaignSpec(
        workload=args.workload,
        structure=TargetStructure[args.structure],
        config=_build_config(args),
        scale=args.scale,
        faults=args.faults,
        seed=args.seed,
        method=method,
        fault_model=args.fault_model,
        model_params=_parse_model_params(args.model_param),
    )
    [outcome], _ = _run_specs(args, _engine_from(args), [spec])
    if args.json:
        _emit_json(outcome.to_dict())
        return 0
    _print_outcome(outcome)
    return 0


def _parse_workloads(text: str) -> List[str]:
    if text == "all":
        return all_names()
    if text == "mibench":
        return list(MIBENCH_NAMES)
    if text == "spec":
        return list(SPEC_NAMES)
    names = [name.strip() for name in text.split(",") if name.strip()]
    known = set(all_names())
    for name in names:
        if name not in known:
            raise SystemExit(f"unknown workload {name!r}")
    return names


def _parse_int_list(text: Optional[str]) -> List[int]:
    if not text:
        return []
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    workloads = _parse_workloads(args.workloads)
    structures = [part.strip() for part in args.structures.split(",") if part.strip()]
    configs = config_axis(
        registers=_parse_int_list(args.registers),
        sq_entries=_parse_int_list(args.sq_entries),
        l1d_kb=_parse_int_list(args.l1d_kb),
    )
    specs = sweep(
        workloads, structures, configs,
        faults=args.faults, seed=args.seed, scale=args.scale, method=args.method,
        fault_model=args.fault_model,
        model_params=_parse_model_params(args.model_param),
    )
    outcomes, _ = _run_specs(args, _engine_from(args), specs,
                             show_progress=True)

    if args.json:
        _emit_json([outcome.to_dict() for outcome in outcomes])
        return 0
    table = TableReport(
        title=f"sweep: {len(outcomes)} campaigns ({args.engine} engine)",
        columns=["run_id", "workload", "structure", "config",
                 "injections", "speedup", "AVF"],
    )
    for outcome in outcomes:
        spec = outcome.spec
        merlin = outcome.merlin
        table.add_row([
            outcome.run_id,
            spec.workload,
            spec.structure.short_name,
            structure_config_label(spec.structure, spec.config),
            outcome.injections,
            round(merlin.total_speedup, 1) if merlin else "-",
            round(outcome.avf, 4),
        ])
    print(table.render())
    return 0


def _aggregate_outcomes(outcomes: List[CampaignOutcome]) -> List[dict]:
    """Per-(workload, structure) summary rows over a whole store."""
    buckets: dict = {}
    for outcome in outcomes:
        spec = outcome.spec
        key = (spec.workload, spec.structure.short_name)
        bucket = buckets.setdefault(key, {
            "workload": spec.workload,
            "structure": spec.structure.short_name,
            "campaigns": 0,
            "injections": 0,
            "avf_sum": 0.0,
            "speedup_sum": 0.0,
            "merlin_campaigns": 0,
        })
        bucket["campaigns"] += 1
        bucket["injections"] += outcome.injections
        bucket["avf_sum"] += outcome.avf
        if outcome.merlin is not None:
            bucket["merlin_campaigns"] += 1
            bucket["speedup_sum"] += outcome.merlin.total_speedup
    rows = []
    for key in sorted(buckets):
        bucket = buckets[key]
        rows.append({
            "workload": bucket["workload"],
            "structure": bucket["structure"],
            "campaigns": bucket["campaigns"],
            "injections": bucket["injections"],
            "mean_avf": round(bucket["avf_sum"] / bucket["campaigns"], 4),
            "mean_speedup": (
                round(bucket["speedup_sum"] / bucket["merlin_campaigns"], 1)
                if bucket["merlin_campaigns"] else None
            ),
        })
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    if not Path(args.store).is_dir():
        raise ValueError(f"no result store at {args.store!r}")
    store = ResultStore(args.store)
    if args.run_id:
        if not store.has(args.run_id):
            print(f"no stored outcome {args.run_id!r} in {store.root}", file=sys.stderr)
            return 1
        outcome = store.load(args.run_id)
        if args.json:
            _emit_json(outcome.to_dict())
        else:
            _print_outcome(outcome)
        return 0

    if args.all:
        rows = _aggregate_outcomes(list(store))
        if args.json:
            _emit_json(rows)
            return 0
        table = TableReport(
            title=f"aggregate over {len(store)} campaigns in {store.root}",
            columns=["workload", "structure", "campaigns",
                     "injections", "mean AVF", "mean speedup"],
        )
        for row in rows:
            table.add_row([
                row["workload"], row["structure"], row["campaigns"],
                row["injections"], row["mean_avf"],
                row["mean_speedup"] if row["mean_speedup"] is not None else "-",
            ])
        print(table.render())
        return 0

    outcomes = list(store)
    if args.json:
        _emit_json([outcome.to_dict() for outcome in outcomes])
        return 0
    table = TableReport(
        title=f"stored campaigns in {store.root}",
        columns=["run_id", "workload", "structure", "method",
                 "faults", "injections", "AVF"],
    )
    for outcome in outcomes:
        spec = outcome.spec
        table.add_row([
            outcome.run_id,
            spec.workload,
            spec.structure.short_name,
            spec.method,
            spec.faults if spec.faults is not None else "auto",
            outcome.injections,
            round(outcome.avf, 4),
        ])
    print(table.render())
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """Restart a killed cluster campaign from its journal."""
    from repro.cluster import RunJournal

    journal = RunJournal.load(Path(args.cache_dir) / "journals", args.run_id)
    engine = make_engine(
        "remote" if args.hosts else "cluster", max_workers=args.workers,
        shard_size=journal.shard_size, cache_dir=args.cache_dir, resume=True,
        hosts=args.hosts,
    )
    [outcome], registry = _run_specs(args, engine, [journal.spec()],
                                     show_progress=True, observe=True)
    if not args.json:
        reused = int(registry.total("repro_shards_reused_total"))
        executed = int(registry.total("repro_shards_executed_total"))
        print(f"resumed {args.run_id}: {reused} shards from the journal, "
              f"{executed} executed", file=sys.stderr)
    if args.json:
        _emit_json(outcome.to_dict())
        return 0
    _print_outcome(outcome)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render a run's persisted metrics snapshot from the result store."""
    store = ResultStore(args.store)
    snapshot = store.load_metrics(args.run_id)
    if args.json:
        _emit_json(snapshot)
        return 0
    registry = MetricsRegistry.from_snapshot(snapshot)
    print(render_prometheus(registry), end="")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the contract static analyzer (see :mod:`repro.analysis`)."""
    from repro.analysis import all_rules, lint_paths

    if args.list_rules:
        rows = [(rule.rule_id, rule.description) for rule in all_rules()]
        if args.json:
            _emit_json([{"rule": rule_id, "description": description}
                        for rule_id, description in rows])
        else:
            width = max(len(rule_id) for rule_id, _ in rows)
            for rule_id, description in rows:
                print(f"{rule_id:<{width}}  {description}")
        return 0

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [path for path in paths if not path.exists()]
    if missing:
        raise ValueError(f"no such path: {', '.join(map(str, missing))}")
    findings = lint_paths(paths, rule_ids=args.rule or None)
    if args.json:
        _emit_json([finding.to_dict() for finding in findings])
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persist/reload outcomes as JSON artifacts under DIR")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-model", default=DEFAULT_MODEL,
                        choices=list(model_names()),
                        help="fault model to inject with (default single-bit "
                             "transient, the paper's model)")
    parser.add_argument("--model-param", action="append", default=None,
                        metavar="NAME=VALUE",
                        help="fault-model parameter, repeatable (e.g. "
                             "--fault-model multi-bit --model-param width=4)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write run metrics in Prometheus text "
                             "exposition format to FILE")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write Chrome trace_event JSONL (Perfetto-"
                             "loadable) to FILE")


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shard-size", type=int, default=None, metavar="FAULTS",
                        help="process/cluster/remote engines: max faults "
                             "per shard (default 250)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="process/cluster/remote engines: golden-"
                             "artifact cache and journal directory "
                             "(default .repro-cache)")
    parser.add_argument("--resume", action="store_true",
                        help="process/cluster/remote engines: require "
                             "the journal of a previous (killed) run")
    parser.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                        help="remote engine: comma-separated worker agents "
                             "(each runs python -m repro.cluster.agent)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the bundled workloads (or, with --store, stored runs)")
    list_parser.add_argument("--json", action="store_true")
    list_parser.add_argument("--store", default=None, metavar="DIR",
                             help="list stored outcomes under DIR instead "
                                  "of the workload registry")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = subparsers.add_parser("run", help="run one campaign")
    run_parser.add_argument("--workload", required=True, choices=all_names())
    run_parser.add_argument("--structure", default="RF",
                            choices=[s.name for s in TargetStructure])
    run_parser.add_argument("--faults", type=int, default=2_000,
                            help="initial fault-list size (default 2000)")
    run_parser.add_argument("--scale", type=int, default=None,
                            help="workload scale (default: the workload's own)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--registers", type=int, default=None,
                            help="physical integer registers (256/128/64)")
    run_parser.add_argument("--sq-entries", type=int, default=None,
                            help="load/store queue entries (64/32/16)")
    run_parser.add_argument("--l1d-kb", type=int, default=None,
                            help="L1 data cache size in KB (64/32/16)")
    run_parser.add_argument("--method", default="merlin",
                            choices=["merlin", "comprehensive", "both"],
                            help="campaign method (default merlin)")
    run_parser.add_argument("--baseline", action="store_true",
                            help="also run the comprehensive campaign "
                                 "(shorthand for --method both)")
    run_parser.add_argument("--engine", default="serial", choices=list(ENGINES),
                            help="execution engine: serial cold-start, "
                                 "checkpoint fast-forward, process/cluster "
                                 "sharded local-pool fan-out, or remote "
                                 "agents via --hosts (default serial)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="process/cluster worker count (default: cores)")
    _add_model_flags(run_parser)
    _add_cluster_flags(run_parser)
    _add_obs_flags(run_parser)
    _add_common_flags(run_parser)
    run_parser.add_argument("--fs-faults", type=int, default=None,
                            metavar="SEED", help=argparse.SUPPRESS)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a workloads x structures x configs cross-product")
    sweep_parser.add_argument("--workloads", required=True,
                              help="comma-separated names, or mibench/spec/all")
    sweep_parser.add_argument("--structures", default="RF",
                              help="comma-separated structure names (RF,SQ,L1D)")
    sweep_parser.add_argument("--registers", default=None,
                              help="comma-separated register-file sizes")
    sweep_parser.add_argument("--sq-entries", default=None,
                              help="comma-separated store-queue sizes")
    sweep_parser.add_argument("--l1d-kb", default=None,
                              help="comma-separated L1D sizes (KB)")
    sweep_parser.add_argument("--faults", type=int, default=2_000)
    sweep_parser.add_argument("--scale", type=int, default=None)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--method", default="merlin",
                              choices=["merlin", "comprehensive", "both"])
    sweep_parser.add_argument("--engine", default="serial", choices=list(ENGINES),
                              help="execution engine (default serial)")
    sweep_parser.add_argument("--workers", type=int, default=None,
                              help="process/cluster worker count (default: cores)")
    _add_model_flags(sweep_parser)
    _add_cluster_flags(sweep_parser)
    _add_obs_flags(sweep_parser)
    _add_common_flags(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    report_parser = subparsers.add_parser(
        "report", help="inspect outcomes stored under --store")
    report_parser.add_argument("--store", required=True, metavar="DIR")
    report_parser.add_argument("--run-id", default=None,
                               help="show one stored campaign in full")
    report_parser.add_argument("--all", action="store_true",
                               help="aggregate the whole store into a "
                                    "per-workload/per-structure summary")
    report_parser.add_argument("--json", action="store_true")
    report_parser.set_defaults(func=_cmd_report)

    resume_parser = subparsers.add_parser(
        "resume", help="restart a killed cluster campaign from its journal")
    resume_parser.add_argument("run_id", metavar="RUN_ID",
                               help="campaign run id (as journaled under "
                                    "<cache-dir>/journals/)")
    resume_parser.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                               help="cache/journal directory the run used "
                                    "(default .repro-cache)")
    resume_parser.add_argument("--workers", type=int, default=None,
                               help="cluster worker count (default: cores)")
    resume_parser.add_argument("--hosts", default=None, metavar="HOST:PORT,...",
                               help="resume over remote worker agents instead "
                                    "of the local pool")
    _add_obs_flags(resume_parser)
    _add_common_flags(resume_parser)
    resume_parser.add_argument("--fs-faults", type=int, default=None,
                               metavar="SEED", help=argparse.SUPPRESS)
    resume_parser.set_defaults(func=_cmd_resume)

    metrics_parser = subparsers.add_parser(
        "metrics", help="render a run's persisted metrics snapshot "
                        "(Prometheus text; --json for the raw snapshot)")
    metrics_parser.add_argument("run_id", metavar="RUN_ID",
                                help="campaign run id with a stored snapshot")
    metrics_parser.add_argument("--store", required=True, metavar="DIR",
                                help="result store the run was persisted to")
    metrics_parser.add_argument("--json", action="store_true",
                                help="emit the raw snapshot dict instead of "
                                     "Prometheus text")
    metrics_parser.set_defaults(func=_cmd_metrics)

    lint_parser = subparsers.add_parser(
        "lint", help="statically check the snapshot, determinism and "
                     "process-safety contracts")
    lint_parser.add_argument("paths", nargs="*", metavar="PATH",
                             help="files or directories to lint (default: src)")
    lint_parser.add_argument("--rule", action="append", default=None,
                             metavar="RULE_ID",
                             help="run only this rule (repeatable)")
    lint_parser.add_argument("--list-rules", action="store_true",
                             help="print the rule catalogue and exit")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit findings as a JSON array")
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fs_fault_seed = getattr(args, "fs_faults", None)
        if fs_fault_seed is not None:
            # Hidden chaos knob (used by the fsfault-smoke CI job): run the
            # whole command against a seeded FaultFs injecting transient
            # disk faults.  Every fault is retried/degraded by design, so
            # the command must still succeed — bit-identically.
            from repro.resilience import DEFAULT_CHAOS_RATES, FaultFs, use_fs

            with use_fs(FaultFs(seed=fs_fault_seed,
                                rates=DEFAULT_CHAOS_RATES)):
                return args.func(args)
        return args.func(args)
    except (StoreError, JournalError, MetricsError, TransportError) as error:
        # One line naming the failure; exit 1 (an operational failure, not
        # a usage error).
        print(f"{parser.prog}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")


if __name__ == "__main__":
    raise SystemExit(main())
