"""The ``repro`` command line: run sweeps, report results, run the paper suite.

Installed as a console script (``pip install -e .`` puts ``repro`` on PATH)
and also reachable as ``python -m repro``::

    repro sweep list                          # the packaged scenario library
    repro sweep run policy-grid               # run a packaged sweep
    repro sweep run my_campaign.toml \\
        --workers 4 --cache-dir ~/.cache/repro/populations
    repro sweep report sweep-policy-grid.jsonl
    repro sweep report store.jsonl --pivot spec.policy.kind spec.attack.size
    repro timeline sweep-retrain-cadence.jsonl  # utility-vs-week tables
    repro loadgen run demo                    # tiered load generation
    repro experiments --paper-scale           # Figures 1-6, Tables 2-3
    repro sweep run policy-grid --trace t.jsonl  # record a telemetry trace
    repro trace report t.jsonl                # per-span timing summary
    repro trace convert t.jsonl t.chrome.json # Perfetto/chrome://tracing
    repro sweep run demo --metrics metrics.jsonl --monitor  # record + live view
    repro metrics list --history metrics.jsonl  # the persistent run history
    repro metrics diff -2 -1                  # span-level regression attribution

Every leaf subcommand accepts ``-v/--verbose`` and ``-q/--quiet`` (package
logging level), ``--trace PATH`` / ``--trace-format jsonl|chrome`` to record
the run's telemetry spans and counters, and ``--metrics PATH`` to append the
run's summary record to a persistent metrics history; ``sweep run`` and
``loadgen run`` additionally take ``--monitor`` for a live status line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.engine import PopulationEngine
from repro.metrics.record import (
    METRICS_HISTORY_ENV,
    MetricsHistory,
    annotate_run,
    build_run_record,
    collect_annotations,
)
from repro.sweeps.catalog import builtin_sweeps, load_builtin
from repro.sweeps.results import (
    HEADLINE_METRICS,
    AGGREGATIONS,
    ResultStore,
    comparison_table,
    pivot,
)
from repro.sweeps.runner import ScenarioResult, SweepRunner
from repro.sweeps.spec import SweepSpec, scenario_spec_hash
from repro.telemetry import (
    TRACE_FORMATS,
    TelemetryRecorder,
    monotonic_now,
    read_trace_jsonl,
    render_trace_report,
    summary_payload,
    use_recorder,
    write_chrome_trace,
    write_trace,
)
from repro.utils.logsetup import configure_cli_logging
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig


def _build_engine(args: argparse.Namespace) -> PopulationEngine:
    """The engine the run/experiments subcommands share, from CLI flags."""
    return PopulationEngine.from_flags(
        workers=args.workers, cache_dir=args.cache_dir, no_cache=args.no_cache
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for generation and evaluation (default: auto)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="population cache directory (default: $REPRO_CACHE_DIR when set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk population cache"
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    """Logging and tracing flags shared by every leaf subcommand.

    Attached per-subparser (not on the root) so they work in the natural
    position after the subcommand: ``repro sweep run demo --trace t.jsonl``.
    """
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log run milestones (-v: INFO, -vv: DEBUG cache/optimizer detail)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors only: suppress progress output and non-error logs",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record telemetry (spans + counters) for this invocation to PATH",
    )
    parser.add_argument(
        "--trace-format",
        default="jsonl",
        choices=TRACE_FORMATS,
        help="trace file format: jsonl (repro trace report) or chrome (Perfetto)",
    )
    try:
        parser.add_argument(
            "--metrics",
            default=os.environ.get(METRICS_HISTORY_ENV),
            metavar="PATH",
            help="append this run's metrics record (summary tree, counters, "
            f"gauges, peak RSS) to a JSONL history at PATH "
            f"(default: ${METRICS_HISTORY_ENV})",
        )
    except argparse.ArgumentError:
        # `sweep report` owns --metrics already (its metric *columns*); a pure
        # reader has nothing worth recording, so it simply goes without.
        pass


def _add_monitor_flag(parser: argparse.ArgumentParser) -> None:
    """The ``--monitor`` live status line (``sweep run`` and ``loadgen run``)."""
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="render a live in-terminal status line (phase, rate, p50/p95, "
        "cache hit ratio, resident shards, RSS) on stderr while the run "
        "progresses; in `sweep run` it replaces per-scenario progress prints",
    )


def _resolve_sweep(spec_argument: str) -> SweepSpec:
    """A sweep spec from a TOML path, or a packaged sweep by name."""
    path = Path(spec_argument)
    if path.suffix == ".toml" or path.exists():
        if not path.is_file():
            raise ValidationError(f"sweep spec file not found: {path}")
        return SweepSpec.from_toml(path.read_text(encoding="utf-8"))
    return load_builtin(spec_argument)


def _apply_population_overrides(sweep: SweepSpec, args: argparse.Namespace) -> SweepSpec:
    """Apply ``--hosts/--weeks/--seed`` to the sweep's base scenario.

    Axes that sweep the same population field still win over the override
    (axes are applied per scenario, after the base).
    """
    overrides = {}
    if args.hosts is not None:
        overrides["population.num_hosts"] = args.hosts
    if args.weeks is not None:
        overrides["population.num_weeks"] = args.weeks
    if args.seed is not None:
        overrides["population.seed"] = args.seed
    if not overrides:
        return sweep
    return replace(sweep, scenario=sweep.scenario.with_overrides(overrides))


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    sweep = _apply_population_overrides(_resolve_sweep(args.spec), args)
    store_path = Path(args.store) if args.store else Path(f"sweep-{sweep.name}.jsonl")
    store = ResultStore(store_path)
    engine = _build_engine(args)
    runner = SweepRunner(engine=engine, workers=args.workers)

    scenarios = sweep.expand()  # expanded once; handed to the runner below
    print(f"sweep {sweep.name!r}: {len(scenarios)} scenario(s) -> {store_path}")

    def progress(completed: int, total: int, result: ScenarioResult) -> None:
        # --monitor owns the terminal line, so per-scenario prints are off.
        if args.quiet or getattr(args, "monitor", False):
            return
        outcome = result.outcome
        fused = f" fusion={outcome.fusion}" if outcome.num_features > 1 else ""
        optimized = (
            f" optimizer={outcome.optimizer} objective={outcome.objective_value:.4f}"
            if outcome.optimizer != "none" and outcome.objective_value is not None
            else ""
        )
        sampled = (
            f" ci{outcome.sample_confidence:.0%}="
            f"[{outcome.utility_ci_low:.4f}, {outcome.utility_ci_high:.4f}] "
            f"(n={outcome.sample_size})"
            if outcome.sample_size
            else ""
        )
        print(
            f"  [{completed:>{len(str(total))}}/{total}] {result.scenario.name}: "
            f"utility={outcome.mean_utility:.4f} "
            f"f-measure={outcome.mean_f_measure:.4f} "
            f"alarms={outcome.total_false_alarms}{fused}{optimized}{sampled} "
            f"({result.duration_seconds:.2f}s"
            f"{', population reused' if result.population_reused else ''})"
        )

    # repro-lint: disable=REP002 run ids are provenance labels that deliberately record wall-clock; they are never parsed back into results
    run_id = f"{sweep.name}-{int(time.time())}"
    annotate_run(
        run_id=run_id,
        sweep=sweep.name,
        store=str(store_path),
        scenarios=len(scenarios),
        spec_hashes=[scenario_spec_hash(scenario) for scenario in scenarios],
    )
    run = runner.run(
        sweep,
        store=store,
        progress=progress,
        run_id=run_id,
        scenarios=scenarios,
        skip_existing=not args.rerun,
    )
    if run.skipped_count:
        print(
            f"skipped {run.skipped_count} scenario(s) already in {store_path} "
            f"(pass --rerun to re-evaluate them)"
        )
    print(run.summary())
    print(f"results appended to {store_path} (run id {run_id})")
    return 0


def _store_records(store: ResultStore):
    """Records of an existing, non-empty store; None (after a stderr message) otherwise."""
    if not store.path.is_file():
        print(f"error: result store not found: {store.path}", file=sys.stderr)
        return None
    records = store.records()
    if not records:
        print(
            f"error: result store {store.path} is empty (no scenario records); "
            f"populate it with `repro sweep run ... --store {store.path}`",
            file=sys.stderr,
        )
        return None
    return records


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = _store_records(store)
    if records is None:
        return 1
    if args.pivot:
        rows_field, cols_field = args.pivot
        headers, rows = pivot(
            records, rows=rows_field, columns=cols_field, metric=args.metric, agg=args.agg
        )
        from repro.experiments.report import render_table

        print(
            render_table(
                headers,
                rows,
                title=f"{args.agg}({args.metric}) by {rows_field} x {cols_field}",
            )
        )
        return 0
    metrics = args.metrics if args.metrics else list(HEADLINE_METRICS)
    print(comparison_table(records, metrics=metrics))
    sampled = [record for record in records if record.metrics.get("sample_size")]
    if sampled:
        print()
        print(_sampled_table(sampled))
    # Per-scenario timing records carry population provenance: how many
    # scenarios reused a population another scenario of their run had loaded
    # (cache reads are the run's metrics record, ``repro metrics show``).
    timed = [record for record in records if "population_reused" in record.timing]
    if timed:
        reused = sum(1 for record in timed if record.timing["population_reused"])
        print(f"population reuse: {reused} of {len(timed)} scenario(s)")
    return 0


def _sampled_table(records) -> str:
    """Bootstrap confidence intervals for every sampled-evaluation record."""
    from repro.experiments.report import render_table

    headers = ["scenario", "sampled hosts", "mean_utility", "confidence interval"]
    rows = []
    for record in records:
        metrics = record.metrics
        low = metrics.get("utility_ci_low")
        high = metrics.get("utility_ci_high")
        interval = (
            f"[{low:.4f}, {high:.4f}] @ {metrics.get('sample_confidence', 0.0):.0%}"
            if low is not None and high is not None
            else "-"
        )
        rows.append(
            [
                record.scenario,
                metrics.get("sample_size", 0),
                metrics.get("mean_utility", "-"),
                interval,
            ]
        )
    return render_table(
        headers, rows, title="Sampled evaluation — bootstrap confidence intervals"
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Render utility-vs-week tables for timeline records in a result store."""
    from repro.experiments.report import render_table

    store = ResultStore(args.store)
    records = _store_records(store)
    if records is None:
        return 1
    annotate_run(store=str(store.path), records=len(records))
    timeline_records = [record for record in records if record.metrics.get("timeline")]
    if args.scenario:
        timeline_records = [
            record for record in timeline_records if args.scenario in record.scenario
        ]
    if not timeline_records:
        print(
            f"error: {store.path} holds no timeline records"
            + (f" matching {args.scenario!r}" if args.scenario else "")
            + "; run a sweep with a timeline schedule "
            "(e.g. `repro sweep run retrain-cadence`)",
            file=sys.stderr,
        )
        return 1
    weeks = sorted(
        {int(week) for record in timeline_records for week in record.metrics["timeline"]}
    )
    headers = (
        ["scenario", "schedule"]
        + [f"w{week}" for week in weeks]
        + ["overall", "retrains", "decay/week"]
    )
    rows = []
    for record in timeline_records:
        metrics = record.metrics
        table = metrics["timeline"]
        cells = [
            table[str(week)].get(args.metric, "-") if str(week) in table else "-"
            for week in weeks
        ]
        slope = metrics.get("utility_decay_slope")
        rows.append(
            [record.scenario, metrics.get("schedule", "?")]
            + cells
            + [
                metrics.get(args.metric, "-"),
                metrics.get("retrain_count", 0),
                "-" if slope is None else slope,
            ]
        )
    print(
        render_table(
            headers,
            rows,
            title=f"Timeline — {args.metric} per deployed week",
        )
    )
    return 0


def _cmd_sweep_list(_: argparse.Namespace) -> int:
    sweeps = builtin_sweeps()
    width = max(len(name) for name in sweeps)
    print("packaged sweeps (run with `repro sweep run <name>`):")
    for name in sorted(sweeps):
        spec = sweeps[name]
        print(f"  {name:<{width}}  {len(spec.expand()):>3} scenarios  {spec.description}")
    return 0


def _experiments_config(args: argparse.Namespace) -> EnterpriseConfig:
    """The population the experiments subcommand runs on.

    ``is not None`` checks throughout: 0 is a legitimate ``--seed``.
    """
    seed = args.seed if args.seed is not None else 2009
    if args.paper_scale:
        return EnterpriseConfig(num_hosts=350, num_weeks=5, seed=seed)
    return EnterpriseConfig(
        num_hosts=args.hosts if args.hosts is not None else 100,
        num_weeks=args.weeks if args.weeks is not None else 2,
        seed=seed,
    )


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import run_all_experiments

    config = _experiments_config(args)
    engine = _build_engine(args)
    started = monotonic_now()
    print(f"Generating population: {config.num_hosts} hosts, {config.num_weeks} weeks...")
    population = engine.generate(config)
    report = engine.last_report
    how = "cache" if report.cache_hit else f"{report.workers} worker(s)"
    print(f"  ready in {monotonic_now() - started:.1f}s (via {how})")
    started = monotonic_now()
    print(
        "Running the full experiment suite "
        "(Figures 1-5, Tables 2-3, plus the Figure 6 staleness extension)..."
    )
    suite = run_all_experiments(population=population)
    print(f"  completed in {monotonic_now() - started:.1f}s\n")
    print(suite.render())
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    """Render the per-span summary tree of a recorded JSONL trace."""
    path = Path(args.trace_file)
    if not path.is_file():
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return 1
    snapshot = read_trace_jsonl(path)
    if args.format == "json":
        import json

        print(json.dumps(summary_payload(snapshot), indent=2, sort_keys=True))
        return 0
    print(render_trace_report(snapshot, max_depth=args.max_depth))
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    """Convert a JSONL trace to Chrome ``trace_event`` JSON (Perfetto)."""
    path = Path(args.trace_file)
    if not path.is_file():
        print(f"error: trace file not found: {path}", file=sys.stderr)
        return 1
    snapshot = read_trace_jsonl(path)
    destination = write_chrome_trace(snapshot, args.output)
    print(
        f"chrome trace written to {destination} "
        f"(open in https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Detection campaigns on the synthetic monoculture-HIDS enterprise.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    sweep = subcommands.add_parser("sweep", help="declarative scenario sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    run = sweep_sub.add_parser("run", help="expand and execute a sweep spec")
    run.add_argument("spec", help="TOML spec path, or a packaged sweep name")
    run.add_argument(
        "--store", default=None, help="JSONL result store (default: sweep-<name>.jsonl)"
    )
    run.add_argument("--hosts", type=int, default=None, help="override base population size")
    run.add_argument("--weeks", type=int, default=None, help="override base population weeks")
    run.add_argument("--seed", type=int, default=None, help="override base population seed")
    run.add_argument(
        "--rerun",
        action="store_true",
        help="re-evaluate scenarios whose results are already in the store "
        "(by default they are skipped)",
    )
    _add_monitor_flag(run)
    _add_engine_flags(run)
    _add_output_flags(run)
    run.set_defaults(handler=_cmd_sweep_run)

    report = sweep_sub.add_parser("report", help="compare scenarios stored in a JSONL store")
    report.add_argument("store", help="JSONL result store written by `repro sweep run`")
    report.add_argument(
        "--metrics",
        nargs="+",
        default=None,
        metavar="METRIC",
        help=f"metric columns (default: {' '.join(HEADLINE_METRICS)})",
    )
    report.add_argument(
        "--pivot",
        nargs=2,
        default=None,
        metavar=("ROWS", "COLS"),
        help="cross-tabulate two record fields (e.g. spec.policy.kind spec.attack.size)",
    )
    report.add_argument(
        "--metric", default="mean_utility", help="metric to aggregate in --pivot mode"
    )
    report.add_argument(
        "--agg",
        default="mean",
        choices=sorted(AGGREGATIONS),
        help="aggregation used in --pivot mode",
    )
    _add_output_flags(report)
    report.set_defaults(handler=_cmd_sweep_report)

    listing = sweep_sub.add_parser("list", help="show the packaged scenario library")
    _add_output_flags(listing)
    listing.set_defaults(handler=_cmd_sweep_list)

    timeline = subcommands.add_parser(
        "timeline",
        help="utility-vs-week tables for timeline (retrain-schedule) results",
    )
    timeline.add_argument("store", help="JSONL result store written by `repro sweep run`")
    timeline.add_argument(
        "--metric",
        default="mean_utility",
        help="per-week metric to tabulate (default: mean_utility)",
    )
    timeline.add_argument(
        "--scenario",
        default=None,
        help="only show scenarios whose name contains this substring",
    )
    _add_output_flags(timeline)
    timeline.set_defaults(handler=_cmd_timeline)

    from repro.loadgen.cli import add_loadgen_parser

    add_loadgen_parser(subcommands, _add_engine_flags, _add_monitor_flag, _add_output_flags)

    from repro.analysis.cli import add_lint_parser

    add_lint_parser(subcommands, _add_output_flags)

    from repro.metrics.cli import add_metrics_parser

    add_metrics_parser(subcommands, _add_output_flags)

    experiments = subcommands.add_parser(
        "experiments",
        help="run the full paper experiment suite "
        "(Figures 1-5, Tables 2-3, plus the Figure 6 staleness extension)",
    )
    experiments.add_argument(
        "--paper-scale", action="store_true", help="use 350 hosts and 5 weeks"
    )
    experiments.add_argument("--hosts", type=int, default=None, help="number of end hosts")
    experiments.add_argument("--weeks", type=int, default=None, help="weeks of traffic")
    experiments.add_argument("--seed", type=int, default=None, help="generation seed")
    _add_engine_flags(experiments)
    _add_output_flags(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    trace = subcommands.add_parser(
        "trace", help="inspect and convert recorded telemetry traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_report = trace_sub.add_parser(
        "report", help="per-span count/total/self/p50/p95 summary of a JSONL trace"
    )
    trace_report.add_argument(
        "trace_file", help="JSONL trace recorded with `repro ... --trace PATH`"
    )
    trace_report.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="collapse the span tree below this depth (default: show all)",
    )
    trace_report.add_argument(
        "--format",
        default="text",
        choices=("text", "json"),
        help="text (rendered table) or json (the machine-readable summary "
        "shape `repro metrics` records and diffs)",
    )
    _add_output_flags(trace_report)
    trace_report.set_defaults(handler=_cmd_trace_report)

    trace_convert = trace_sub.add_parser(
        "convert",
        help="convert a JSONL trace to Chrome trace_event JSON (Perfetto)",
    )
    trace_convert.add_argument(
        "trace_file", help="JSONL trace recorded with `repro ... --trace PATH`"
    )
    trace_convert.add_argument("output", help="destination for the Chrome trace JSON")
    _add_output_flags(trace_convert)
    trace_convert.set_defaults(handler=_cmd_trace_convert)

    return parser


def _command_label(args: argparse.Namespace) -> str:
    """The full subcommand path (``sweep run``, ``loadgen run``, ...)."""
    parts = [str(args.command)]
    for attribute in ("sweep_command", "loadgen_command", "trace_command", "metrics_command"):
        value = getattr(args, attribute, None)
        if value:
            parts.append(str(value))
    return " ".join(parts)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected handler, recording telemetry when flags ask for it.

    ``--trace``, ``--metrics`` and ``--monitor`` all install the same
    :class:`TelemetryRecorder` around the handler; the trace is exported and
    the metrics record appended even when the handler raises, so a failing
    run still leaves its partial span log and history record behind for
    diagnosis.
    """
    trace_path = getattr(args, "trace", None)
    # `sweep report` reuses the name --metrics for its metric *columns* (a
    # list); only the shared string-valued history flag enables recording.
    metrics_path = getattr(args, "metrics", None)
    if not isinstance(metrics_path, str):
        metrics_path = None
    monitor_requested = getattr(args, "monitor", False)
    if not (trace_path or metrics_path or monitor_requested):
        return args.handler(args)
    from repro.metrics.monitor import CampaignMonitor

    recorder = TelemetryRecorder()
    trace_format = getattr(args, "trace_format", "jsonl")
    monitor = CampaignMonitor(recorder) if monitor_requested else None
    started = recorder.clock()
    with use_recorder(recorder), collect_annotations() as notes:
        try:
            return args.handler(args)
        finally:
            if monitor is not None:
                monitor.close()
            if trace_path:
                destination = write_trace(recorder, trace_path, trace_format)
                print(f"trace written to {destination} ({trace_format})")
            if metrics_path:
                record = build_run_record(
                    recorder.snapshot(),
                    command=_command_label(args),
                    wall_clock_seconds=recorder.clock() - started,
                    annotations=notes,
                )
                history = MetricsHistory(metrics_path)
                history.append(record)
                print(f"metrics appended to {history.path} (run id {record.run_id})")


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(
        verbose=getattr(args, "verbose", 0), quiet=getattr(args, "quiet", False)
    )
    try:
        return _dispatch(args)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed the pipe (`repro sweep report ... | head`); point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as error:
        # Unreadable store/spec paths (directory, permissions, ...) are user
        # errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2


__all__ = ["main", "build_parser"]
