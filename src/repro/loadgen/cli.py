"""``repro loadgen`` subcommands: list tiers, run profiles, report results.

Wired into the main ``repro`` parser by :func:`add_loadgen_parser` (see
:mod:`repro.sweeps.cli`)::

    repro loadgen list                 # the packaged tier ladder
    repro loadgen run demo             # CI smoke tier, seconds of wall clock
    repro loadgen run peak --bench-json BENCH_loadgen.json
    repro loadgen report loadgen-demo.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

from repro.engine import PopulationEngine
from repro.loadgen.orchestrator import LoadOrchestrator
from repro.loadgen.profiles import PROFILES, load_profile
from repro.metrics.record import annotate_run


def _build_engine(args: argparse.Namespace) -> PopulationEngine:
    return PopulationEngine.from_flags(
        workers=args.workers, cache_dir=args.cache_dir, no_cache=args.no_cache
    )


def _phase_rows(payload: Dict[str, Any]) -> List[List[Any]]:
    rows = []
    for phase in payload["phases"]:
        latency = phase["latency_seconds"]
        throughput = phase["throughput"]
        rows.append(
            [
                phase["name"],
                phase["kind"],
                phase["num_events"],
                f"{phase['duration_seconds']:.2f}",
                f"{latency['p50']:.3f}",
                f"{latency['p95']:.3f}",
                f"{latency['p99']:.3f}",
                f"{throughput['scenarios_per_second']:.2f}",
                f"{throughput['host_weeks_per_second']:.1f}",
            ]
        )
    return rows


def _render_report(payload: Dict[str, Any]) -> str:
    from repro.experiments.report import render_table

    profile = payload["profile"]
    totals = payload["totals"]
    headers = [
        "phase",
        "kind",
        "events",
        "duration_s",
        "p50_s",
        "p95_s",
        "p99_s",
        "scen/s",
        "host-weeks/s",
    ]
    table = render_table(
        headers,
        _phase_rows(payload),
        title=(
            f"loadgen {profile['name']} — {profile['num_hosts']} hosts, "
            f"{profile['num_weeks']} weeks, seed {profile['seed']}"
        ),
    )
    summary = (
        f"total: {totals['events']} event(s), {totals['host_weeks']:.0f} host-weeks "
        f"in {payload['duration_seconds']:.2f}s "
        f"({totals['scenarios_per_second']:.2f} scenarios/s, "
        f"{totals['host_weeks_per_second']:.1f} host-weeks/s)"
    )
    # Reports written before the engine_cache field existed render without it.
    cache = payload.get("engine_cache")
    if cache is not None:
        summary += (
            f"\nengine cache: {cache['hits']} hit(s), {cache['misses']} miss(es) "
            f"({cache['hit_ratio']:.0%} hit ratio)"
        )
    return f"{table}\n{summary}"


def _cmd_loadgen_list(_: argparse.Namespace) -> int:
    width = max(len(name) for name in PROFILES)
    print("packaged load profiles (run with `repro loadgen run <tier>`):")
    for name, profile in PROFILES.items():
        print(
            f"  {name:<{width}}  {profile.num_hosts:>3} hosts  "
            f"{profile.num_weeks} weeks  {profile.total_events:>2} events  "
            f"{profile.description}"
        )
    return 0


def _cmd_loadgen_run(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    if args.seed is not None:
        profile = replace(profile, seed=args.seed)
    engine = _build_engine(args)
    orchestrator = LoadOrchestrator(
        engine=engine, workers=args.workers if args.workers else 1
    )
    annotate_run(
        profile=profile.name,
        seed=profile.seed,
        hosts=profile.num_hosts,
        events=profile.total_events,
    )
    print(
        f"loadgen {profile.name!r}: {profile.total_events} event(s) across "
        f"{len(profile.phases)} phase(s) on {profile.num_hosts} hosts..."
    )
    report = orchestrator.run(profile)
    payload = report.to_dict()
    print(_render_report(payload))
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.json}")
    if args.bench_json:
        Path(args.bench_json).write_text(
            json.dumps(report.to_bench_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"BENCH-compatible trajectory written to {args.bench_json}")
    return 0


def _cmd_loadgen_report(args: argparse.Namespace) -> int:
    path = Path(args.report)
    if not path.is_file():
        print(f"error: load report not found: {path}", file=sys.stderr)
        return 1
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "profile" not in payload or "phases" not in payload:
        print(
            f"error: {path} is not a loadgen report "
            f"(write one with `repro loadgen run <tier> --json {path}`)",
            file=sys.stderr,
        )
        return 1
    print(_render_report(payload))
    return 0


def add_loadgen_parser(
    subcommands, add_engine_flags, add_monitor_flag, add_output_flags=None
) -> None:
    """Register the ``loadgen`` subcommand on the main ``repro`` parser."""
    loadgen = subcommands.add_parser(
        "loadgen", help="profile-driven load generation and soak testing"
    )
    loadgen_sub = loadgen.add_subparsers(dest="loadgen_command", required=True)

    def output_flags(parser) -> None:
        if add_output_flags is not None:
            add_output_flags(parser)

    listing = loadgen_sub.add_parser("list", help="show the packaged profile tiers")
    output_flags(listing)
    listing.set_defaults(handler=_cmd_loadgen_list)

    run = loadgen_sub.add_parser("run", help="execute a load profile")
    run.add_argument("profile", help=f"profile tier ({', '.join(PROFILES)})")
    run.add_argument("--seed", type=int, default=None, help="override the load-plan seed")
    run.add_argument("--json", default=None, help="write the full report JSON here")
    run.add_argument(
        "--bench-json",
        default=None,
        help="write a pytest-benchmark-compatible BENCH_*.json here "
        "(feeds scripts/bench_compare.py)",
    )
    add_monitor_flag(run)
    add_engine_flags(run)
    output_flags(run)
    run.set_defaults(handler=_cmd_loadgen_run)

    report = loadgen_sub.add_parser("report", help="render a saved load report")
    report.add_argument("report", help="report JSON written by `repro loadgen run --json`")
    output_flags(report)
    report.set_defaults(handler=_cmd_loadgen_report)


__all__ = ["add_loadgen_parser"]
