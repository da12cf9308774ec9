"""CI smoke check: a recorded telemetry trace carries the expected structure.

Validates the JSONL trace a ``repro sweep run ... --trace`` invocation wrote:
the expected root spans exist, every span is well-formed (non-negative
duration, resolvable parent), and the workload counters are present and
non-zero.

Usage::

    python scripts/ci_checks/check_trace.py trace-smoke.jsonl \\
        --root-span sweeps.run --counter sweeps.scenarios_evaluated
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

#: Root spans a sweep-run trace must contain when no --root-span is given.
DEFAULT_ROOT_SPANS = ("sweeps.run",)

#: Counters that must be present and non-zero when no --counter is given.
DEFAULT_COUNTERS = (
    "sweeps.scenarios_evaluated",
    "core.host_weeks_measured",
    "engine.hosts_generated",
)


def check(
    trace: Dict[str, Any],
    root_spans: Sequence[str],
    counters: Sequence[str],
) -> List[str]:
    """Every violated expectation, as human-readable messages."""
    errors: List[str] = []
    spans = trace["spans"]
    if not spans:
        errors.append("trace contains no spans")
    span_ids = {span["id"] for span in spans}
    recorded_roots = {span["name"] for span in spans if span["parent"] is None}
    for name in root_spans:
        if name not in recorded_roots:
            errors.append(
                f"expected root span {name!r} missing "
                f"(roots recorded: {sorted(recorded_roots) or 'none'})"
            )
    for span in spans:
        label = f"span #{span['id']} ({span['name']})"
        if span["end"] < span["start"]:
            errors.append(f"{label}: negative duration")
        if span["parent"] is not None and span["parent"] not in span_ids:
            errors.append(f"{label}: dangling parent id {span['parent']}")
    recorded_counters = trace["counters"]
    for name in counters:
        if name not in recorded_counters:
            errors.append(
                f"expected counter {name!r} missing "
                f"(counters recorded: {sorted(recorded_counters) or 'none'})"
            )
        elif not recorded_counters[name] > 0:
            errors.append(f"counter {name!r} is {recorded_counters[name]}, expected > 0")
    return errors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="JSONL trace written by `repro ... --trace`")
    parser.add_argument(
        "--root-span",
        action="append",
        default=None,
        metavar="NAME",
        help=f"required root span, repeatable (default: {' '.join(DEFAULT_ROOT_SPANS)})",
    )
    parser.add_argument(
        "--counter",
        action="append",
        default=None,
        metavar="NAME",
        help="required non-zero counter, repeatable "
        f"(default: {' '.join(DEFAULT_COUNTERS)})",
    )
    args = parser.parse_args(argv)
    from repro.telemetry import read_trace_jsonl
    from repro.utils.validation import ValidationError

    try:
        trace = read_trace_jsonl(args.trace)
    except (OSError, ValidationError, KeyError) as error:
        print(f"check_trace: error: {error!r}", file=sys.stderr)
        return 2
    errors = check(
        trace,
        root_spans=args.root_span or DEFAULT_ROOT_SPANS,
        counters=args.counter or DEFAULT_COUNTERS,
    )
    if errors:
        for error in errors:
            print(f"check_trace: FAIL: {error}", file=sys.stderr)
        return 1
    print(
        f"OK: {len(trace['spans'])} span(s), {len(trace['counters'])} counter(s); "
        f"expected roots and workload counters present"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
