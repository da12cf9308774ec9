"""A module that honours every invariant: nothing to report here."""

from telemetry import add_count, trace_span
from utils.rng import spawn_rng


def run(seed, n):
    rng = spawn_rng(seed)
    with trace_span("app.run"):
        add_count("app.items", n)
        return rng.random(n)
