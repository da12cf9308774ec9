"""Byte-for-byte regression tests of what the observability surfaces print.

``tests/data/golden_observability.json`` (written by
``scripts/dev_capture_golden.py`` with the builders in ``tests/helpers.py``)
holds, one list of lines per text: the fake-clock report and BENCH JSON of
the ``tiny``, ``tiny-soak`` and ``demo`` load profiles, a SHA-256 of the
``demo`` plan, and every run-metrics and trace rendering of one fake-clock
synthetic run.  The determinism tests elsewhere compare two runs of the same
code; these compare the code against bytes it printed before, so a refactor
that moves one byte fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import (
    GOLDEN_PROFILES,
    golden_load_payloads,
    golden_renderings,
    plan_sha256,
)
from repro.loadgen import load_profile

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden_observability.json").read_text()
)


@pytest.fixture(scope="module")
def renderings():
    return golden_renderings()


@pytest.mark.parametrize("name", sorted(GOLDEN_PROFILES))
def test_fake_clock_load_report_and_bench_json(name):
    payloads = golden_load_payloads(name)
    assert set(payloads) == {"report", "bench"}
    for kind, lines in payloads.items():
        assert "\n".join(lines) == "\n".join(GOLDEN["loadgen"][name][kind]), (name, kind)


def test_demo_plan_digest():
    assert plan_sha256(load_profile("demo")) == GOLDEN["demo_plan_sha256"]


@pytest.mark.parametrize("name", sorted(GOLDEN["renderings"]))
def test_rendering_bytes(renderings, name):
    assert "\n".join(renderings[name]) == "\n".join(GOLDEN["renderings"][name])


def test_every_golden_rendering_is_checked(renderings):
    assert set(renderings) == set(GOLDEN["renderings"])
    assert set(GOLDEN["loadgen"]) == set(GOLDEN_PROFILES)
