"""Regression tests of what the specs store and hash, against stored bytes.

``tests/data/golden_specs.json`` (written by ``scripts/dev_capture_golden.py``
with ``specs_golden`` in ``tests/helpers.py``) pins every packaged sweep's
TOML text, every expanded scenario's ``scenario_spec_hash``, the
``population_cache_key`` of each distinct population they generate and every
packaged load profile's planned event-stream digest.  The sweep result cache
serves a stored record only while its spec hash stays the same, and the
population cache serves a population only while its key does, so a change to
how a record serialises must leave all of these unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import specs_golden

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "golden_specs.json").read_text()
)


@pytest.fixture(scope="module")
def observed():
    return specs_golden()


@pytest.mark.parametrize("section", sorted(GOLDEN))
def test_section_matches_the_stored_bytes(observed, section):
    expected = GOLDEN[section]
    actual = observed[section]
    assert sorted(actual) == sorted(expected), section
    for name, value in expected.items():
        assert actual[name] == value, (section, name)


def test_every_section_is_checked(observed):
    assert set(observed) == set(GOLDEN)
    assert {section: len(values) for section, values in GOLDEN.items()} == {
        "sweep_toml": 7,
        "scenario_spec_hashes": 117,
        "population_cache_keys": 7,
        "plan_sha256": 5,
    }
