"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging
import sys
from pathlib import Path

# Allow running the tests without installing the package (src/ layout).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np
import pytest

from repro.utils.rng import RandomSource
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise


@pytest.fixture(scope="session")
def small_population():
    """A small but non-trivial population shared by read-only tests."""
    config = EnterpriseConfig(num_hosts=40, num_weeks=2, seed=1234)
    return generate_enterprise(config)


@pytest.fixture(scope="session")
def tiny_population():
    """A very small population for the slower end-to-end experiment tests."""
    config = EnterpriseConfig(num_hosts=16, num_weeks=2, seed=99)
    return generate_enterprise(config)


@pytest.fixture()
def rng():
    """A deterministic numpy generator."""
    return np.random.default_rng(7)


@pytest.fixture()
def random_source():
    """A deterministic hierarchical random source."""
    return RandomSource(seed=42, label="test")


@pytest.fixture()
def jsonl_warnings():
    """Messages ``repro.utils.jsonl`` logs at WARNING, captured at that logger.

    A handler on the logger itself still sees them after a CLI test has made
    the ``repro`` logger quiet and non-propagating.
    """
    logger = logging.getLogger("repro.utils.jsonl")
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    previous_level = logger.level
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)
