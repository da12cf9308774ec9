"""Composable week-over-week drift models for the enterprise population.

The baseline generator already carries the paper's calibrated
non-stationarity (:class:`~repro.workload.generator.HostSeriesGenerator`'s
``week_drift_scale``: mild lognormal wobble plus a heaviness-weighted upward
trend).  The models here layer *named*, scenario-selectable drift shapes on
top of it, so temporal studies (:mod:`repro.temporal`) can ask how quickly a
deployed threshold vector goes stale under qualitatively different kinds of
change:

* ``seasonal`` — a deterministic enterprise-wide seasonal swing (quarter
  close, teaching terms): every host's activity follows one shared sinusoid
  over the weeks.
* ``role-churn`` — users change jobs: with some probability per week a host's
  activity level takes a persistent multiplicative jump (a random walk of
  level changes).
* ``fleet-turnover`` — machines are replaced: with some probability per week
  a host is swapped for a new one whose level is re-drawn from scratch
  (jumps do not accumulate; each replacement forgets the past).
* ``flash-crowd`` — named weeks see a population-wide surge (an all-hands
  stream, an incident): every host's activity is multiplied up for exactly
  those weeks.

Models are *composable*: a :class:`DriftModel` holds any number of
components whose per-week multipliers combine multiplicatively.  All
randomness comes from a dedicated per-host ``"drift"`` random stream, so an
empty model leaves generation bit-identical to the pre-drift code, and adding
a component never perturbs the benign body/burst draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

from repro.utils.validation import ValidationError, require
from repro.workload.profiles import HostProfile

#: Drift component kinds understood by :class:`DriftComponent`.
DRIFT_KINDS = ("seasonal", "role-churn", "fleet-turnover", "flash-crowd")


@dataclass(frozen=True)
class DriftComponent:
    """One named drift shape and its parameters.

    Attributes
    ----------
    kind:
        One of :data:`DRIFT_KINDS`.
    scale:
        Overall strength multiplier of the component (0 disables it without
        removing it from the model).
    period_weeks:
        Period of the ``seasonal`` sinusoid, in weeks.
    probability:
        Per-host per-week probability of a ``role-churn`` jump or a
        ``fleet-turnover`` replacement.  Week 0 never churns: the first week
        is every host's sampled baseline.
    weeks:
        The 0-based weeks a ``flash-crowd`` surge covers; empty selects the
        middle week of the generated span.
    magnitude:
        Peak activity multiplier of a ``flash-crowd`` week (before
        ``scale``).
    """

    kind: str
    scale: float = 1.0
    period_weeks: int = 4
    probability: float = 0.15
    weeks: Tuple[int, ...] = ()
    magnitude: float = 3.0

    def __post_init__(self) -> None:
        if self.kind not in DRIFT_KINDS:
            raise ValidationError(
                f"drift kind must be one of {list(DRIFT_KINDS)}, got {self.kind!r}"
            )
        require(self.scale >= 0.0, "drift scale must be non-negative")
        require(self.period_weeks >= 1, "drift period_weeks must be >= 1")
        require(0.0 <= self.probability <= 1.0, "drift probability must be in [0, 1]")
        weeks = tuple(int(week) for week in self.weeks)
        require(all(week >= 0 for week in weeks), "drift weeks must be non-negative")
        object.__setattr__(self, "weeks", weeks)
        require(self.magnitude > 0.0, "drift magnitude must be positive")

    def week_multipliers(
        self, profile: HostProfile, num_weeks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-week activity multipliers of this component for one host.

        Stochastic components draw a fixed number of values per call (one
        Bernoulli and one jump per week), so composing components keeps every
        stream stable regardless of which weeks actually churn.
        """
        require(num_weeks >= 1, "num_weeks must be >= 1")
        if self.kind == "seasonal":
            weeks = np.arange(num_weeks)
            swing = np.sin(2.0 * np.pi * weeks / float(self.period_weeks))
            return 10.0 ** (self.scale * 0.2 * swing)
        if self.kind == "role-churn":
            changed = rng.uniform(size=num_weeks) < self.probability
            jumps = rng.normal(0.0, 0.4 * self.scale, size=num_weeks)
            changed[0] = False
            return 10.0 ** np.cumsum(np.where(changed, jumps, 0.0))
        if self.kind == "fleet-turnover":
            replaced = rng.uniform(size=num_weeks) < self.probability
            levels = rng.normal(0.0, 0.5 * self.scale, size=num_weeks)
            replaced[0] = False
            indices = np.arange(num_weeks)
            last = np.maximum.accumulate(np.where(replaced, indices, -1))
            return np.where(last >= 0, 10.0 ** levels[np.maximum(last, 0)], 1.0)
        # flash-crowd: deterministic population-wide surge weeks.
        surge_weeks = self.weeks if self.weeks else (num_weeks // 2,)
        multipliers = np.ones(num_weeks)
        surge = 1.0 + self.scale * (self.magnitude - 1.0)
        for week in surge_weeks:
            if 0 <= week < num_weeks:
                multipliers[week] = surge
        return multipliers


@dataclass(frozen=True)
class DriftModel:
    """A composition of :class:`DriftComponent` shapes (empty = no extra drift)."""

    components: Tuple[DriftComponent, ...] = ()

    def __post_init__(self) -> None:
        components = tuple(self.components)
        require(
            all(isinstance(component, DriftComponent) for component in components),
            "drift model components must be DriftComponent instances",
        )
        object.__setattr__(self, "components", components)

    def __bool__(self) -> bool:
        return bool(self.components)

    @property
    def name(self) -> str:
        """Short display name: "+"-joined component kinds (``"none"`` if empty)."""
        if not self.components:
            return "none"
        return "+".join(component.kind for component in self.components)

    def week_multipliers(
        self, profile: HostProfile, num_weeks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Composed per-week multipliers: the product over all components.

        Components consume the shared ``rng`` in declaration order, so the
        same model composition always reproduces the same drift.
        """
        multipliers = np.ones(num_weeks)
        for component in self.components:
            multipliers = multipliers * component.week_multipliers(profile, num_weeks, rng)
        return multipliers

    @classmethod
    def from_kinds(cls, kinds: str, **params: Any) -> "DriftModel":
        """Build a model from a "+"-joined kind string (``"seasonal+flash-crowd"``).

        ``"none"`` or an empty string yields the empty model; ``params`` are
        shared by every component (each kind reads only its relevant subset).
        """
        cleaned = [part.strip() for part in kinds.split("+") if part.strip()]
        if cleaned in ([], ["none"]):
            return cls()
        components: List[DriftComponent] = []
        seen = set()
        for kind in cleaned:
            require(kind not in seen, f"drift kind {kind!r} listed twice")
            seen.add(kind)
            components.append(DriftComponent(kind=kind, **params))
        return cls(components=tuple(components))


#: Reusable empty model (the default: only the baseline generator drift).
NO_DRIFT = DriftModel()
