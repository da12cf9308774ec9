"""Attack interfaces and attack traces.

An attack is represented as additional per-bin feature counts — an
:class:`AttackTrace` — aligned with a victim host's benign feature series.
Overlaying the attack on the benign series is a simple element-wise addition
(the paper's additivity assumption), done by the measurement kernel in
:mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix
from repro.utils.timeutils import BinSpec
from repro.utils.validation import require


@dataclass(frozen=True)
class FeatureInjection:
    """Additional counts injected into one feature, per bin."""

    feature: Feature
    amounts: np.ndarray

    def __post_init__(self) -> None:
        amounts = np.asarray(self.amounts, dtype=float)
        require(amounts.ndim == 1, "amounts must be one-dimensional")
        require(np.all(amounts >= 0), "attack amounts must be non-negative")
        object.__setattr__(self, "amounts", amounts)

    @property
    def total(self) -> float:
        """Total injected volume over the whole trace."""
        return float(np.sum(self.amounts))


@dataclass(frozen=True)
class AttackTrace:
    """A complete attack: injections for one or more features on one host.

    Attributes
    ----------
    name:
        Human-readable attack name ("naive-50", "storm-zombie", ...).
    injections:
        Per-feature injected amounts (all arrays share the same length).
    bin_spec:
        The binning of the injection arrays.
    """

    name: str
    injections: Mapping[Feature, FeatureInjection]
    bin_spec: BinSpec

    def __post_init__(self) -> None:
        require(len(self.injections) > 0, "attack trace requires at least one injected feature")
        lengths = {injection.amounts.size for injection in self.injections.values()}
        require(len(lengths) == 1, "all injections must cover the same number of bins")

    @property
    def num_bins(self) -> int:
        """Number of bins covered by the attack."""
        return next(iter(self.injections.values())).amounts.size

    @property
    def features(self) -> Sequence[Feature]:
        """Features targeted by the attack."""
        return tuple(self.injections.keys())

    def injection(self, feature: Feature) -> Optional[FeatureInjection]:
        """Injection for ``feature`` (None if the attack does not touch it)."""
        return self.injections.get(feature)

    def amounts(self, feature: Feature) -> np.ndarray:
        """Injected per-bin amounts for ``feature`` (zeros if untouched)."""
        injection = self.injections.get(feature)
        if injection is None:
            return np.zeros(self.num_bins)
        return injection.amounts


class VictimBatch:
    """A batch of victim hosts sharing one test-week bin grid, handed to an attack builder.

    Feature value stacks are provided lazily so a builder that only needs
    ``num_bins`` (naive, storm) never pays for stacking, while the mimicry
    attacker can profile every victim of its target feature in a single
    ``(num_hosts, num_bins)`` array.

    Attributes
    ----------
    host_ids:
        The victims, in measurement order (row ``i`` of every stack belongs
        to ``host_ids[i]``).
    bin_spec:
        The common binning of the victims' series.
    num_bins:
        Bins per victim series.
    thresholds:
        Per-feature ``(num_hosts,)`` threshold vectors handed to the attacker
        (how the mimicry attacker learns the threshold it must stay under).
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        bin_spec: BinSpec,
        num_bins: int,
        thresholds: Mapping[Feature, np.ndarray],
        values_provider: Callable[[Feature], np.ndarray],
    ) -> None:
        self.host_ids: Tuple[int, ...] = tuple(host_ids)
        self.bin_spec = bin_spec
        self.num_bins = int(num_bins)
        self.thresholds = dict(thresholds)
        self._values_provider = values_provider
        self._values_cache: Dict[Feature, np.ndarray] = {}

    @property
    def num_hosts(self) -> int:
        """Number of victims in the batch."""
        return len(self.host_ids)

    def values(self, feature: Feature) -> np.ndarray:
        """``(num_hosts, num_bins)`` benign value stack of ``feature``."""
        if feature not in self._values_cache:
            self._values_cache[feature] = self._values_provider(feature)
        return self._values_cache[feature]


#: An attack builder: per-feature ``(num_hosts, num_bins)`` amounts injected
#: into a victim batch's test week.  An all-zero row leaves that host
#: unattacked; a ``None`` result leaves the whole batch unattacked.  A builder
#: may carry a ``tracks_schedule`` attribute (see
#: :func:`repro.temporal.evaluate_timeline`).
AttackBuilder = Callable[[VictimBatch], Optional[Mapping[Feature, np.ndarray]]]


class Attack:
    """Interface: build an attack trace against a specific victim host.

    The victim's benign feature matrix is provided because the resourceful
    attacker needs it to profile the host; naive attackers ignore it.
    """

    name = "attack"

    def build(self, victim: FeatureMatrix, rng: np.random.Generator) -> AttackTrace:
        """Return the attack trace to overlay on ``victim``."""
        raise NotImplementedError
