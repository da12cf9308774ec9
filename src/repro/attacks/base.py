"""The attack builder interface.

An attack is additional per-bin feature counts aligned with each victim's
benign test week: an :data:`AttackBuilder` turns a :class:`VictimBatch` into
each attacked feature's ``(num_hosts, num_bins)`` amounts.  Overlaying them
on the benign series is a simple element-wise addition (the paper's
additivity assumption), done by the measurement kernel in
:mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.utils.timeutils import BinSpec


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

