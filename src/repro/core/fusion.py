"""Alarm fusion rules for multi-feature detection.

A :class:`FusionRule` turns the per-feature alert indicators of one bin into
a single fused alarm decision.  The paper's agents monitor several behavioral
features per host (Table 1); fusing their per-feature detectors is where the
monoculture trade-off gets interesting — a mimicry attack sized to evade one
feature's threshold can still trip another, so ``any``-fusion buys detection
depth at the price of a higher false-positive rate, while ``all``-fusion (or
the general ``k``-of-``n`` vote) trades the other way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require

#: Fusion rules understood by :class:`FusionRule`.
FUSION_RULES = ("any", "all", "k_of_n")


@dataclass(frozen=True)
class FusionRule:
    """How per-feature alert indicators combine into one fused alarm per bin.

    Attributes
    ----------
    rule:
        ``"any"`` (a single feature's alert suffices), ``"all"`` (every
        feature must alert) or ``"k_of_n"`` (at least ``k`` features must
        alert).
    k:
        The vote count for ``"k_of_n"``; ignored by the other rules.  ``k``
        is clamped to the evaluated feature count, so a rule like
        ``k_of_n(2)`` stays meaningful when swept across feature sets of
        varying size (over a single feature it degenerates to ``any``).
    """

    rule: str = "any"
    k: int = 1

    def __post_init__(self) -> None:
        require(
            self.rule in FUSION_RULES,
            f"fusion rule must be one of {list(FUSION_RULES)}, got {self.rule!r}",
        )
        require(self.k >= 1, "fusion k must be >= 1")

    # ------------------------------------------------------------ constructors
    @classmethod
    def any_(cls) -> "FusionRule":
        """At least one feature alerts (logical OR)."""
        return cls(rule="any")

    @classmethod
    def all_(cls) -> "FusionRule":
        """Every feature alerts (logical AND)."""
        return cls(rule="all")

    @classmethod
    def k_of_n(cls, k: int) -> "FusionRule":
        """At least ``k`` of the evaluated features alert."""
        return cls(rule="k_of_n", k=k)

    # ------------------------------------------------------------------ naming
    @property
    def name(self) -> str:
        """Stable display name (``"any"``, ``"all"``, ``"2-of-n"``)."""
        if self.rule == "k_of_n":
            return f"{self.k}-of-n"
        return self.rule

    # ---------------------------------------------------------------- fusion
    def required_votes(self, num_features: int) -> int:
        """Alerting-feature count needed to raise the fused alarm."""
        require(num_features >= 1, "num_features must be >= 1")
        if self.rule == "any":
            return 1
        if self.rule == "all":
            return num_features
        return min(self.k, num_features)

    def alarm_probability(self, alert_probabilities: np.ndarray) -> np.ndarray:
        """``P(fused alarm)`` from independent per-feature alert probabilities.

        ``alert_probabilities`` has the features on axis 0 (any trailing axes
        are broadcast through, e.g. candidate-threshold grids); the result
        drops axis 0.  Treating the per-bin alert indicators as independent
        Bernoulli draws, the fused alarm fires when at least
        :meth:`required_votes` features alert — the Poisson-binomial tail the
        threshold optimizers score candidate vectors with.  For one feature
        (any rule) this is the identity, matching the single-feature utility
        heuristic's objective exactly.
        """
        probs = np.asarray(alert_probabilities, dtype=float)
        require(probs.ndim >= 1 and probs.shape[0] >= 1, "at least one feature row is required")
        num_features = probs.shape[0]
        votes_needed = self.required_votes(num_features)
        # dp[j] = P(exactly j of the features seen so far alert); fold one
        # feature in per step, updating high counts first so each step reads
        # the previous step's values.
        dp = np.zeros((num_features + 1,) + probs.shape[1:])
        dp[0] = 1.0
        for index in range(num_features):
            p = probs[index]
            for votes in range(index + 1, 0, -1):
                dp[votes] = dp[votes] * (1.0 - p) + dp[votes - 1] * p
            dp[0] = dp[0] * (1.0 - p)
        return np.sum(dp[votes_needed:], axis=0)
