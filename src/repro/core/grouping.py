"""Grouping strategies: how the host population is partitioned.

A grouping strategy decides which hosts share a threshold.  The extremes are
one global group (homogeneous / monoculture) and one group per host (full
diversity); partial diversity lies in between.  The paper's partial-diversity
heuristic splits the population at the knee of the tail-value curve (the top
15% heaviest hosts) and subdivides each side into four groups, for eight
groups total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from repro.utils.validation import require, require_probability


@dataclass(frozen=True)
class GroupAssignment:
    """The outcome of grouping: which hosts belong to which group.

    Attributes
    ----------
    groups:
        Tuple of groups; each group is a tuple of host ids.
    strategy_name:
        Name of the strategy that produced the assignment.
    """

    groups: Tuple[Tuple[int, ...], ...]
    strategy_name: str

    def __post_init__(self) -> None:
        require(len(self.groups) > 0, "assignment must contain at least one group")
        all_hosts = [host for group in self.groups for host in group]
        require(len(all_hosts) == len(set(all_hosts)), "hosts must not appear in multiple groups")
        require(all(len(group) > 0 for group in self.groups), "groups must be non-empty")

    @property
    def num_groups(self) -> int:
        """Number of groups."""
        return len(self.groups)

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """All hosts covered by the assignment, sorted."""
        return tuple(sorted(host for group in self.groups for host in group))


class GroupingStrategy:
    """Interface: partition hosts given a per-host scalar statistic.

    The statistic is the host's tail value for the feature being configured
    (the paper groups on the 99th percentile).
    """

    name = "grouping"

    def assign(self, host_statistics: Mapping[int, float]) -> GroupAssignment:
        """Partition the hosts of ``host_statistics`` into groups."""
        raise NotImplementedError


@dataclass(frozen=True)
class SingleGroupGrouping(GroupingStrategy):
    """All hosts in one group — the monoculture / homogeneous configuration."""

    name: str = "single-group"

    def assign(self, host_statistics: Mapping[int, float]) -> GroupAssignment:
        require(len(host_statistics) > 0, "cannot group an empty population")
        return GroupAssignment(
            groups=(tuple(sorted(host_statistics)),), strategy_name=self.name
        )


@dataclass(frozen=True)
class PerHostGrouping(GroupingStrategy):
    """Each host is its own group — the full-diversity configuration."""

    name: str = "per-host"

    def assign(self, host_statistics: Mapping[int, float]) -> GroupAssignment:
        require(len(host_statistics) > 0, "cannot group an empty population")
        return GroupAssignment(
            groups=tuple((host,) for host in sorted(host_statistics)), strategy_name=self.name
        )


@dataclass(frozen=True)
class QuantileSplitGrouping(GroupingStrategy):
    """The paper's partial-diversity heuristic.

    Hosts are ranked by their tail statistic; the top ``heavy_fraction``
    (15% by default, the knee in Figure 1) form the "heavy" side and the rest
    the "light" side.  Each side is subdivided into ``groups_per_side``
    equal-size groups by rank, giving ``2 * groups_per_side`` groups total
    (8 in the paper's best-performing configuration).
    """

    heavy_fraction: float = 0.15
    groups_per_side: int = 4

    def __post_init__(self) -> None:
        require_probability(self.heavy_fraction, "heavy_fraction")
        require(0.0 < self.heavy_fraction < 1.0, "heavy_fraction must be strictly inside (0, 1)")
        require(self.groups_per_side >= 1, "groups_per_side must be >= 1")

    @property
    def name(self) -> str:
        return f"quantile-split-{2 * self.groups_per_side}"

    @property
    def num_groups(self) -> int:
        """Total number of groups produced (when the population is large enough)."""
        return 2 * self.groups_per_side

    def assign(self, host_statistics: Mapping[int, float]) -> GroupAssignment:
        require(len(host_statistics) > 0, "cannot group an empty population")
        # Sort hosts by their statistic ascending; ties broken by host id so
        # the assignment is deterministic.
        ranked = sorted(host_statistics, key=lambda host: (host_statistics[host], host))
        num_hosts = len(ranked)
        num_heavy = max(int(round(self.heavy_fraction * num_hosts)), 1)
        num_heavy = min(num_heavy, num_hosts)
        light = ranked[: num_hosts - num_heavy]
        heavy = ranked[num_hosts - num_heavy:]

        groups: List[Tuple[int, ...]] = []
        groups.extend(self._split_side(light))
        groups.extend(self._split_side(heavy))
        return GroupAssignment(groups=tuple(groups), strategy_name=self.name)

    def _split_side(self, hosts: Sequence[int]) -> List[Tuple[int, ...]]:
        if not hosts:
            return []
        pieces = min(self.groups_per_side, len(hosts))
        splits = np.array_split(np.asarray(hosts, dtype=int), pieces)
        return [tuple(int(host) for host in piece) for piece in splits if piece.size > 0]
