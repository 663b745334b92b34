"""Recovery of level-set families from resistance-matrix columns.

Every column of the bus resistance matrix is constant on each of the
owner bus's level sets, and the constants strictly increase with depth.
Grouping a column's entries by value therefore reads the owner's level
sets straight off the data: exactly on clean columns, and by a sorted
gap rule on noisy ones, where a jump larger than half the smallest line
resistance marks a boundary between groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from numbers import Real
from typing import Iterable, Mapping

from .errors import (ConfigError, InconsistentLevelSets, NonpositiveRmin,
                     as_int)
from .feeder import LevelSetFamily

SUBSTATION = 0


@dataclass(frozen=True)
class LevelGroup:
    """One recovered level set: depth index, member buses, shared value."""

    depth: int
    nodes: frozenset[int]
    value: float


@dataclass(frozen=True)
class ColumnGrouping(LevelSetFamily):
    """The level-set family read off one resistance-matrix column.

    Complete-mode groupings cover every non-substation bus plus a
    synthetic zero entry for the substation, and are indexed from depth 0.
    Partial-mode groupings cover probed buses only, are indexed from
    depth 1 (depth in the reduced grid) and are metered. Besides the
    family, a grouping keeps the sorted column and the gap threshold
    (None for exact grouping) for diagnostics.
    """

    sorted_entries: tuple[tuple[int, float], ...] = ()
    threshold: float | None = None

    @property
    def mode(self) -> str:
        return "partial" if self.metered else "complete"

    @property
    def groups(self) -> tuple[LevelGroup, ...]:
        return tuple(LevelGroup(k, s, v) for k, s, v
                     in zip(self.depths, self.sets, self.values))

    nodes_at = LevelSetFamily.at


def _group(entries: Mapping[int, float], owner: int, mode: str,
           threshold: float | None) -> ColumnGrouping:
    """Sort a column and start a new group wherever a gap exceeds the
    threshold; no threshold means a cut of zero, i.e. exact equality."""
    if mode not in ("complete", "partial"):
        raise InconsistentLevelSets(f"unknown mode {mode!r}")
    owner = as_int(owner, InconsistentLevelSets, "column owner")
    if owner not in entries:
        raise InconsistentLevelSets(
            f"column owner {owner} missing from its own entries")
    items = [(as_int(n, InconsistentLevelSets, "bus ID"), float(v))
             for n, v in entries.items()]
    for n, v in items:
        if not math.isfinite(v):
            raise InconsistentLevelSets(
                f"column {owner}: entry of bus {n} is {v}, not finite")
    if mode == "complete":
        if SUBSTATION in entries:
            raise InconsistentLevelSets(
                "complete-mode columns must not include the substation")
        items.append((SUBSTATION, 0.0))
    # Sort by value, ties by bus ID, so grouping is deterministic.
    items.sort(key=lambda item: (item[1], item[0]))
    cut = 0.0 if threshold is None else threshold
    runs: list[list[tuple[int, float]]] = []
    for n, v in items:
        if runs and v - runs[-1][-1][1] <= cut:
            runs[-1].append((n, v))
        else:
            runs.append([(n, v)])
    return ColumnGrouping(
        owner=owner,
        start_depth=0 if mode == "complete" else 1,
        sets=tuple(frozenset(n for n, _ in run) for run in runs),
        values=tuple(sum(v for _, v in run) / len(run) for run in runs),
        metered=(mode == "partial"),
        sorted_entries=tuple(items),
        threshold=threshold,
    )


def group_column_exact(entries: Mapping[int, float], owner: int,
                       mode: str = "complete") -> ColumnGrouping:
    """Group a noise-free column by exact value equality.

    This is the gap rule with a zero cut: on sorted finite entries a gap
    of zero or less means equal values.
    """
    return _group(entries, owner, mode, threshold=None)


def group_column_noisy(entries: Mapping[int, float], owner: int,
                       r_min: float, mode: str = "complete") -> ColumnGrouping:
    """Group a noisy column with the sorted gap rule.

    A new group starts wherever the gap between successive sorted entries
    exceeds r_min / 2. Negative estimates are kept as they are; they sort
    below the substation's zero and end up in the shallowest group unless
    the gap rule separates them. The group value is the member mean.
    """
    if not (isinstance(r_min, Real) and 0 < r_min < math.inf):
        raise NonpositiveRmin(
            f"r_min must be positive and finite, got {r_min}")
    return _group(entries, owner, mode, threshold=r_min / 2.0)


def grouping_diagnostics(grouping: ColumnGrouping) -> dict:
    """JSON-ready dump of one column's sorted entries, gaps and boundaries."""
    values = [v for _, v in grouping.sorted_entries]
    gaps = [b - a for a, b in zip(values, values[1:])]
    sizes = [len(grp.nodes) for grp in grouping.groups]
    return {
        "owner": grouping.owner,
        "mode": grouping.mode,
        "entries": [[n, v] for n, v in grouping.sorted_entries],
        "gaps": gaps,
        "threshold": grouping.threshold,
        "boundaries": list(accumulate(sizes[:-1])),
        "groups": [
            {"depth": grp.depth, "buses": sorted(grp.nodes), "value": grp.value}
            for grp in grouping.groups
        ],
    }


def assemble_families(groupings: Iterable[ColumnGrouping],
                      value_tol: float = 1e-9) -> dict[int, ColumnGrouping]:
    """Check that per-column groupings form mutually consistent families.

    Returns the groupings keyed by owner: complete-mode groupings as they
    are, partial-mode ones stamped with the probing set (the owners).

    Each column is read once into a label map, bus -> depth of its group.
    If owner m sees owner s at depth k, s must see m at depth k with the
    same value (within value_tol), both must hold identical groups above
    depth k, and no depth-k group may hold two owners of depth k. Any
    violation means the groupings cannot come from one feeder at the
    claimed noise level.
    """
    if not (isinstance(value_tol, Real) and 0 <= value_tol < math.inf):
        raise ConfigError(
            f"value_tol must be finite and nonnegative, got {value_tol}")
    gl = list(groupings)
    if not gl:
        raise InconsistentLevelSets("no groupings supplied")
    metered = gl[0].metered
    owners = [g.owner for g in gl]
    if len(set(owners)) != len(owners):
        raise InconsistentLevelSets("duplicate column owners")
    universe = frozenset().union(*(s for g in gl for s in g.sets))

    labels: dict[int, dict[int, int]] = {}
    for g in gl:
        if g.metered != metered:
            raise InconsistentLevelSets("mixed complete/partial groupings")
        label = {n: k for k, s in zip(g.depths, g.sets) for n in s}
        if len(label) != sum(map(len, g.sets)):
            raise InconsistentLevelSets(
                f"column {g.owner}: bus in two groups")
        if len(label) != len(universe):
            raise InconsistentLevelSets(
                f"column {g.owner} does not cover the observed bus set")
        if any(b <= a for a, b in zip(g.values, g.values[1:])):
            raise InconsistentLevelSets(
                f"column {g.owner}: group values not increasing")
        if g.owner not in g.sets[-1]:
            raise InconsistentLevelSets(
                f"column {g.owner}: owner not in its deepest group")
        if not metered and SUBSTATION not in g.sets[0]:
            raise InconsistentLevelSets(
                f"column {g.owner}: substation not in the shallowest group")
        labels[g.owner] = label

    if metered:
        probing = frozenset(owners)
        gl = [replace(g, probing=probing) for g in gl]
    families = {g.owner: g for g in gl}
    # Owners sit in their deepest groups, so every label map holds them all.
    owners = sorted(families)
    depth = {m: families[m].depth for m in owners}
    for i, m in enumerate(owners):
        fm, seen = families[m], labels[m]
        anchors: dict[int, list[int]] = {}
        for s in owners:
            if seen[s] == depth[s]:
                anchors.setdefault(depth[s], []).append(s)
        clash = [k for k, a in anchors.items() if len(a) > 1]
        if clash:
            k = min(clash)
            raise InconsistentLevelSets(
                f"column {m}: several depth-{k} buses {anchors[k]} "
                f"in one depth-{k} group")
        for s in owners[i + 1:]:
            fs, k = families[s], seen[s]
            if labels[s][m] != k:
                raise InconsistentLevelSets(
                    f"columns {m} and {s} disagree on their split depth")
            if abs(fm.value_at(k) - fs.value_at(k)) > value_tol:
                raise InconsistentLevelSets(
                    f"columns {m} and {s} disagree on their split value")
            if fm.sets[:k - fm.start_depth] != fs.sets[:k - fm.start_depth]:
                raise InconsistentLevelSets(
                    f"columns {m} and {s} disagree above depth {k}")
    return families
