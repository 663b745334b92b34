"""Recursive feeder reconstruction from level-set families.

Reconstruction walks the tree root-down. At each step it holds a group of
probing buses known to share their ancestry up to the current depth k,
identifies their common depth-k ancestor, wires it to the ancestor found
one level up, and splits the group by who shares the next ancestor too.

With complete voltage data the ancestor is the single bus common to all
members' depth-k level sets. With probing-bus data only, the ancestor is
either the member whose depth-k metered set equals the whole group (then
it is a probed bus) or a junction invisible to the data, which gets a
fresh bus ID above every input ID.

The walk values each line from the families' group values as it wires
it, and raises each error where it meets it. What it reads off level sets
and depths alone is its `RecoveryPlan` (root, junction IDs, and each line
with its depth and the columns behind it), which a sweep replays on the
group values of another trial with the same labelling. Comparison splits
in two: a node-map match, then a resistance score.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    AmbiguousIntersection,
    ConfigError,
    EmptyPartition,
    InconsistentLevelSets,
    InconsistentMeteredSets,
    LabelMismatch,
    as_buses,
    as_choice,
    as_instance,
)
from .feeder import FeederGraph, LevelSetFamily, _probed_below
from .probing import MODES
from .reduction import ReducedGrid


def _left_sum(values: Iterable[float]) -> float:
    """Sum from 0.0, left to right, rounding after every addition.

    Builtin `sum` compensates float error from Python 3.12 on, so line
    resistances and scores would depend on the Python version; this fold
    rounds the same on every version (and as `sum` did before 3.12).
    """
    return reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class RecoveryReport:
    """A reconstructed grid plus per-line bookkeeping.

    line_support counts how many probing columns contributed to each
    line's resistance average. A mode other than "complete" or
    "partial", a graph that is not a FeederGraph, probing buses that
    break the bus-list rule or a line_support that is not a mapping
    raise ConfigError.
    """

    mode: str
    graph: FeederGraph
    probing: frozenset[int]
    line_support: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "mode", as_choice(self.mode, MODES,
                                                   ConfigError, "mode"))
        as_instance(self.graph, FeederGraph, ConfigError, "graph")
        object.__setattr__(self, "probing", frozenset(as_buses(
            self.probing, ConfigError, "probing")))
        as_instance(self.line_support, Mapping, ConfigError, "line_support")


# -- the walk -----------------------------------------------------------------


class RecoveryPlan(NamedTuple):
    """What the root-down walk reads off level sets and depths alone.

    start is the depth of every family's first group. lines[i] is the
    (parent, child) of the i-th line in walk order, depths[i] its child's
    depth k and members[i] the columns behind it, as positions in the
    families' mapping order, in the order the walk met them.
    """

    start: int
    root: int | None
    internal: tuple[int, ...]
    lines: tuple[tuple[int, int], ...]
    depths: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def support(self) -> dict[tuple[int, int], int]:
        """How many columns are behind each line."""
        return {line: len(rows)
                for line, rows in zip(self.lines, self.members)}


def _partition(group: frozenset[int], families: Mapping[int, LevelSetFamily],
               k: int) -> list[frozenset[int]]:
    """Split a bus group by identical depth-k level sets, smallest ID first."""
    blocks: dict[frozenset[int], set[int]] = {}
    for m in group:
        blocks.setdefault(families[m].at(k), set()).add(m)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


def _check_families(families, metered: bool) -> None:
    """ConfigError unless families maps buses to level-set families, then
    InconsistentLevelSets unless each family is indexed for the data
    (`metered` or complete) and owned by the bus it is keyed by."""
    as_instance(families, Mapping, ConfigError, "families")
    for m, fam in families.items():
        as_instance(fam, LevelSetFamily, ConfigError, f"family of bus {m}")
    start = int(metered)
    for m, fam in families.items():
        if fam.metered != metered or fam.start_depth != start:
            raise InconsistentLevelSets(
                f"family of bus {m} is not "
                f"{'metered' if metered else 'complete'}-data indexed")
        if fam.owner != m:
            raise InconsistentLevelSets(f"family keyed {m} owned by {fam.owner}")


def _common_bus(families: Mapping[int, LevelSetFamily],
                group: frozenset[int], k: int) -> int:
    """A group's depth-k ancestor with complete data: the one bus common
    to its members' depth-k level sets."""
    inter = frozenset.intersection(*(families[m].at(k) for m in group))
    if len(inter) != 1:
        raise AmbiguousIntersection(
            f"depth-{k} intersection of {sorted(group)} has "
            f"{len(inter)} buses", depth=k, buses=group)
    (n,) = inter
    return n


def _claimant(families: Mapping[int, LevelSetFamily],
              group: frozenset[int], k: int) -> int | None:
    """A group's depth-k ancestor with metered data: the member whose
    depth-k metered set is the whole group, or None for a junction
    invisible to the data."""
    claimants = sorted(m for m in group if families[m].at(k) == group)
    if len(claimants) > 1:
        raise InconsistentMeteredSets(
            f"buses {claimants} both claim to root {sorted(group)}",
            depth=k, buses=group)
    return claimants[0] if claimants else None


def _line_r(table: Sequence[Sequence[float]], rows: Sequence[int], k: int,
            start: int) -> float:
    """A line's resistance: the mean, over its member columns in walk
    order, of the value step from depth k-1 to k. table[j][i] is the value
    of the group at depth start + i in the j-th family. Raises
    InconsistentLevelSets unless it is positive."""
    i = k - start
    r = _left_sum([table[j][i] - table[j][i - 1] for j in rows]) / len(rows)
    if r <= 0:
        raise InconsistentLevelSets(
            f"nonpositive line resistance {r} at depth {k}")
    return r


def _walk(families: Mapping[int, LevelSetFamily], metered: bool,
          table: Sequence[Sequence[float]]
          ) -> tuple[RecoveryPlan, list[float]]:
    """Rebuild the tree of checked level-set families root-down, valuing
    each line from the families' value table as it is wired.

    `_common_bus` (complete data) or `_claimant` (metered data) names
    each group's common depth-k ancestor; a junction gets a fresh ID above
    every probing bus and must split its group in two or more parts. Each
    error is raised where the walk meets it: a member without a depth-k
    group, an ancestor that cannot be named, is named twice or must split
    but does not (each with the recursion state), or a nonpositive line.
    """
    if not families:
        raise EmptyPartition("no level-set families supplied")
    ancestor = _claimant if metered else _common_bus
    error = InconsistentMeteredSets if metered else AmbiguousIntersection
    start, first_id = int(metered), max(families) + 1
    row = {m: j for j, m in enumerate(families)}
    named: set[int] = set()
    root: int | None = None
    internal: list[int] = []
    lines: list[tuple[int, int]] = []
    depths: list[int] = []
    members: list[tuple[int, ...]] = []
    values: list[float] = []
    queue: deque = deque([(frozenset(families), None, start)])
    while queue:
        group, parent, k = queue.popleft()
        for m in group:
            if k > families[m].depth:
                raise error(f"column {m} has no depth-{k} group",
                            depth=k, buses=group)
        n = ancestor(families, group, k)
        junction = n is None
        if junction:
            n = first_id + len(internal)
            internal.append(n)
        elif n in named:
            raise error(f"bus {n} identified twice", depth=k, buses=group)
        named.add(n)
        if parent is None:
            root = n
        else:
            rows = tuple([row[m] for m in group])
            values.append(_line_r(table, rows, k, start))
            lines.append((parent, n))
            depths.append(k)
            members.append(rows)
        rest = group - {n}
        if rest:
            parts = _partition(rest, families, k)
            if junction and len(parts) == 1:
                raise error(f"ancestor {n} at depth {k} does not "
                            f"separate {sorted(group)}", depth=k, buses=group)
            for part in parts:
                queue.append((part, n, k + 1))
    plan = RecoveryPlan(start, root, tuple(internal), tuple(lines),
                        tuple(depths), tuple(members))
    return plan, values


def _upstream(table: Sequence[Sequence[float]]) -> float:
    """The mean first-group value: a reduced grid's upstream resistance."""
    return _left_sum([values[0] for values in table]) / len(table)


def _recover(families: Mapping[int, LevelSetFamily],
             metered: bool) -> tuple[RecoveryPlan, RecoveryReport]:
    """Check the families, walk them and report the grid the walk wires,
    with its plan. A metered grid is a ReducedGrid whose upstream
    resistance is the mean first-group value."""
    _check_families(families, metered)
    table = [fam.values for fam in families.values()]
    plan, values = _walk(families, metered, table)
    edges = [(u, v, r) for (u, v), r in zip(plan.lines, values)]
    graph = (ReducedGrid(plan.root, edges, frozenset(families),
                         plan.internal, _upstream(table))
             if metered else FeederGraph(edges))
    return plan, RecoveryReport(mode="partial" if metered else "complete",
                                graph=graph,
                                probing=frozenset(families),
                                line_support=plan.support)


def recover_full(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the entire feeder from complete-data level-set families.

    Requires one family per probing bus, indexed by true depth from 0, and
    probing buses covering every leaf. Recovers every bus under its
    original ID together with every line resistance. Anything but a
    mapping of bus to level-set family raises ConfigError.
    """
    return _recover(families, False)[1]


def recover_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the reduced grid from probing-bus-only level-set families.

    Families are indexed by reduced-grid depth from 1. Junctions that are
    not probed get fresh IDs allocated above the largest probing ID.
    Anything but a mapping of bus to level-set family raises ConfigError.
    """
    return _recover(families, True)[1]


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class GraphComparison:
    """Result of checking a recovered grid against a reference."""

    topology_correct: bool
    resistance_mpe: float | None
    max_rel_error: float | None
    node_map: Mapping[int, int] | None
    upstream_rel_error: float | None = None

    def __post_init__(self):
        as_instance(self.topology_correct, bool, ConfigError, "verdict")


def compare_graphs(recovered: FeederGraph, reference: FeederGraph,
                   probing: Iterable[int]) -> GraphComparison:
    """Match two rooted grids up to relabeling of non-probed buses.

    Probing buses must keep their IDs; other buses may be renamed
    arbitrarily. Children are matched by the set of probed buses below
    them, which is unique among siblings whenever every subtree contains a
    probed bus. Resistance errors are reported relative to the reference.
    """
    probing = frozenset(as_buses(probing, LabelMismatch, "probing buses"))
    for g in (recovered, reference):
        as_instance(g, FeederGraph, ConfigError, "graph")
        missing = probing - g.nodes
        if missing:
            raise LabelMismatch(f"probing buses {sorted(missing)} absent")

    mapping = _match(recovered, reference, probing)
    if mapping is None:
        return GraphComparison(False, None, None, None)

    edges = recovered.edges
    mpe, max_rel = _score(
        [r for _, _, r, *_ in edges],
        [reference.line_r(mapping[u], mapping[v]) for u, v, *_ in edges])

    upstream = None
    if isinstance(recovered, ReducedGrid) and isinstance(reference, ReducedGrid):
        ref = reference.root_upstream_r
        upstream = abs(recovered.root_upstream_r - ref) / (ref if ref > 0 else 1)

    return GraphComparison(True, mpe, max_rel, mapping, upstream)


def _match(recovered: FeederGraph, reference: FeederGraph,
           probing: frozenset[int]) -> dict[int, int] | None:
    """The topology half of a comparison: the node map from recovered
    onto reference buses, or None when the two trees differ."""
    probed_below_a = _probed_below(recovered, probing)
    probed_below_b = _probed_below(reference, probing)

    mapping: dict[int, int] = {}
    stack = [(recovered.root, reference.root)]
    while stack:
        a, b = stack.pop()
        in_pa, in_pb = a in probing, b in probing
        if in_pa != in_pb or (in_pa and a != b):
            return None
        mapping[a] = b
        ca, cb = recovered.children(a), reference.children(b)
        kids_a = {probed_below_a[c]: c for c in ca}
        kids_b = {probed_below_b[c]: c for c in cb}
        if (len(kids_a) != len(ca) or len(kids_b) != len(cb)
                or set(kids_a) != set(kids_b)):
            return None
        for key, child_a in kids_a.items():
            stack.append((child_a, kids_b[key]))
    return mapping


def _score(recovered: Sequence[float],
           reference: Sequence[float]) -> tuple[float, float]:
    """The value half of a comparison: mean and largest relative error,
    in percent and as a fraction, of matched line resistances (0.0 for
    no lines)."""
    rel = [abs(a - b) / b for a, b in zip(recovered, reference)]
    if not rel:
        return 0.0, 0.0
    return 100.0 * _left_sum(rel) / len(rel), max(rel)
