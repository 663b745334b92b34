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

The walk reads only level sets and depths, so recovery runs in two
steps: a topology step (`RecoveryPlan`: root, junction IDs, and each
line with its depth and the columns behind it) and a value step, which
turns a table of group values into line resistances. Comparison splits
the same way: a node-map match, then a resistance score.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    AmbiguousIntersection,
    ConfigError,
    EmptyPartition,
    GridProbeError,
    InconsistentLevelSets,
    InconsistentMeteredSets,
    LabelMismatch,
    as_buses,
    as_choice,
    as_instance,
)
from .feeder import FeederGraph, LevelSetFamily
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


# -- the topology step --------------------------------------------------------


class RecoveryPlan(NamedTuple):
    """What the root-down walk reads off level sets and depths alone.

    start is the depth of every family's first group. lines[i] is the
    (parent, child) of the i-th line in walk order, depths[i] its child's
    depth k and members[i] the columns behind it, as positions in the
    families' mapping order, in the order the walk met them. error is the
    walk's first topology error, or None; lines holds the lines wired
    before it.
    """

    start: int
    root: int | None
    internal: tuple[int, ...]
    lines: tuple[tuple[int, int], ...]
    depths: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    error: GridProbeError | None

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


def _walk(families: Mapping[int, LevelSetFamily], metered: bool,
          name: Callable[[frozenset[int], int], tuple[int, bool]],
          error: type[GridProbeError],
          internal: Sequence[int] = ()) -> RecoveryPlan:
    """Rebuild the tree of checked level-set families root-down.

    name(group, k) picks the group's common depth-k ancestor and says
    whether that ancestor must split the group in two or more parts.
    A member without a depth-k group, or an ancestor that must split but
    does not, is an `error` with the recursion state. The first error,
    `name`'s own included, ends the walk and goes into the plan.
    `internal` is the list `name` appends fresh junction IDs to.
    """
    if not families:
        raise EmptyPartition("no level-set families supplied")

    row = {m: j for j, m in enumerate(families)}
    root: int | None = None
    lines: list[tuple[int, int]] = []
    depths: list[int] = []
    members: list[tuple[int, ...]] = []
    stop = None
    queue: deque = deque([(frozenset(families), None, int(metered))])
    try:
        while queue:
            group, parent, k = queue.popleft()
            for m in group:
                if k > families[m].depth:
                    raise error(f"column {m} has no depth-{k} group",
                                depth=k, buses=group)
            n, must_split = name(group, k)
            if parent is None:
                root = n
            else:
                lines.append((parent, n))
                depths.append(k)
                members.append(tuple([row[m] for m in group]))
            rest = group - {n}
            if rest:
                parts = _partition(rest, families, k)
                if must_split and len(parts) == 1:
                    raise error(f"ancestor {n} at depth {k} does not "
                                f"separate {sorted(group)}", depth=k,
                                buses=group)
                for part in parts:
                    queue.append((part, n, k + 1))
    except GridProbeError as exc:
        stop = exc
    return RecoveryPlan(int(metered), root, tuple(internal),
                        tuple(lines), tuple(depths), tuple(members), stop)


def _plan_full(families: Mapping[int, LevelSetFamily]) -> RecoveryPlan:
    """The topology step of `recover_full`: a group's ancestor is the one
    bus common to its members' depth-k level sets."""
    _check_families(families, False)
    seen: set[int] = set()

    def name(group, k):
        inter = frozenset.intersection(*(families[m].at(k) for m in group))
        if len(inter) != 1:
            raise AmbiguousIntersection(
                f"depth-{k} intersection of {sorted(group)} has "
                f"{len(inter)} buses", depth=k, buses=group)
        (n,) = inter
        if n in seen:
            raise AmbiguousIntersection(
                f"bus {n} identified twice", depth=k, buses=group)
        seen.add(n)
        return n, False

    return _walk(families, False, name, AmbiguousIntersection)


def _plan_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryPlan:
    """The topology step of `recover_partial`: a group's ancestor is the
    member whose depth-k metered set is the whole group, or else a fresh
    junction numbered above every probing bus, which must split it."""
    _check_families(families, True)
    first_id = max(families, default=0) + 1
    internal: list[int] = []

    def name(group, k):
        claimants = sorted(m for m in group if families[m].at(k) == group)
        if len(claimants) > 1:
            raise InconsistentMeteredSets(
                f"buses {claimants} both claim to root {sorted(group)}",
                depth=k, buses=group)
        if claimants:
            return claimants[0], False
        internal.append(first_id + len(internal))
        return internal[-1], True

    return _walk(families, True, name, InconsistentMeteredSets, internal)


# -- the value step -----------------------------------------------------------


def _line_values(plan: RecoveryPlan,
                 table: Sequence[Sequence[float]]) -> list[float]:
    """Line resistances, in walk order, from a table of group values.

    table[j][i] is the value of the group at depth plan.start + i in the
    j-th family, in the mapping order the plan was made from. A line's
    resistance is the mean, over its member columns in walk order, of the
    value step from depth k-1 to k. Raises InconsistentLevelSets at the
    first nonpositive line, then the walk's own error, so errors come in
    the order the walk met them.
    """
    out = []
    for rows, k in zip(plan.members, plan.depths):
        i = k - plan.start
        steps = [table[j][i] - table[j][i - 1] for j in rows]
        r = _left_sum(steps) / len(steps)
        if r <= 0:
            raise InconsistentLevelSets(
                f"nonpositive line resistance {r} at depth {k}")
        out.append(r)
    if plan.error is not None:
        raise plan.error.with_traceback(None)
    return out


def _upstream(table: Sequence[Sequence[float]]) -> float:
    """The mean first-group value: a reduced grid's upstream resistance."""
    return _left_sum([values[0] for values in table]) / len(table)


def _graph(plan: RecoveryPlan,
           families: Mapping[int, LevelSetFamily]) -> FeederGraph:
    """The value step: the grid a plan wires, its line resistances from the
    families' group values. A metered plan's grid is a ReducedGrid whose
    upstream resistance is the mean first-group value."""
    table = [fam.values for fam in families.values()]
    edges = [(u, v, r) for (u, v), r in zip(plan.lines,
                                            _line_values(plan, table))]
    if not plan.start:
        return FeederGraph(edges)
    return ReducedGrid(plan.root, edges, frozenset(families), plan.internal,
                       _upstream(table))


def recover_full(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the entire feeder from complete-data level-set families.

    Requires one family per probing bus, indexed by true depth from 0, and
    probing buses covering every leaf. Recovers every bus under its
    original ID together with every line resistance. Anything but a
    mapping of bus to level-set family raises ConfigError.
    """
    plan = _plan_full(families)
    return RecoveryReport(mode="complete", graph=_graph(plan, families),
                          probing=frozenset(families),
                          line_support=plan.support)


def recover_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the reduced grid from probing-bus-only level-set families.

    Families are indexed by reduced-grid depth from 1. Junctions that are
    not probed get fresh IDs allocated above the largest probing ID.
    Anything but a mapping of bus to level-set family raises ConfigError.
    """
    plan = _plan_partial(families)
    return RecoveryReport(mode="partial", graph=_graph(plan, families),
                          probing=frozenset(families),
                          line_support=plan.support)


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


def _probed_below(g: FeederGraph, probing: frozenset[int]) -> dict[int, frozenset[int]]:
    """Probed-bus content of every subtree."""
    return {u: g.descendants(u) & probing for u in g.nodes}
