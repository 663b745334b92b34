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

Level-set families are read once, at the boundary (`_read`), into each
owner's level sets and a group-value table, which the set walk (`_walk`)
reads; their families need not be disjoint. `identify` and a sweep read
no sets: `_planned` reads the same plan off a labelling's owner
hierarchy (`_hierarchy_walk`), every level at once, and only where the
hierarchy does not hold reads the labelling's families at the boundary
and runs the set walk, so that it raises the walk's error. Either walk
reads topology only: its `RecoveryPlan` holds the root, the junction
IDs, and each line with its depth and the columns behind it. The set
walk returns the plan of what it wired with the error that stopped it,
so that a nonpositive line wired first is raised first. The value rules
run in one place (`_valued`) on a plan from either walk. One value step,
`_line_values`, values a plan's lines and upstream resistance on a stack
of group-value tables, one per trial; a sweep replays a plan on its
trials with it (`_replay`).
Comparison is a node-map match, then a resistance score of a stack of
trials. The match (`_node_map`) looks each line's child up once in the
truth, by its probed buses below and its parent's match; it takes a
recovered graph's lines (`compare_graphs`) or, without building the
recovered grid, a sweep's plan lines named by their owners (`_matched`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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
from .feeder import FeederGraph, LevelSetFamily, _impedance, _probed_below
from .probing import MODES
from .reduction import ReducedGrid, _upstream_r


def _left_sums(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis from 0.0, left to right, rounding after
    every addition, as `np.add.accumulate` adds. Builtin `sum` compensates
    from Python 3.12 on and `np.sum` adds pairwise; this rounds the same
    on every version (and as `sum` did before 3.12)."""
    zero = np.zeros((*values.shape[:-1], 1))
    return np.add.accumulate(np.concatenate([zero, values], axis=-1),
                             axis=-1)[..., -1]


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

    lines[i] is the (parent, child) of the i-th line in walk order. Entry
    e is a column behind line line[e], at position members[e] in owner
    order (a line's entries in owner order too); step[e] indexes, among
    each column's value steps, the step from that line's parent's depth
    to its child's.
    """

    root: int | None
    internal: tuple[int, ...]
    lines: tuple[tuple[int, int], ...]
    members: np.ndarray
    line: np.ndarray
    step: np.ndarray

    @property
    def support(self) -> dict[tuple[int, int], int]:
        """How many columns are behind each line."""
        return dict(zip(self.lines, np.bincount(
            self.line, minlength=len(self.lines)).tolist()))


def _read(families, metered: bool
          ) -> tuple[dict[int, tuple[frozenset[int], ...]], np.ndarray]:
    """The one read of level-set families, at recovery's boundary.

    ConfigError unless families maps buses to level-set families, then,
    family by family, InconsistentLevelSets unless each is indexed for the
    data (`metered` or complete) and owned by the bus it is keyed by, then
    EmptyPartition for no families. Returns each owner's level sets, in
    mapping order, and the one-trial group-value table (1 x owners x
    groups, 0.0 past a family's last group)."""
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
    if not families:
        raise EmptyPartition("no level-set families supplied")
    sets = {fam.owner: fam.sets for fam in families.values()}
    groups = list(map(len, sets.values()))
    held = np.arange(max(groups)) < np.array(groups)[:, None]
    table = np.zeros((1, *held.shape))
    table[0, held] = list(chain.from_iterable(
        fam.values for fam in families.values()))
    return sets, table


def _walk(sets: Mapping[int, tuple[frozenset[int], ...]], metered: bool
          ) -> tuple[RecoveryPlan, GridProbeError | None]:
    """Rebuild the tree of checked level sets (each owner's, indexed from
    depth `metered`) root-down, topology only. Returns the plan of what it
    wired, root and junctions included, and None; or, where it stops, the
    plan of the lines wired before (no root, no junctions) and the error.

    With complete data a group's depth-k ancestor is the one bus common to
    its members' depth-k sets; with metered data it is the member whose
    depth-k set is the whole group, or else a junction, which gets a fresh
    ID above every probing bus and must split its group in two or more
    parts. The rest of the group splits by identical depth-k sets,
    smallest ID first. Each error carries the recursion state: a member
    without a depth-k group, or an ancestor that cannot be named, is named
    twice or must split but does not.
    """
    error = InconsistentMeteredSets if metered else AmbiguousIntersection
    start, first_id = int(metered), max(sets) + 1
    row = {m: j for j, m in enumerate(sets)}
    named: set[int] = set()
    root: int | None = None
    internal: list[int] = []
    lines, depths, members = [], [], []
    queue: deque = deque([(frozenset(sets), None, start)])
    stopped = None
    try:
        while queue:
            group, parent, k = queue.popleft()
            try:
                at = {m: sets[m][k - start] for m in group}
            except IndexError:
                m = next(m for m in group if k - start >= len(sets[m]))
                raise error(f"column {m} has no depth-{k} group",
                            depth=k, buses=group) from None
            if metered:
                claimants = sorted(m for m in group if at[m] == group)
                if len(claimants) > 1:
                    raise error(f"buses {claimants} both claim to root "
                                f"{sorted(group)}", depth=k, buses=group)
                n = claimants[0] if claimants else None
            else:
                inter = frozenset.intersection(*at.values())
                if len(inter) != 1:
                    raise error(f"depth-{k} intersection of {sorted(group)} "
                                f"has {len(inter)} buses", depth=k,
                                buses=group)
                (n,) = inter
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
                lines.append((parent, n))
                depths.append(k)
                members.append(sorted(row[m] for m in group))
            rest = group - {n}
            if rest:
                blocks: dict[frozenset[int], set[int]] = {}
                for m in rest:
                    blocks.setdefault(at[m], set()).add(m)
                if junction and len(blocks) == 1:
                    raise error(f"ancestor {n} at depth {k} does not "
                                f"separate {sorted(group)}", depth=k,
                                buses=group)
                for part in sorted(map(frozenset, blocks.values()), key=min):
                    queue.append((part, n, k + 1))
    except GridProbeError as exc:
        root, internal, stopped = None, [], exc
    sizes = list(map(len, members))
    step = np.array(depths, dtype=np.intp) - start - 1
    return RecoveryPlan(root, tuple(internal), tuple(lines),
                        np.fromiter(chain.from_iterable(members), np.intp),
                        np.repeat(np.arange(len(lines)), sizes),
                        np.repeat(step, sizes)), stopped


def _line_values(plan: RecoveryPlan, table: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The one value step, on a stack of group-value tables (trials x
    columns x groups, the i-th group of each family at index i): each
    line's value, the mean over its member columns in owner order of the
    step from its parent's group value to its child's (trials x lines),
    and the upstream resistance, the mean first-group value (per trial).
    A weighted `np.bincount` sums each bin from 0.0 in index order, as
    `_left_sums` does. Non-finite values give inf and NaN silently.
    """
    trials, lines = len(table), len(plan.lines)
    bins = plan.line + lines * np.arange(trials)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        steps = table[..., 1:] - table[..., :-1]
        sums = np.bincount(bins.ravel(), minlength=trials * lines,
                           weights=steps[:, plan.members, plan.step].ravel())
        values = (sums.reshape(trials, lines)
                  / np.bincount(plan.line, minlength=lines))
        upstream = _left_sums(table[..., 0]) / table.shape[1]
    return values, upstream


def _valued(plan: RecoveryPlan, table: np.ndarray, metered: bool,
            whole: bool = True) -> tuple[RecoveryPlan, list[float], float]:
    """The value rules, the one place they run, on a plan from either walk
    valued on a one-trial group-value table: the plan, its line values in
    walk order and the upstream resistance. Raises, in walk order, the
    first line not positive (InconsistentLevelSets); then, on a whole walk
    (not one an error cut short), the first line not finite
    (NonpositiveImpedance, as `FeederGraph` names it) and, metered, an
    upstream resistance that is not finite (ConfigError, as `ReducedGrid`
    names it)."""
    (values,), (upstream,) = _line_values(plan, table)
    values, upstream = values.tolist(), float(upstream)
    for i, r in enumerate(values):
        if r <= 0:
            k = int(plan.step[np.searchsorted(plan.line, i)]) + int(metered)
            raise InconsistentLevelSets(
                f"nonpositive line resistance {r} at depth {k + 1}")
    if whole:
        for (u, v), r in zip(plan.lines, values):
            _impedance(r, u, v, "r")
        if metered:
            _upstream_r(upstream)
    return plan, values, upstream


def _hierarchy_walk(labelling) -> RecoveryPlan | None:
    """The plan `_walk` wires on a labelling's level sets, read off
    its owner hierarchy (`grouping._Hierarchy`) instead, every level at
    once; None unless the hierarchy holds (owners in their deepest groups,
    seen symmetric, the prefix rule) and every node is named once.

    The walk's groups at level L are the classes of rep[:, L]. Sorting
    the columns by their rep paths (one lexsort) puts each class in one
    run, and the runs in the walk's queue order: level first, then the
    parent's position, then the smallest owner. A class's members are the
    owners it holds, in column order, behind the line to its node, whose
    step is L - 1. With complete data the node is the one row labelled L
    in every column of its class: the member whose deepest group is L,
    which every column of the class labels L, or a row no owner holds,
    whose labels run as the class's one value along the sorted columns.
    With metered data it is the member whose deepest group is L if that
    group has the class's size, or else a junction, numbered in walk
    order above the owners, whose class splits in two or more. A member
    whose deepest group is L and that is not the node, a second node, or
    a junction that does not split is an error of the set walk, which
    then runs instead."""
    rep = labelling.hierarchy.rep
    if rep is None:
        return None
    m, depth = rep.shape
    metered = not labelling.complete
    order = np.lexsort(rep.T[::-1])
    path = rep[order]
    column = labelling.hierarchy.cols[order]
    alive = path >= 0
    opens = alive.copy()
    opens[1:] &= path[1:] != path[:-1]
    # Classes numbered in walk order; cls[p, L] is the class at level L of
    # the column at sorted position p, where it has a level L.
    level, first = np.nonzero(opens.T)
    cls = np.cumsum(opens.T.ravel()).reshape(depth, m).T - 1
    classes = len(level)
    size = np.bincount(cls[alive], minlength=classes)
    # Each owner is a candidate node of the class at its deepest level.
    own = cls[np.arange(m), alive.sum(axis=1) - 1]
    named = np.bincount(own, minlength=classes)
    parent = cls[first[1:], level[1:] - 1]
    if named.max() > 1:
        return None
    owners = labelling.owners
    node = [None] * classes
    for c, j in zip(own.tolist(), column.tolist()):
        node[c] = owners[j]
    if metered:
        deepest = labelling.starts[::-1].argmax(axis=0) + 1
        junction = np.flatnonzero(named == 0)
        if ((deepest[column] != size[own]).any() or (np.bincount(
                parent, minlength=classes)[junction] < 2).any()):
            return None
        first_id = max(owners) + 1
        internal = [first_id + k for k in range(len(junction))]
        for c, n in zip(junction.tolist(), internal):
            node[c] = n
    else:
        free = np.ones(len(labelling.buses), dtype=bool)
        free[labelling.owner_rows] = False
        free = np.flatnonzero(free)
        # Each free row's class in each column at the level the column
        # labels it; a row is a class's node when its run of that class
        # along the sorted columns is the whole class.
        runs = cls[np.arange(m), labelling.labels[free][:, column]]
        opened = np.ones(runs.shape, dtype=bool)
        opened[:, 1:] = runs[:, 1:] != runs[:, :-1]
        at = np.flatnonzero(opened)
        hit = runs.ravel()[at]
        whole = np.diff(at, append=runs.size) == size[hit]
        rows, hit = at[whole] // m, hit[whole]
        if ((named + np.bincount(hit, minlength=classes) != 1).any()
                or (np.bincount(rows) > 1).any()):
            return None
        buses = labelling.buses[free[rows]].tolist()
        for c, n in zip(hit.tolist(), buses):
            node[c] = n
        internal = []
    held = alive[:, 1:]
    line = cls[:, 1:][held] - 1
    members = np.broadcast_to(column[:, None], held.shape)[held]
    by_line = np.lexsort((members, line))
    line = line[by_line]
    return RecoveryPlan(node[0], tuple(internal), tuple(zip(
        [node[c] for c in parent.tolist()], node[1:])), members[by_line],
        line, level[1:][line] - 1)


class _Replay(NamedTuple):
    """What a sweep's noise-free recovery fixes for every trial cut the
    same way: the plan, the order in which the recovered graph lists its
    lines, the truth's resistance of each line in that order, and whether
    the data are metered."""

    plan: RecoveryPlan
    order: np.ndarray
    refs: np.ndarray
    metered: bool


def _replay(replay: _Replay, table: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay a noise-free recovery on the group-value tables of trials cut
    into its labelling (trials x columns x groups). Returns, per trial,
    whether it passes the line rules (every line positive and finite and,
    metered, the upstream resistance finite), its MPE, its line values in
    the recovered graph's order and its upstream resistance."""
    walk, upstream = _line_values(replay.plan, table)
    ok = ((walk > 0) & np.isfinite(walk)).all(axis=1)
    if replay.metered:
        ok &= np.isfinite(upstream)
    lines = walk[:, replay.order]
    mpe, _ = _score(lines, replay.refs)
    return ok, mpe, lines, upstream


def _plan(sets: Mapping[int, tuple[frozenset[int], ...]],
          table: np.ndarray, metered: bool
          ) -> tuple[RecoveryPlan, list[float], float]:
    """Walk read level sets (what `_read` returns) and value what the walk
    wired on the group-value table (`_valued`): the plan, its line values
    in walk order and the upstream resistance. A nonpositive line wired
    before a walk error is raised instead, as the walk met it."""
    plan, error = _walk(sets, metered)
    planned = _valued(plan, table, metered, whole=error is None)
    if error is not None:
        raise error
    return planned


def _planned(labelling) -> tuple[RecoveryPlan, list[float], float]:
    """What `_plan` gives for a labelling's families, read off its owner
    hierarchy (`_hierarchy_walk`) where that holds, without reading its
    level sets; elsewhere `_plan` on the families' read (`_read`), which
    then raises the set walk's error."""
    metered = not labelling.complete
    plan = _hierarchy_walk(labelling)
    if plan is None:
        return _plan(*_read(labelling.families(), metered), metered)
    return _valued(plan, labelling.values[None], metered)


def _matched(plan: RecoveryPlan, owners: Sequence[int], truth: FeederGraph
             ) -> tuple[np.ndarray, np.ndarray]:
    """Match a plan's lines to the truth's by the one probed-below match
    (`_node_map`), as `compare_graphs` matches the recovered graph with
    the owners as probing buses: each line's child is named by the owners
    of the line's columns. Returns the order in which the recovered graph
    lists the lines (by child, then parent) and the truth's resistance of
    each line in that order. Where `compare_graphs` finds no node map,
    LabelMismatch names the root that differs, the first line in walk
    order without a match or the first truth line, by child, that no line
    matches."""
    names = np.array(owners)[plan.members].tolist()
    ends = np.cumsum(np.bincount(plan.line,
                                 minlength=len(plan.lines))).tolist()
    lines = ((u, v, frozenset(names[start:end]))
             for (u, v), start, end in zip(plan.lines, [0, *ends], ends))
    node = _node_map(plan.root, lines, truth, frozenset(owners))
    order = np.argsort([v for _, v in plan.lines], kind="stable")
    refs = np.array([truth._r[node[u], node[v]] for u, v in plan.lines])
    return order, refs[order]


def _recover(sets: Mapping[int, tuple[frozenset[int], ...]],
             table: np.ndarray, metered: bool) -> RecoveryReport:
    """Plan the recovery of read level sets (`_plan`) and report it
    (`_report`)."""
    return _report(_plan(sets, table, metered), frozenset(sets), metered)


def _report(planned: tuple[RecoveryPlan, list[float], float],
            probing: frozenset[int], metered: bool) -> RecoveryReport:
    """The report of a valued walk's grid (a ReducedGrid when metered)."""
    plan, values, upstream = planned
    edges = [(u, v, r) for (u, v), r in zip(plan.lines, values)]
    graph = (ReducedGrid(plan.root, edges, probing, plan.internal, upstream)
             if metered else FeederGraph(edges))
    return RecoveryReport("partial" if metered else "complete", graph,
                          probing, plan.support)


def recover_full(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the entire feeder from complete-data level-set families.

    Requires one family per probing bus, indexed by true depth from 0, and
    probing buses covering every leaf. Recovers every bus under its
    original ID together with every line resistance. Anything but a
    mapping of bus to level-set family raises ConfigError.
    """
    return _recover(*_read(families, False), False)


def recover_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the reduced grid from probing-bus-only level-set families.

    Families are indexed by reduced-grid depth from 1. Junctions that are
    not probed get fresh IDs allocated above the largest probing ID.
    Anything but a mapping of bus to level-set family raises ConfigError.
    """
    return _recover(*_read(families, True), True)


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
    probed bus, through the match the sweep's learn also uses
    (`_node_map`). Resistance errors are reported relative to the
    reference.
    """
    probing = frozenset(as_buses(probing, LabelMismatch, "probing buses"))
    for g in (recovered, reference):
        as_instance(g, FeederGraph, ConfigError, "graph")
        missing = probing - g.nodes
        if missing:
            raise LabelMismatch(f"probing buses {sorted(missing)} absent")

    below, parent = _probed_below(recovered, probing), recovered._parent
    lines = ((parent[v], v, below[v]) for v in reversed(below) if v in parent)
    try:
        node = _node_map(recovered.root, lines, reference, probing)
    except LabelMismatch:
        return GraphComparison(False, None, None, None)

    edges = recovered.edges
    mpe, max_rel = _score(
        np.array([[r for _, _, r, *_ in edges]]),
        np.array([reference._r[node[u], node[v]] for u, v, *_ in edges]))

    upstream = None
    if isinstance(recovered, ReducedGrid) and isinstance(reference, ReducedGrid):
        ref = reference.root_upstream_r
        upstream = abs(recovered.root_upstream_r - ref) / (ref if ref > 0 else 1)

    return GraphComparison(True, float(mpe[0]), float(max_rel[0]), node,
                           upstream)


def _node_map(root: int, lines: Iterable[tuple[int, int, frozenset[int]]],
              truth: FeederGraph, probing: frozenset[int]) -> dict[int, int]:
    """The one probed-below match: map a tree, given by its root and its
    lines root-down as (parent, child, probed buses below the child), onto
    the truth up to renamed unprobed buses. The root goes to the truth's
    root, then each line's child to the truth child of its parent's match
    with the same probed buses below. Returns the node map, or raises
    LabelMismatch naming the first difference: the roots, when they differ
    and one is probed; the first line whose key is missing or already
    taken; the first truth line, by child, that no line matches. Where
    both trees hold every probing bus, a map that sends a probed bus to
    another bus always leaves one of these, so it needs no check of its
    own: the probed bus's set holds itself, and no set below it does."""
    if root != truth.root and (root in probing or truth.root in probing):
        raise LabelMismatch(f"recovered root {root} is not the "
                            f"truth's root {truth.root}")
    parent = truth._parent
    child = {(below, parent[b]): b
             for b, below in _probed_below(truth, probing).items()
             if b in parent}
    node = {root: truth.root}
    for u, v, below in lines:
        b = child.pop((below, node[u]), None)
        if b is None:
            raise LabelMismatch(f"recovered line ({u}, {v}) matches no "
                                f"line of the truth")
        node[v] = b
    if len(node) < len(truth.nodes):
        found = set(node.values())
        u, v = next((u, v) for u, v, *_ in truth.edges if v not in found)
        raise LabelMismatch(f"truth line ({u}, {v}) matches no recovered "
                            f"line")
    return node


def _score(lines: np.ndarray,
           refs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value half of a comparison, on a stack of trials: each trial's
    mean and largest relative error, in percent and as a fraction, of its
    matched line values (trials x lines) against the reference's (0.0 for
    no lines)."""
    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.abs(lines - refs) / refs
        mpe = 100.0 * _left_sums(rel) / max(refs.size, 1)
    return mpe, rel.max(axis=-1, initial=0.0)
