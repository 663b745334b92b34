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
owner's level sets and a group-value table; a sweep passes those straight
from its cut. The walk reads topology only, off the sets: its
`RecoveryPlan` holds the root, the junction IDs, and each line with its
depth and the columns behind it. One value step, `_line_values`, values a
plan's lines and upstream resistance on a stack of group-value tables,
one per trial; a sweep replays a plan on its trials with it (`_replay`).
Comparison is a node-map match, then a resistance score of a stack of
trials; a sweep matches its plan's lines to the truth's the same way
(`_matched`) without building the recovered grid.
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


def _walk(sets: Mapping[int, tuple[frozenset[int], ...]], metered: bool,
          lines: list, depths: list, members: list
          ) -> tuple[int | None, list[int]]:
    """Rebuild the tree of checked level sets (each owner's, indexed from
    depth `metered`) root-down, topology only: append each line to `lines`
    as it is wired, its child's depth to `depths` and the positions of its
    columns, in owner order, to `members`. Returns the root and the
    junctions.

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
    queue: deque = deque([(frozenset(sets), None, start)])
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
                raise error(f"depth-{k} intersection of {sorted(group)} has "
                            f"{len(inter)} buses", depth=k, buses=group)
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
                            f"separate {sorted(group)}", depth=k, buses=group)
            for part in sorted(map(frozenset, blocks.values()), key=min):
                queue.append((part, n, k + 1))
    return root, internal


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


def _valued(table: np.ndarray, metered: bool, root, internal, lines: list,
            depths: list, members: list
            ) -> tuple[RecoveryPlan, list[float], float]:
    """The plan of what the walk wired, valued on a one-trial group-value
    table: the plan, its line values and the upstream resistance, or
    InconsistentLevelSets at the first line in walk order not positive."""
    sizes = list(map(len, members))
    step = np.array(depths, dtype=np.intp) - int(metered) - 1
    plan = RecoveryPlan(root, tuple(internal), tuple(lines),
                        np.fromiter(chain.from_iterable(members), np.intp),
                        np.repeat(np.arange(len(lines)), sizes),
                        np.repeat(step, sizes))
    (values,), (upstream,) = _line_values(plan, table)
    values = values.tolist()
    for r, k in zip(values, depths):
        if r <= 0:
            raise InconsistentLevelSets(
                f"nonpositive line resistance {r} at depth {k}")
    return plan, values, float(upstream)


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
    wired on the group-value table: the plan, its line values in walk
    order and the upstream resistance, under the rules the recovered grid
    is built with. A nonpositive line wired before a walk error is raised
    instead, as the walk met it. After the walk come the first nonpositive
    line, then the first line that is not finite (NonpositiveImpedance,
    as `FeederGraph` names it) and, metered, an upstream resistance that
    is not finite (ConfigError, as `ReducedGrid` names it), each in walk
    order."""
    wired = ([], [], [])
    try:
        root, internal = _walk(sets, metered, *wired)
    except GridProbeError:
        if wired[0]:
            _valued(table, metered, None, [], *wired)
        raise
    plan, values, upstream = _valued(table, metered, root, internal, *wired)
    for (u, v), r in zip(plan.lines, values):
        _impedance(r, u, v, "r")
    if metered:
        _upstream_r(upstream)
    return plan, values, upstream


def _matched(plan: RecoveryPlan, owners: Sequence[int], truth: FeederGraph
             ) -> tuple[np.ndarray, np.ndarray]:
    """Match a plan's lines to the truth's, as `compare_graphs` matches
    the recovered graph with the owners as probing buses: the root to the
    truth's root, then each line's child, in walk order, to the child of
    its parent's match whose probed buses below are the owners of the
    line's columns. Returns the order in which the recovered graph lists
    the lines (by child, then parent) and the truth's resistance of each
    line in that order. Where `compare_graphs` finds no node map,
    LabelMismatch names the root that differs, the first line in walk
    order without a match or the first truth line, by child, that no line
    matches."""
    probing = frozenset(owners)
    if plan.root != truth.root and (plan.root in probing
                                    or truth.root in probing):
        raise LabelMismatch(f"recovered root {plan.root} is not the "
                            f"truth's root {truth.root}")
    parent = truth._parent
    child = {(below, parent[b]): b
             for b, below in _probed_below(truth, probing).items()
             if below and b in parent}
    names = np.array(owners)[plan.members].tolist()
    ends = np.cumsum(np.bincount(plan.line, minlength=len(plan.lines)))
    node, start = {plan.root: truth.root}, 0
    for (u, v), end in zip(plan.lines, ends.tolist()):
        b = child.get((frozenset(names[start:end]), node[u]))
        if b is None:
            raise LabelMismatch(f"recovered line ({u}, {v}) matches no "
                                f"line of the truth")
        node[v], start = b, end
    if len(node) < len(truth.nodes):
        found = set(node.values())
        u, v = next((u, v) for u, v, *_ in truth.edges if v not in found)
        raise LabelMismatch(f"truth line ({u}, {v}) matches no recovered "
                            f"line")
    order = np.argsort([v for _, v in plan.lines], kind="stable")
    refs = np.array([truth._r[node[u], node[v]] for u, v in plan.lines])
    return order, refs[order]


def _recover(sets: Mapping[int, tuple[frozenset[int], ...]],
             table: np.ndarray, metered: bool
             ) -> tuple[RecoveryPlan, RecoveryReport]:
    """Plan the recovery of read level sets (`_plan`) and report the grid
    (a ReducedGrid when metered), with its plan."""
    plan, values, upstream = _plan(sets, table, metered)
    edges = [(u, v, r) for (u, v), r in zip(plan.lines, values)]
    graph = (ReducedGrid(plan.root, edges, frozenset(sets), plan.internal,
                         upstream)
             if metered else FeederGraph(edges))
    return plan, RecoveryReport("partial" if metered else "complete", graph,
                                frozenset(sets), plan.support)


def recover_full(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the entire feeder from complete-data level-set families.

    Requires one family per probing bus, indexed by true depth from 0, and
    probing buses covering every leaf. Recovers every bus under its
    original ID together with every line resistance. Anything but a
    mapping of bus to level-set family raises ConfigError.
    """
    return _recover(*_read(families, False), False)[1]


def recover_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the reduced grid from probing-bus-only level-set families.

    Families are indexed by reduced-grid depth from 1. Junctions that are
    not probed get fresh IDs allocated above the largest probing ID.
    Anything but a mapping of bus to level-set family raises ConfigError.
    """
    return _recover(*_read(families, True), True)[1]


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
        np.array([[r for _, _, r, *_ in edges]]),
        np.array([reference.line_r(mapping[u], mapping[v])
                  for u, v, *_ in edges]))

    upstream = None
    if isinstance(recovered, ReducedGrid) and isinstance(reference, ReducedGrid):
        ref = reference.root_upstream_r
        upstream = abs(recovered.root_upstream_r - ref) / (ref if ref > 0 else 1)

    return GraphComparison(True, float(mpe[0]), float(max_rel[0]),
                           mapping, upstream)


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
        ca, cb = recovered._children[a], reference._children[b]
        kids_a = {probed_below_a[c]: c for c in ca}
        kids_b = {probed_below_b[c]: c for c in cb}
        if (len(kids_a) != len(ca) or len(kids_b) != len(cb)
                or kids_a.keys() != kids_b.keys()):
            return None
        for key, child_a in kids_a.items():
            stack.append((child_a, kids_b[key]))
    return mapping


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
