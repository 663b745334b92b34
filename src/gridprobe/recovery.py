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

The walk reads topology only: its `RecoveryPlan` holds the root, the
junction IDs, and each line with its depth and the columns behind it.
One value step, `_line_values`, values a plan's lines and upstream
resistance on a stack of group-value tables, one per trial. Comparison
is a node-map match, then a resistance score of a stack of trials.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

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
from .feeder import FeederGraph, LevelSetFamily, _probed_below
from .probing import MODES
from .reduction import ReducedGrid


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
    e is a column behind line line[e], at position members[e] in the
    families' mapping order (a line's entries in the order the walk met
    them); step[e] indexes, among each family's value steps, the step
    from that line's parent's depth to its child's.
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


def _walk(families: Mapping[int, LevelSetFamily], metered: bool, lines: list,
          depths: list, members: list) -> tuple[int | None, list[int]]:
    """Rebuild the tree of checked level-set families root-down, topology
    only: append each line to `lines` as it is wired, its child's depth to
    `depths` and the positions of its columns to `members`. Returns the
    root and the junctions.

    `_common_bus` (complete data) or `_claimant` (metered data) names
    each group's common depth-k ancestor; a junction gets a fresh ID above
    every probing bus and must split its group in two or more parts. Each
    error carries the recursion state: a member without a depth-k group,
    or an ancestor that cannot be named, is named twice or must split but
    does not.
    """
    ancestor = _claimant if metered else _common_bus
    error = InconsistentMeteredSets if metered else AmbiguousIntersection
    start, first_id = int(metered), max(families) + 1
    row = {m: j for j, m in enumerate(families)}
    named: set[int] = set()
    root: int | None = None
    internal: list[int] = []
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
            lines.append((parent, n))
            depths.append(k)
            members.append([row[m] for m in group])
        rest = group - {n}
        if rest:
            parts = _partition(rest, families, k)
            if junction and len(parts) == 1:
                raise error(f"ancestor {n} at depth {k} does not "
                            f"separate {sorted(group)}", depth=k, buses=group)
            for part in parts:
                queue.append((part, n, k + 1))
    return root, internal


def _line_values(plan: RecoveryPlan, table: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The one value step, on a stack of group-value tables (trials x
    columns x groups, the i-th group of each family at index i): each
    line's value, the mean over its member columns in walk order of the
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


def _valued(families: Mapping[int, LevelSetFamily], metered: bool, root,
            internal, lines: list, depths: list, members: list
            ) -> tuple[RecoveryPlan, list[float], float]:
    """The plan of what the walk wired, valued on the families' own group
    values: the plan, its line values and the upstream resistance, or
    InconsistentLevelSets at the first line in walk order not positive."""
    sizes = list(map(len, members))
    step = np.array(depths, dtype=np.intp) - int(metered) - 1
    plan = RecoveryPlan(root, tuple(internal), tuple(lines),
                        np.fromiter(chain.from_iterable(members), np.intp),
                        np.repeat(np.arange(len(lines)), sizes),
                        np.repeat(step, sizes))
    groups = [len(fam.values) for fam in families.values()]
    held = np.arange(max(groups)) < np.array(groups)[:, None]
    table = np.zeros((1, *held.shape))
    table[0, held] = list(chain.from_iterable(
        fam.values for fam in families.values()))
    (values,), (upstream,) = _line_values(plan, table)
    values = values.tolist()
    for r, k in zip(values, depths):
        if r <= 0:
            raise InconsistentLevelSets(
                f"nonpositive line resistance {r} at depth {k}")
    return plan, values, float(upstream)


def _recover(families: Mapping[int, LevelSetFamily],
             metered: bool) -> tuple[RecoveryPlan, RecoveryReport]:
    """Check the families, walk them, value what the walk wired and report
    the grid (a ReducedGrid when metered), with its plan. A nonpositive
    line wired before a walk error is raised instead, as the walk met it."""
    _check_families(families, metered)
    if not families:
        raise EmptyPartition("no level-set families supplied")
    wired = ([], [], [])
    try:
        root, internal = _walk(families, metered, *wired)
    except GridProbeError:
        if wired[0]:
            _valued(families, metered, None, [], *wired)
        raise
    plan, values, upstream = _valued(families, metered, root, internal,
                                     *wired)
    edges = [(u, v, r) for (u, v), r in zip(plan.lines, values)]
    graph = (ReducedGrid(plan.root, edges, frozenset(families),
                         plan.internal, upstream)
             if metered else FeederGraph(edges))
    return plan, RecoveryReport("partial" if metered else "complete", graph,
                                frozenset(families), plan.support)


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
        ca, cb = recovered.children(a), reference.children(b)
        kids_a = {probed_below_a[c]: c for c in ca}
        kids_b = {probed_below_b[c]: c for c in cb}
        if (len(kids_a) != len(ca) or len(kids_b) != len(cb)
                or set(kids_a) != set(kids_b)):
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
