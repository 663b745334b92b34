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
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Mapping

from .errors import (
    AmbiguousIntersection,
    ConfigError,
    EmptyPartition,
    GridProbeError,
    InconsistentLevelSets,
    InconsistentMeteredSets,
    LabelMismatch,
    as_buses,
    as_instance,
)
from .feeder import FeederGraph, LevelSetFamily
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
    line's resistance average.
    """

    mode: str
    graph: FeederGraph
    probing: frozenset[int]
    line_support: Mapping[tuple[int, int], int] = field(default_factory=dict)


def _partition(group: frozenset[int], families: Mapping[int, LevelSetFamily],
               k: int) -> list[frozenset[int]]:
    """Split a bus group by identical depth-k level sets, smallest ID first."""
    blocks: dict[frozenset[int], set[int]] = {}
    for m in group:
        blocks.setdefault(families[m].at(k), set()).add(m)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


def _line_estimate(group: frozenset[int], families: Mapping[int, LevelSetFamily],
                   k: int) -> float:
    """Average, over the group's columns, of the depth k-1 to k value step."""
    steps = [families[m].value_at(k) - families[m].value_at(k - 1)
             for m in group]
    r = _left_sum(steps) / len(steps)
    if r <= 0:
        raise InconsistentLevelSets(
            f"nonpositive line resistance {r} at depth {k}")
    return r


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
          error: type[GridProbeError]) -> tuple:
    """Rebuild the tree of checked level-set families root-down.

    name(group, k) picks the group's common depth-k ancestor and says
    whether that ancestor must split the group in two or more parts.
    A member without a depth-k group, or an ancestor that must split but
    does not, raises error with the recursion state. Returns the root,
    the (parent, child, r) lines and the number of columns behind each.
    """
    if not families:
        raise EmptyPartition("no level-set families supplied")

    root: int | None = None
    edges: list[tuple[int, int, float]] = []
    support: dict[tuple[int, int], int] = {}
    queue: deque = deque([(frozenset(families), None, int(metered))])
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
            edges.append((parent, n, _line_estimate(group, families, k)))
            support[(parent, n)] = len(group)
        rest = group - {n}
        if rest:
            parts = _partition(rest, families, k)
            if must_split and len(parts) == 1:
                raise error(f"ancestor {n} at depth {k} does not separate "
                            f"{sorted(group)}", depth=k, buses=group)
            for part in parts:
                queue.append((part, n, k + 1))
    return root, edges, support


def recover_full(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the entire feeder from complete-data level-set families.

    Requires one family per probing bus, indexed by true depth from 0, and
    probing buses covering every leaf. Recovers every bus under its
    original ID together with every line resistance. Anything but a
    mapping of bus to level-set family raises ConfigError.
    """
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

    _, edges, support = _walk(families, False, name, AmbiguousIntersection)
    graph = FeederGraph([(u, v, r, None) for u, v, r in edges])
    return RecoveryReport(mode="complete", graph=graph,
                          probing=frozenset(families), line_support=support)


def recover_partial(families: Mapping[int, LevelSetFamily]) -> RecoveryReport:
    """Rebuild the reduced grid from probing-bus-only level-set families.

    Families are indexed by reduced-grid depth from 1. Junctions that are
    not probed get fresh IDs allocated above the largest probing ID.
    Anything but a mapping of bus to level-set family raises ConfigError.
    """
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

    root, edges, support = _walk(families, True, name,
                                 InconsistentMeteredSets)
    probing = frozenset(families)
    upstream = (_left_sum(f.value_at(1) for f in families.values())
                / len(families))
    graph = ReducedGrid(root=root, edges=edges, probing=probing,
                        internal=internal, root_upstream_r=upstream)
    return RecoveryReport(mode="partial", graph=graph, probing=probing,
                          line_support=support)


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class GraphComparison:
    """Result of checking a recovered grid against a reference."""

    topology_correct: bool
    resistance_mpe: float | None
    max_rel_error: float | None
    node_map: Mapping[int, int] | None
    upstream_rel_error: float | None = None


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

    probed_below_a = _probed_below(recovered, probing)
    probed_below_b = _probed_below(reference, probing)

    mapping: dict[int, int] = {}
    stack = [(recovered.root, reference.root)]
    correct = True
    while stack and correct:
        a, b = stack.pop()
        in_pa, in_pb = a in probing, b in probing
        if in_pa != in_pb or (in_pa and a != b):
            correct = False
            break
        mapping[a] = b
        ca, cb = recovered.children(a), reference.children(b)
        kids_a = {probed_below_a[c]: c for c in ca}
        kids_b = {probed_below_b[c]: c for c in cb}
        if (len(kids_a) != len(ca) or len(kids_b) != len(cb)
                or set(kids_a) != set(kids_b)):
            correct = False
            break
        for key, child_a in kids_a.items():
            stack.append((child_a, kids_b[key]))

    if not correct:
        return GraphComparison(False, None, None, None)

    rel_errors = []
    for u, v, r_rec, *_ in recovered.edges:
        r_ref = reference.line_r(mapping[u], mapping[v])
        rel_errors.append(abs(r_rec - r_ref) / r_ref)
    mpe = (100.0 * _left_sum(rel_errors) / len(rel_errors) if rel_errors
           else 0.0)
    max_rel = max(rel_errors) if rel_errors else 0.0

    upstream = None
    if isinstance(recovered, ReducedGrid) and isinstance(reference, ReducedGrid):
        ref = reference.root_upstream_r
        upstream = abs(recovered.root_upstream_r - ref) / (ref if ref > 0 else 1)

    return GraphComparison(True, mpe, max_rel, mapping, upstream)


def _probed_below(g: FeederGraph, probing: frozenset[int]) -> dict[int, frozenset[int]]:
    """Probed-bus content of every subtree."""
    return {u: g.descendants(u) & probing for u in g.nodes}
