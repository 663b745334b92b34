"""Radial feeder model: rooted tree, level sets, and resistance matrices.

A feeder is a tree rooted at the substation (bus 0). Power flows from the
root outward, so every line is stored as (parent, child, r, x) with
impedances in per unit. Reactance may be None on lines whose reactance is
unknown, e.g. lines reconstructed from probing data, which recovers
resistances only. The reduced grid of the reduction module is the same
kind of tree, rooted below the substation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    ConfigError,
    CycleDetected,
    Disconnected,
    DuplicateNode,
    MissingRoot,
    NonpositiveImpedance,
    UnknownNode,
    as_buses,
    as_float,
    as_float_array,
    as_instance,
    as_int,
)

Edge = tuple[int, int, float, float | None]


class FeederGraph:
    """Immutable radial feeder rooted at bus 0.

    Construction validates radiality: impedances positive and finite, every
    bus a single parent, the root present with no parent, all buses
    reachable. The same core serves any rooted tree of lines; ROOT_DEPTH is
    the depth its root is counted at.
    """

    ROOT_DEPTH = 0

    def __init__(self, edges: Iterable[Sequence]):
        edges = list(as_instance(edges, Iterable, ConfigError, "lines"))
        if not edges:
            raise MissingRoot("a feeder needs at least one line")
        self._build(0, edges)

    def _build(self, root: int, edges: Iterable[Sequence]) -> None:
        parsed: list[Edge] = []
        for e in as_instance(edges, Iterable, ConfigError, "lines"):
            as_instance(e, (list, tuple), ConfigError, "line")
            if len(e) not in (3, 4):
                raise ConfigError(f"line {e!r} must be (parent, child, r) "
                                  f"or (parent, child, r, x)")
            if len(e) == 3:
                u, v, r = e
                x = None
            else:
                u, v, r, x = e
            u = as_int(u, UnknownNode, "bus ID")
            v = as_int(v, UnknownNode, "bus ID")
            r = _impedance(r, u, v, "r")
            if x is not None:
                x = _impedance(x, u, v, "x")
            parsed.append((u, v, r, x))
        parent: dict[int, int] = {}
        for u, v, _, _ in parsed:
            if v in parent:
                raise DuplicateNode(f"bus {v} has more than one parent")
            parent[v] = u
        # A tree without lines is its root alone.
        nodes = set(parent) | {u for u, *_ in parsed} or {root}
        if root not in nodes:
            raise MissingRoot(f"root bus {root} is missing")
        if root in parent:
            raise MissingRoot(f"root bus {root} must not have a parent")

        self._r = {(u, v): r for u, v, r, _ in parsed}
        self._x = {(u, v): x for u, v, _, x in parsed}

        # Walk each parent chain up to a bus already placed, then place the
        # chain top-down: root-to-bus ancestry and cumulative path
        # impedances. A bus met twice on one chain closes a cycle; a chain
        # ending anywhere but the root means a second component.
        anc: dict[int, tuple[int, ...] | None] = {root: (root,)}
        rho: dict[int, float] = {root: 0.0}
        rho_x: dict[int, float | None] = {root: 0.0}
        for n in nodes:
            chain = []
            while n not in anc:
                anc[n] = None  # on the chain being walked
                chain.append(n)
                if n not in parent:
                    raise Disconnected(f"bus {n} is not connected to the root")
                n = parent[n]
            if anc[n] is None:
                raise CycleDetected(f"cycle through bus {n}")
            for v in reversed(chain):
                u = parent[v]
                anc[v] = anc[u] + (v,)
                rho[v] = rho[u] + self._r[(u, v)]
                xe, up = self._x[(u, v)], rho_x[u]
                rho_x[v] = None if (xe is None or up is None) else up + xe

        self._root = root
        self._edges: tuple[Edge, ...] = tuple(
            sorted(parsed, key=lambda e: (e[1], e[0])))
        self._parent = parent
        self._nodes = frozenset(nodes)
        children: dict[int, list[int]] = {n: [] for n in nodes}
        for v, u in parent.items():
            children[u].append(v)
        self._children = {n: tuple(sorted(c)) for n, c in children.items()}
        self._ancestry = anc
        self._rho = rho
        self._rho_x = rho_x
        self._matrices: dict[str, ResistanceMatrix] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def nodes(self) -> frozenset[int]:
        return self._nodes

    @property
    def root(self) -> int:
        return self._root

    @property
    def bus_order(self) -> tuple[int, ...]:
        """Non-root buses in ascending ID order; fixes matrix indexing."""
        return tuple(sorted(self._nodes - {self._root}))

    def parent(self, m: int) -> int | None:
        self._check(m)
        return self._parent.get(m)

    def children(self, m: int) -> tuple[int, ...]:
        self._check(m)
        return self._children[m]

    def line_r(self, u: int, v: int) -> float:
        return self._line(self._r, u, v)

    def line_x(self, u: int, v: int) -> float | None:
        return self._line(self._x, u, v)

    def _line(self, table: dict, u: int, v: int):
        self._check(u)
        self._check(v)
        try:
            return table[(u, v)]
        except KeyError:
            raise UnknownNode(f"no line from bus {u} to bus {v} "
                              f"in the feeder") from None

    @property
    def leaves(self) -> frozenset[int]:
        return frozenset(n for n in self._nodes if not self._children[n])

    def _check(self, m: int) -> None:
        # A bool hashes and compares equal to 0 or 1, so test it apart;
        # the type test first keeps plain ints, the hot case, cheap. An
        # unhashable bus (a list) is in no feeder.
        try:
            known = m in self._nodes
        except TypeError:
            known = False
        if not known or (type(m) is not int
                         and isinstance(m, (bool, np.bool_))):
            raise UnknownNode(f"bus {m} is not in the feeder")

    # -- ancestry ----------------------------------------------------------

    def depth(self, m: int) -> int:
        self._check(m)
        return self.ROOT_DEPTH + len(self._ancestry[m]) - 1

    @property
    def tree_depth(self) -> int:
        return self.ROOT_DEPTH + max(len(a) for a in self._ancestry.values()) - 1

    def ancestors(self, m: int) -> frozenset[int]:
        """Buses on the root-to-m path, m and the root included."""
        self._check(m)
        return frozenset(self._ancestry[m])

    def ancestor_at(self, m: int, k: int) -> int:
        """The depth-k bus on the root-to-m path."""
        self._check(m)
        k = as_int(k, UnknownNode, "depth")
        path = self._ancestry[m]
        if not 0 <= k - self.ROOT_DEPTH < len(path):
            raise UnknownNode(f"bus {m} has no depth-{k} ancestor")
        return path[k - self.ROOT_DEPTH]

    def descendants(self, m: int) -> frozenset[int]:
        """Buses in the subtree hanging from m, m included."""
        self._check(m)
        out = []
        stack = [m]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self._children[u])
        return frozenset(out)

    def lca(self, m: int, n: int) -> int:
        """Deepest common bus of the two root paths."""
        self._check(m)
        self._check(n)
        a, b = self._ancestry[m], self._ancestry[n]
        last = self._root
        for u, v in zip(a, b):
            if u != v:
                break
            last = u
        return last

    def path_r(self, m: int) -> float:
        """Total resistance of the root-to-m path."""
        self._check(m)
        return self._rho[m]

    def path_x(self, m: int) -> float | None:
        self._check(m)
        return self._rho_x[m]

    def _shared_path(self, buses: Sequence[int],
                     rho: Mapping[int, float]) -> np.ndarray:
        """rho[lca(m, n)] for every pair of the given buses, exactly.

        In a preorder every subtree is one run of buses, so the pairs
        inside it are one square block. The blocks are written in
        preorder, each bus after its ancestors, so the last write for a
        pair is its deepest common bus.
        """
        for b in buses:
            self._check(b)
        nodes, stack = [], [self._root]
        while stack:
            u = stack.pop()
            nodes.append(u)
            stack.extend(self._children[u])
        size = dict.fromkeys(nodes, 1)
        for v in reversed(nodes[1:]):  # every child before its parent
            size[self._parent[v]] += size[v]
        out = np.empty((len(nodes), len(nodes)))
        for i, n in enumerate(nodes):
            out[i:i + size[n], i:i + size[n]] = rho[n]
        first = {n: i for i, n in enumerate(nodes)}
        pos = [first[b] for b in buses]
        return out[np.ix_(pos, pos)]

    # -- equality ----------------------------------------------------------

    def _key(self) -> tuple:
        return self._edges

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FeederGraph({len(self._nodes)} buses, {len(self._edges)} lines)"


def _impedance(value, u: int, v: int, key: str) -> float:
    """Line (u, v)'s `key` ("r" or "x") as a feeder holds it: positive and
    finite, else NonpositiveImpedance naming the line. A float in range is
    what `as_float` would give back; only anything else goes through it."""
    if type(value) is not float or not 0 < value < math.inf:
        value = as_float(value, NonpositiveImpedance, f"line ({u},{v}) {key}",
                         "positive and finite")
    return value


def _probed_below(g: FeederGraph,
                  probing: frozenset[int]) -> dict[int, frozenset[int]]:
    """Probed-bus content of every subtree, in one pass from the leaves
    up: each bus unions its children's sets and adds itself if probed.
    Keyed leaves-up, so its reversed keys walk the tree root-down."""
    order = [g.root]
    for u in order:
        order.extend(g._children[u])
    below: dict[int, frozenset[int]] = {}
    for u in reversed(order):
        under = {u} if u in probing else set()
        for c in g._children[u]:
            under |= below[c]
        below[u] = frozenset(under)
    return below


def build_feeder(edges: Iterable[Sequence]) -> FeederGraph:
    """Validate an edge list (parent, child, r[, x]) and build the feeder."""
    return FeederGraph(edges)


# -- level sets -------------------------------------------------------------


def _bus_sets(sets) -> bool:
    """Whether sets are all frozensets of plain ints, which a family keeps
    as they are."""
    return ({*map(type, sets)} <= {frozenset}
            and {*map(type, chain.from_iterable(sets))} <= {int})


@dataclass(frozen=True)
class LevelSetFamily:
    """The ancestry of a bus sliced into per-depth bus groups.

    For owner m, the set at depth k collects the buses whose paths to the
    root separate from m's path exactly at m's depth-k ancestor. Each set
    carries a representative resistance: the common resistance between the
    root and that ancestor, which is what a column of the resistance matrix
    shows for every member of the set.

    Complete families start at depth 0 (the substation's own group) and are
    indexed by true feeder depth. Metered families carry only probed buses,
    start at depth 1, and are indexed by depth in the reduced grid.

    Fields keep their checked types: owner and start_depth are ints under
    the integer rule, metered a bool, probing None or a frozenset of bus
    IDs, sets a tuple of frozensets of bus IDs and values a tuple of
    floats. Anything else raises ConfigError.
    """

    owner: int
    start_depth: int
    sets: tuple[frozenset[int], ...]
    values: tuple[float, ...]
    metered: bool
    probing: frozenset[int] | None = None

    def __post_init__(self):
        for key, what in (("owner", "family owner"),
                          ("start_depth", "family start depth")):
            object.__setattr__(self, key, as_int(getattr(self, key),
                                                 ConfigError, what))
        if not isinstance(self.metered, (bool, np.bool_)):
            raise ConfigError(f"metered must be a bool, got {self.metered!r}")
        object.__setattr__(self, "metered", bool(self.metered))
        # Groupings hold frozensets of ints and floats already: only
        # another type is checked and converted.
        if self.probing is not None and not _bus_sets((self.probing,)):
            object.__setattr__(self, "probing", frozenset(as_buses(
                self.probing, ConfigError, "probing")))
        for key in ("sets", "values"):
            as_instance(getattr(self, key), (tuple, list), ConfigError, key)
        if len(self.sets) != len(self.values):
            raise ConfigError("sets and values must align")
        sets, values = self.sets, self.values
        if not _bus_sets(sets):
            what = f"level set of bus {self.owner}"
            sets = [frozenset(as_int(n, ConfigError, f"{what}: bus")
                              for n in as_instance(s, (set, frozenset),
                                                   ConfigError, what))
                    for s in sets]
        for v in values:
            if type(v) is not float:
                values = [as_float(v, ConfigError,
                                   f"level-set value of bus {self.owner}")
                          for v in values]
                break
        if type(sets) is not tuple or type(values) is not tuple:
            object.__setattr__(self, "sets", tuple(sets))
            object.__setattr__(self, "values", tuple(values))

    @property
    def depth(self) -> int:
        """Inferred depth of the owner: the index of its own (last) group."""
        return self.start_depth + len(self.sets) - 1

    @property
    def depths(self) -> range:
        return range(self.start_depth, self.depth + 1)

    def _index(self, k: int) -> int:
        i = k - self.start_depth
        if i < 0 or i >= len(self.sets):
            raise KeyError(k)
        return i

    def at(self, k: int) -> frozenset[int]:
        """The depth-k set; KeyError for a depth outside `depths`."""
        return self.sets[self._index(k)]

    def value_at(self, k: int) -> float:
        """The depth-k value; KeyError for a depth outside `depths`."""
        return self.values[self._index(k)]

    def find(self, n: int) -> int | None:
        """Depth of the group containing bus n, or None."""
        for k, s in zip(self.depths, self.sets):
            if n in s:
                return k
        return None


def level_sets(g: FeederGraph, m: int) -> LevelSetFamily:
    """Slice the feeder into the per-depth bus groups seen from bus m.

    The depth-k group is the subtree of m's depth-k ancestor minus the
    subtree of its depth-(k+1) ancestor; the last group is m's own subtree.
    For m = 0 this is the single group holding every bus.
    """
    as_instance(g, FeederGraph, ConfigError, "feeder")
    g._check(m)
    path = g._ancestry[m]
    sets = []
    values = []
    for k, a in enumerate(path):
        block = g.descendants(a)
        if k + 1 < len(path):
            block = block - g.descendants(path[k + 1])
        sets.append(frozenset(block))
        values.append(g.path_r(a))
    return LevelSetFamily(owner=m, start_depth=0, sets=tuple(sets),
                          values=tuple(values), metered=False)


def metered_level_sets(g: FeederGraph, m: int,
                       probing: Iterable[int]) -> LevelSetFamily:
    """Level sets of m restricted to probed buses, reindexed by reduced depth.

    Groups that contain no probed bus correspond to pass-through ancestors
    that leave no trace in probing data; they are dropped, and the surviving
    groups are renumbered consecutively from depth 1, matching the owner's
    ancestry in the reduced grid.
    """
    as_instance(g, FeederGraph, ConfigError, "feeder")
    p = frozenset(as_buses(probing, UnknownNode, "probing buses"))
    for b in p:
        g._check(b)
    m = as_int(m, UnknownNode, "bus ID")
    if m not in p:
        raise UnknownNode(f"bus {m} is not a probing bus")
    full = level_sets(g, m)
    sets = []
    values = []
    for s, v in zip(full.sets, full.values):
        kept = s & p
        if kept:
            sets.append(kept)
            values.append(v)
    return LevelSetFamily(owner=m, start_depth=1, sets=tuple(sets),
                          values=tuple(values), metered=True, probing=p)


# -- resistance matrices ------------------------------------------------------


def bus_index(nodes: tuple[int, ...], n: int) -> int:
    """Position of bus n in a matrix's node order. A bool compares equal
    to bus 0 or 1, so it is refused like a bus not in the order."""
    try:
        if type(n) is int or not isinstance(n, (bool, np.bool_)):
            return nodes.index(n)
    except ValueError:
        pass
    raise UnknownNode(f"bus {n!r} is not in the matrix")


@dataclass(frozen=True)
class ResistanceMatrix:
    """Dense bus-by-bus matrix with an explicit node ordering.

    Entry (m, n) is the impedance shared by the root paths of m and n,
    i.e. the path impedance from the root down to their deepest common bus.
    Rows and columns exclude the substation.
    """

    nodes: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", as_buses(self.nodes, ConfigError,
                                                   "matrix nodes"))
        object.__setattr__(self, "values", as_float_array(
            self.values, ConfigError, "matrix",
            (len(self.nodes), len(self.nodes))))

    def entry(self, m: int, n: int) -> float:
        i, j = bus_index(self.nodes, m), bus_index(self.nodes, n)
        return float(self.values[i, j])

    def column(self, n: int) -> dict[int, float]:
        j = bus_index(self.nodes, n)
        return dict(zip(self.nodes, self.values[:, j].tolist()))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        ri = [bus_index(self.nodes, m) for m in rows]
        ci = [bus_index(self.nodes, n) for n in cols]
        return self.values[np.ix_(ri, ci)]


def _cached_matrix(g: FeederGraph, key: str,
                   rho: Mapping[int, float]) -> ResistanceMatrix:
    """Shared-path matrix over bus_order, built once per (immutable) tree."""
    out = g._matrices.get(key)
    if out is None:
        order = g.bus_order
        out = ResistanceMatrix(nodes=order, values=g._shared_path(order, rho))
        g._matrices[key] = out
    return out


def resistance_matrix(g: FeederGraph) -> ResistanceMatrix:
    """Bus resistance matrix: the inverse of the grounded (root-deleted)
    conductance Laplacian, computed here by shared-path sums. Built once
    per feeder; later calls return the same read-only object."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    return _cached_matrix(g, "r", g._rho)


def _require_reactance(g: FeederGraph) -> None:
    """NonpositiveImpedance unless every line carries a reactance."""
    for (u, v), x in g._x.items():
        if x is None:
            raise NonpositiveImpedance(
                f"line ({u},{v}) has no reactance; reactance matrix undefined")


def reactance_matrix(g: FeederGraph) -> ResistanceMatrix:
    """Bus reactance matrix; requires every line to carry a reactance."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    _require_reactance(g)
    return _cached_matrix(g, "x", g._rho_x)


def effective_resistance(g: FeederGraph, m: int, n: int) -> float:
    """Resistance of the unique m-n path (the two-point effective resistance)."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    return g.path_r(m) + g.path_r(n) - 2.0 * g.path_r(g.lca(m, n))
