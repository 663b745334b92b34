"""Reduction of a feeder to the smallest grid that probing data can resolve.

Probing from a bus subset P cannot see pass-through buses: only probed
buses and junctions separating probed buses leave a signature in the
data. The reduced grid keeps exactly those buses and joins them with
lines whose resistance equals the path resistance they replace.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (ConfigError, LeafNotProbed, UnknownNode, as_buses,
                     as_float, as_instance, as_int)
from .feeder import FeederGraph, _bus_list, _probed_below


class ReducedGrid(FeederGraph):
    """Immutable rooted tree over probed and junction buses.

    The root is the shallowest retained bus and sits at depth 1; the
    resistance of the path between the substation and the root (invisible
    to probing differences, hence not a line of the reduced grid) is kept
    as root_upstream_r so the original bus resistance matrix can be
    reproduced on retained buses. Lines are (parent, child, r) triples.
    """

    ROOT_DEPTH = 1

    def __init__(self, root: int, edges: Iterable[Sequence],
                 probing: Iterable[int], internal: Iterable[int],
                 root_upstream_r: float):
        self._build(as_int(root, UnknownNode, "bus ID"), edges)
        self.probing = frozenset(as_buses(probing, UnknownNode, "probing"))
        self.internal = frozenset(as_buses(internal, UnknownNode, "internal"))
        self.root_upstream_r = _upstream_r(root_upstream_r)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple((u, v, r) for u, v, r, _ in self._edges)

    def resistance_submatrix(self, buses: Iterable[int]) -> np.ndarray:
        """Matrix of substation-referenced resistances between retained buses.

        Entry (m, n) is root_upstream_r plus the in-grid path resistance
        down to the deepest common bus, which reproduces the corresponding
        entries of the full feeder's resistance matrix. The buses are read
        once and may repeat; a bus not in the grid, or buses that are not
        iterable, raise UnknownNode.
        """
        buses = _bus_list(buses)
        for b in buses:
            self._check(b)
        return self.root_upstream_r + self._shared_path(buses, self._rho)

    def _key(self) -> tuple:
        return (self._root, self._edges, self.probing, self.root_upstream_r)

    def __repr__(self) -> str:
        return (f"ReducedGrid(root={self.root}, {len(self.nodes)} buses, "
                f"{len(self.edges)} lines)")


def _upstream_r(value) -> float:
    """A reduced grid's root_upstream_r: a finite real, else ConfigError."""
    return as_float(value, ConfigError, "root_upstream_r", "finite")


def _probing(g: FeederGraph, probing: Iterable[int]) -> frozenset[int]:
    """A feeder's probing buses as a set; UnknownNode for anything but a
    feeder's buses other than the substation."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    p = frozenset(as_buses(probing, UnknownNode, "probing buses"))
    for b in p:
        g._check(b)
        if b == g.root:
            raise UnknownNode("the substation cannot be a probing bus")
    return p


def identifiable_junctions(g: FeederGraph,
                           probing: Iterable[int]) -> frozenset[int]:
    """Buses with at least two children whose subtrees each hold a probed bus."""
    return _junctions(g, _probing(g, probing))


def _junctions(g: FeederGraph, probing: frozenset[int]) -> frozenset[int]:
    """`identifiable_junctions` of probing buses `_probing` has checked."""
    below = _probed_below(g, probing)
    return frozenset(n for n, kids in g._children.items() if len(kids) > 1
                     and sum(bool(below[c]) for c in kids) >= 2)


def reduce_grid(g: FeederGraph, probing: Iterable[int]) -> ReducedGrid:
    """Collapse a feeder onto its probed buses and identifiable junctions.

    Requires every leaf to be probed; otherwise parts of the tree leave no
    trace in probing data and the reduction is not well defined.
    """
    p = _probing(g, probing)
    unprobed = g.leaves - p
    if unprobed:
        raise LeafNotProbed(
            f"leaves {sorted(unprobed)} carry no probing inverter")

    junctions = _junctions(g, p)
    kept = p | junctions

    # Reduced parent: nearest proper ancestor that is kept. The line's
    # resistance is effective_resistance(g, a, v), whose lca is a.
    edges = []
    root = None
    parent, rho = g._parent, g._rho
    for v in kept:
        a = parent.get(v)
        while a is not None and a not in kept:
            a = parent.get(a)
        if a is None:
            root = v
        else:
            edges.append((a, v, rho[a] + rho[v] - 2.0 * rho[a]))
    return ReducedGrid(root=root, edges=edges, probing=p,
                       internal=kept - p,
                       root_upstream_r=g.path_r(root))
