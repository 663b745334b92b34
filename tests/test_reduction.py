"""Grid reduction onto probed buses and identifiable junctions."""

import os

import numpy as np
import pytest

from gridprobe import (Disconnected, DuplicateNode, FeederGraph,
                       LeafNotProbed, MissingRoot, NonpositiveImpedance,
                       ReducedGrid, UnknownNode, build_feeder, fileio,
                       identifiable_junctions, reduce_grid,
                       resistance_matrix)

from helpers import random_feeder, random_probing, reference_shared_path

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                    "data")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def test_y_reduction():
    g = build_feeder(Y_EDGES)
    rg = reduce_grid(g, {2, 3})
    assert rg.nodes == {1, 2, 3}
    assert rg.root == 1
    assert rg.internal == {1}
    assert rg.probing == {2, 3}
    assert rg.edges == ((1, 2, 2.0), (1, 3, 3.0))
    assert rg.root_upstream_r == 1.0


def test_path_reduces_to_single_probed_bus():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    rg = reduce_grid(g, {2})
    assert rg.nodes == {2}
    assert rg.edges == ()
    assert rg.internal == frozenset()
    assert rg.root == 2
    assert rg.root_upstream_r == 3.0


def test_probed_chain_is_kept():
    # probing a pass-through bus keeps it even though it is no junction
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    rg = reduce_grid(g, {1, 2})
    assert rg.nodes == {1, 2}
    assert rg.edges == ((1, 2, 2.0),)
    assert rg.root == 1 and rg.internal == frozenset()


def test_junction_definition():
    g = build_feeder(Y_EDGES)
    assert identifiable_junctions(g, frozenset({2, 3})) == {1}
    # with one probed branch bus 1 feeds probing through one child only
    assert identifiable_junctions(g, frozenset({2})) == frozenset()


def test_substation_can_be_a_junction():
    g = build_feeder([(0, 1, 1.0), (0, 2, 1.0)])
    assert 0 in identifiable_junctions(g, frozenset({1, 2}))
    rg = reduce_grid(g, {1, 2})
    assert rg.root == 0
    assert rg.root_upstream_r == 0.0


def test_leaf_not_probed_rejected():
    g = build_feeder(Y_EDGES)
    with pytest.raises(LeafNotProbed):
        reduce_grid(g, {2})


def test_substation_cannot_probe():
    g = build_feeder(Y_EDGES)
    with pytest.raises(UnknownNode):
        reduce_grid(g, {0, 2, 3})
    with pytest.raises(UnknownNode):
        reduce_grid(g, {2, 3, 99})


def test_edges_carry_path_resistances():
    rng = np.random.default_rng(21)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=25)
        p = random_probing(rng, g)
        rg = reduce_grid(g, p)
        for u, v, r in rg.edges:
            assert r == pytest.approx(g.path_r(v) - g.path_r(u), rel=1e-12)
        assert rg.root_upstream_r == pytest.approx(g.path_r(rg.root))


def test_internal_nodes_branch_in_both_grids():
    rng = np.random.default_rng(22)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=25)
        p = random_probing(rng, g)
        rg = reduce_grid(g, p)
        for n in rg.internal:
            assert len(rg.children(n)) >= 2
            degree = len(g.children(n)) + (0 if n == 0 else 1)
            assert degree >= (2 if n == 0 else 3)


def test_probed_submatrix_is_preserved():
    """The reduced grid reproduces the probed block of the resistance
    matrix, which is the whole point of keeping root_upstream_r."""
    rng = np.random.default_rng(23)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=25)
        p = sorted(random_probing(rng, g))
        rg = reduce_grid(g, p)
        want = resistance_matrix(g).submatrix(p, p)
        got = rg.resistance_submatrix(p)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("bus", [99, 0, True])
def test_submatrix_refuses_a_bus_outside_the_grid(bus):
    # The reduced grid of the Y feeder holds buses 1, 2 and 3: bus 0 is
    # the substation above it, and True, which equals 1, is not a bus ID.
    rg = reduce_grid(build_feeder(Y_EDGES), {2, 3})
    with pytest.raises(UnknownNode,
                       match=f"^bus {bus} is not in the feeder$"):
        rg.resistance_submatrix([2, bus, 3])


def test_submatrix_reads_its_buses_once():
    # A one-shot iterable gives what a list gives; repeated buses are
    # repeated rows.
    rg = reduce_grid(build_feeder(Y_EDGES), {2, 3})
    want = rg.resistance_submatrix([2, 3, 2])
    assert want.shape == (3, 3) and want[0, 2] == want[0, 0] == 3.0
    got = rg.resistance_submatrix(iter([2, 3, 2]))
    assert got.tobytes() == want.tobytes()
    assert rg.resistance_submatrix(b for b in (3,)).tolist() == [[4.0]]


@pytest.mark.parametrize("buses", [5, None, 2.5])
def test_submatrix_refuses_buses_that_are_not_iterable(buses):
    rg = reduce_grid(build_feeder(Y_EDGES), {2, 3})
    with pytest.raises(UnknownNode, match="^buses must be iterable, got "):
        rg.resistance_submatrix(buses)


def test_reduced_lca_and_descendants():
    g = build_feeder(Y_EDGES)
    rg = reduce_grid(g, {2, 3})
    assert rg.lca(2, 3) == 1
    assert rg.lca(2, 2) == 2
    assert rg.descendants(1) == {1, 2, 3}
    assert rg.parent(2) == 1 and rg.parent(1) is None
    assert rg.depth(1) == 1 and rg.depth(3) == 2


def test_bundled_feeder_reduces_to_expected_size():
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    assert len(g.nodes) == 37
    leaves = sorted(g.leaves)
    assert len(leaves) == 14
    rg = reduce_grid(g, leaves)
    assert len(rg.nodes) == 26
    assert len(rg.internal) == 12
    assert len(rg.edges) == 25
    # the first junction sits three lines below the substation; everything
    # above it is invisible to probing differences
    assert rg.root == 3
    assert rg.root_upstream_r == pytest.approx(g.path_r(3))


# -- one tree core ------------------------------------------------------------


def test_reduced_grid_is_a_feeder_graph():
    g = build_feeder(Y_EDGES)
    rg = reduce_grid(g, {2, 3})
    assert isinstance(rg, FeederGraph)
    assert rg.ROOT_DEPTH == 1 and g.ROOT_DEPTH == 0
    assert rg.ancestor_at(3, 1) == 1 and rg.ancestor_at(3, 2) == 3
    assert rg.tree_depth == 2
    assert rg.leaves == {2, 3}
    assert rg.line_r(1, 3) == 3.0 and rg.line_x(1, 3) is None


def test_reduced_grid_never_equals_a_feeder():
    # reducing onto both children of the substation keeps every line
    g = build_feeder([(0, 1, 1.0), (0, 2, 1.0)])
    rg = reduce_grid(g, {1, 2})
    assert rg.root == 0 and rg._edges == g.edges
    assert rg != g and g != rg
    assert rg == reduce_grid(g, {1, 2})


def test_reduced_grid_repr_names_its_root():
    rg = reduce_grid(build_feeder(Y_EDGES), {2, 3})
    assert repr(rg) == "ReducedGrid(root=1, 3 buses, 2 lines)"


def test_reduced_grid_validates_like_a_feeder():
    def grid(root, edges):
        return ReducedGrid(root=root, edges=edges, probing=[2],
                           internal=[], root_upstream_r=1.0)

    with pytest.raises(NonpositiveImpedance):
        grid(1, [(1, 2, float("nan"))])
    with pytest.raises(DuplicateNode):
        grid(1, [(1, 2, 1.0), (1, 3, 1.0), (3, 2, 1.0)])
    with pytest.raises(Disconnected):
        grid(1, [(1, 2, 1.0), (3, 4, 1.0)])
    with pytest.raises(MissingRoot):
        grid(1, [(2, 1, 1.0)])
    with pytest.raises(UnknownNode):
        grid(1.5, [(1, 2, 1.0)])
    assert grid(2, []).nodes == {2}


def test_reduced_submatrix_matches_reference_loop_exactly():
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    cases = [(g, sorted(g.leaves))]
    rng = np.random.default_rng(24)
    for _ in range(60):
        _, gr = random_feeder(rng, max_buses=40)
        cases.append((gr, sorted(random_probing(rng, gr))))
    for g, p in cases:
        rg = reduce_grid(g, p)
        # The probing buses, then the retained buses in any order, root
        # and junctions included, one left out.
        shuffled = rng.permutation(sorted(rg.nodes)).tolist()
        for buses in (p, shuffled[1:] or shuffled):
            want = reference_shared_path(
                rg, buses, lambda n: rg.root_upstream_r + rg.path_r(n))
            assert np.array_equal(rg.resistance_submatrix(buses), want)
