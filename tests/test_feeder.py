"""Feeder construction, ancestry queries, level sets, resistance matrices."""

import math
import os

import numpy as np
import pytest

from gridprobe import (CycleDetected, Disconnected, DuplicateNode,
                       MissingRoot, NonpositiveImpedance, UnknownNode,
                       build_feeder, effective_resistance, fileio,
                       level_sets, metered_level_sets, reactance_matrix,
                       resistance_matrix)

from helpers import (oracle_effective_resistance, oracle_laplacian_inverse,
                     oracle_level_sets, oracle_path_r, random_feeder,
                     reference_shared_path)

IEEE37 = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                      "data", "ieee37.csv")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def y_tree():
    return build_feeder(Y_EDGES)


# -- construction -------------------------------------------------------------


def test_single_line():
    g = build_feeder([(0, 1, 1.0, 1.0)])
    assert g.nodes == {0, 1}
    assert g.depth(1) == 1
    assert g.leaves == {1}
    assert resistance_matrix(g).values == pytest.approx(np.array([[1.0]]))


def test_y_tree_shape():
    g = y_tree()
    assert g.nodes == {0, 1, 2, 3}
    assert g.leaves == {2, 3}
    assert g.parent(1) == 0 and g.parent(2) == 1 and g.parent(3) == 1
    assert g.parent(0) is None
    assert g.children(1) == (2, 3)
    assert g.depth(0) == 0 and g.depth(2) == 2
    assert g.tree_depth == 2
    assert g.bus_order == (1, 2, 3)


def test_three_field_edges_leave_x_unset():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    assert g.line_x(0, 1) is None
    assert g.path_x(2) is None


def test_two_components_rejected():
    with pytest.raises(Disconnected):
        build_feeder([(0, 1, 1.0, 1.0), (2, 3, 1.0, 1.0)])


def test_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_feeder([(0, 4, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])


@pytest.mark.parametrize("edges, error, message", [
    ([(0, 1, 1.0), (2, 3, 1.0)], Disconnected,
     "bus 2 is not connected to the root"),
    # The chain from bus 2 ends at bus 9, which has no parent.
    ([(0, 1, 1.0), (9, 2, 1.0), (2, 3, 1.0)], Disconnected,
     "bus 9 is not connected to the root"),
    ([(0, 4, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], CycleDetected,
     "cycle through bus 1"),
    # The chain from bus 2 runs into the loop 3 -> 4 -> 3.
    ([(0, 1, 1.0), (3, 2, 1.0), (4, 3, 1.0), (3, 4, 1.0)], CycleDetected,
     "cycle through bus 3"),
    # A cycle in one component beside a bus cut off in another.
    ([(0, 1, 1.0), (2, 3, 1.0), (5, 6, 1.0), (6, 5, 1.0)], Disconnected,
     "bus 2 is not connected to the root"),
])
def test_broken_edge_lists_name_the_bus(edges, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build_feeder(edges)


def test_duplicate_parent_rejected():
    with pytest.raises(DuplicateNode, match="^bus 2 has more than one parent$"):
        build_feeder([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


@pytest.mark.parametrize("edges, error, message", [
    # Every line is validated before a repeated child is reported, so a
    # bad impedance on a later line wins.
    ([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, -1.0)],
     NonpositiveImpedance, r"line \(2,3\) r"),
    ([(0, 1, 1.0), (1, 1.5, 1.0), (0, 1, 1.0)], UnknownNode, "bus ID"),
    # The first repeated child is named, not the first line it repeats.
    ([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)], DuplicateNode,
     "^bus 2 has more than one parent$"),
    # A repeated child wins over a missing or parented root.
    ([(1, 2, 1.0), (3, 2, 1.0)], DuplicateNode,
     "^bus 2 has more than one parent$"),
    ([(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)], DuplicateNode,
     "^bus 1 has more than one parent$"),
])
def test_first_of_two_defects_is_reported(edges, error, message):
    with pytest.raises(error, match=message):
        build_feeder(edges)


def test_missing_or_parented_root_rejected():
    with pytest.raises(MissingRoot):
        build_feeder([(1, 2, 1.0)])
    with pytest.raises(MissingRoot):
        build_feeder([(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(MissingRoot):
        build_feeder([])


def test_nonpositive_impedance_rejected():
    with pytest.raises(NonpositiveImpedance):
        build_feeder([(0, 1, 0.0)])
    with pytest.raises(NonpositiveImpedance):
        build_feeder([(0, 1, -1.0)])
    with pytest.raises(NonpositiveImpedance):
        build_feeder([(0, 1, 1.0, -0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_impedance_rejected(bad):
    with pytest.raises(NonpositiveImpedance):
        build_feeder([(0, 1, bad, 0.1), (1, 2, 1.0, 1.0)])
    with pytest.raises(NonpositiveImpedance):
        build_feeder([(0, 1, 1.0, bad), (1, 2, 1.0, 1.0)])


def test_non_integral_bus_id_rejected():
    with pytest.raises(UnknownNode):
        build_feeder([(0, 1.7, 1.0), (1, 2, 1.0)])
    with pytest.raises(UnknownNode):
        build_feeder([(0, 1, 1.0), (1, 2, 1.0), (1.5, 3, 1.0)])
    # integral floats name the same bus
    assert build_feeder([(0.0, 1.0, 1.0)]).nodes == {0, 1}


# -- ancestry -----------------------------------------------------------------


def test_ancestry_conventions():
    g = y_tree()
    # self is both ancestor and descendant of itself
    assert 2 in g.ancestors(2) and 2 in g.descendants(2)
    assert g.ancestors(2) == {0, 1, 2}
    assert g.descendants(1) == {1, 2, 3}
    assert g.ancestor_at(2, 0) == 0
    assert g.ancestor_at(2, 2) == 2
    assert g.lca(2, 3) == 1
    assert g.lca(2, 2) == 2
    assert g.lca(0, 3) == 0


def test_ancestor_at_outside_the_path():
    g = y_tree()
    for k in (3, -1):
        with pytest.raises(UnknownNode,
                           match=f"^bus 2 has no depth-{k} ancestor$"):
            g.ancestor_at(2, k)


def test_feeders_compare_hash_and_print_by_their_lines():
    g = y_tree()
    same = build_feeder(list(reversed(Y_EDGES)))
    assert g == same and hash(g) == hash(same)
    assert g != build_feeder(Y_EDGES[:2]) and g != Y_EDGES
    assert repr(g) == "FeederGraph(4 buses, 3 lines)"


def test_path_resistance_accumulates():
    g = y_tree()
    assert g.path_r(0) == 0.0
    assert g.path_r(2) == 3.0
    assert g.path_x(3) == 2.0


def test_unknown_bus_everywhere():
    g = y_tree()
    with pytest.raises(UnknownNode):
        g.depth(9)
    with pytest.raises(UnknownNode):
        level_sets(g, 9)
    with pytest.raises(UnknownNode):
        effective_resistance(g, 0, 9)


# -- level sets ---------------------------------------------------------------


def test_y_level_sets():
    fam = level_sets(y_tree(), 2)
    assert fam.at(0) == {0}
    assert fam.at(1) == {1, 3}
    assert fam.at(2) == {2}
    assert fam.values == (0.0, 1.0, 3.0)
    assert fam.depth == 2
    assert fam.find(3) == 1 and fam.find(9) is None


def test_root_level_set_is_everything():
    g = y_tree()
    fam = level_sets(g, 0)
    assert fam.depth == 0
    assert fam.at(0) == g.nodes


def test_level_sets_partition_the_feeder():
    rng = np.random.default_rng(7)
    for _ in range(50):
        edges, g = random_feeder(rng, max_buses=20)
        for m in g.nodes:
            fam = level_sets(g, m)
            union = set()
            total = 0
            for k in fam.depths:
                union |= fam.at(k)
                total += len(fam.at(k))
            assert union == g.nodes and total == len(g.nodes)


def test_level_sets_match_split_point_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        edges, g = random_feeder(rng, max_buses=20)
        for m in g.nodes:
            fam = level_sets(g, m)
            assert list(fam.sets) == oracle_level_sets(edges, m)


def test_multi_child_substation_spills_into_depth_zero():
    g = build_feeder([(0, 1, 1.0), (0, 2, 1.0)])
    fam = level_sets(g, 1)
    # the sibling branch separates from bus 1 at the substation itself
    assert fam.at(0) == {0, 2}
    assert fam.at(1) == {1}


def test_metered_level_sets_y():
    g = y_tree()
    fam = metered_level_sets(g, 2, {2, 3})
    assert fam.metered and fam.start_depth == 1
    assert fam.sets == (frozenset({3}), frozenset({2}))
    assert fam.values == (1.0, 3.0)
    fam3 = metered_level_sets(g, 3, {2, 3})
    assert fam3.sets == (frozenset({2}), frozenset({3}))
    assert fam3.values == (1.0, 4.0)


def test_metered_level_sets_drop_unseen_depths():
    # 0-1-2-3 path probed only at the end: depths 1 and 2 collapse away
    g = build_feeder([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    fam = metered_level_sets(g, 3, {3})
    assert fam.sets == (frozenset({3}),)
    assert fam.values == (3.0,)


def test_metered_level_sets_require_probed_owner():
    with pytest.raises(UnknownNode):
        metered_level_sets(y_tree(), 1, {2, 3})


# -- resistance matrices ------------------------------------------------------


def test_y_resistance_entries():
    rmat = resistance_matrix(y_tree())
    assert rmat.nodes == (1, 2, 3)
    assert rmat.entry(2, 2) == 3.0
    assert rmat.entry(2, 3) == 1.0
    assert rmat.entry(3, 3) == 4.0
    assert rmat.entry(1, 2) == 1.0
    expected = np.array([[1.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 4.0]])
    assert np.array_equal(rmat.values, expected)


def test_resistance_matrix_is_spd():
    rng = np.random.default_rng(9)
    for _ in range(20):
        _, g = random_feeder(rng, max_buses=25)
        vals = resistance_matrix(g).values
        assert np.array_equal(vals, vals.T)
        assert np.all(np.linalg.eigvalsh(vals) > 0)


def test_resistance_matrix_equals_laplacian_inverse():
    rng = np.random.default_rng(10)
    for _ in range(100):
        edges, g = random_feeder(rng, max_buses=30)
        buses, inv = oracle_laplacian_inverse(edges)
        rmat = resistance_matrix(g)
        assert rmat.nodes == tuple(buses)
        assert np.allclose(rmat.values, inv, rtol=1e-9, atol=1e-12)


def test_reactance_matrix_uses_x():
    xmat = reactance_matrix(y_tree())
    assert xmat.entry(2, 2) == 2.0  # both path reactances are 1.0
    assert xmat.entry(2, 3) == 1.0


def test_reactance_matrix_requires_x():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    with pytest.raises(NonpositiveImpedance):
        reactance_matrix(g)


def test_submatrix_ordering():
    rmat = resistance_matrix(y_tree())
    sub = rmat.submatrix([3, 2], [3, 2])
    assert sub[0, 0] == 4.0 and sub[1, 1] == 3.0 and sub[0, 1] == 1.0


# -- effective resistance -----------------------------------------------------


def test_effective_resistance_y():
    g = y_tree()
    assert effective_resistance(g, 2, 3) == 5.0
    assert effective_resistance(g, 0, 2) == 3.0
    assert effective_resistance(g, 2, 2) == 0.0


def test_effective_resistance_matches_quadratic_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        edges, g = random_feeder(rng, max_buses=15)
        nodes = sorted(g.nodes)
        for _ in range(10):
            m, n = rng.choice(nodes, size=2)
            want = oracle_effective_resistance(edges, int(m), int(n))
            assert effective_resistance(g, int(m), int(n)) == pytest.approx(
                want, rel=1e-10, abs=1e-12)


def test_path_r_matches_oracle():
    rng = np.random.default_rng(12)
    for _ in range(30):
        edges, g = random_feeder(rng, max_buses=20)
        for m in g.nodes:
            assert g.path_r(m) == pytest.approx(oracle_path_r(edges, m),
                                                rel=1e-12)


def test_matrices_match_reference_loop_exactly():
    feeders = [fileio.load_feeder(IEEE37)]
    rng = np.random.default_rng(31)
    feeders += [random_feeder(rng, max_buses=40)[1] for _ in range(60)]
    for g in feeders:
        order = g.bus_order
        assert np.array_equal(resistance_matrix(g).values,
                              reference_shared_path(g, order, g.path_r))
        assert np.array_equal(reactance_matrix(g).values,
                              reference_shared_path(g, order, g.path_x))


def test_matrices_are_built_once_and_read_only():
    g = fileio.load_feeder(IEEE37)
    for build in (resistance_matrix, reactance_matrix):
        first = build(g)
        assert build(g) is first
        assert not first.values.flags.writeable
        with pytest.raises(ValueError):
            first.values[0, 0] = 1.0
    # an equal but distinct feeder builds its own
    assert resistance_matrix(fileio.load_feeder(IEEE37)) is not \
        resistance_matrix(g)


def test_bus_ids_beyond_int64_keep_exact_matrices():
    big = 2 ** 70
    g = build_feeder([(0, big, 1.0), (big, 3, 2.0), (big, 2 * big, 3.0)])
    assert np.array_equal(resistance_matrix(g).values,
                          reference_shared_path(g, g.bus_order, g.path_r))
