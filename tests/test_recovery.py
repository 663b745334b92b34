"""Topology recovery from level-set families, full and metered."""

import os

import numpy as np
import pytest

from gridprobe import (AmbiguousIntersection, EmptyPartition,
                       GridProbeError, InconsistentLevelSets,
                       InconsistentMeteredSets,
                       LabelMismatch, LevelSetFamily, ReducedGrid,
                       assemble_families, build_feeder, compare_graphs,
                       fileio, group_column_exact, metered_level_sets,
                       recover_full, recover_partial, reduce_grid,
                       resistance_matrix)

from helpers import random_feeder, random_probing

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                    "data")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def y_tree():
    return build_feeder(Y_EDGES)


def exact_families(g, probing, mode="complete"):
    rmat = resistance_matrix(g)
    groupings = []
    for m in sorted(probing):
        if mode == "complete":
            entries = rmat.column(m)
        else:
            entries = {n: rmat.entry(n, m) for n in probing}
        groupings.append(group_column_exact(entries, m, mode=mode))
    return assemble_families(groupings)


def metered_family(owner, sets, values, probing):
    return LevelSetFamily(owner=owner, start_depth=1,
                          sets=tuple(frozenset(s) for s in sets),
                          values=tuple(values), metered=True,
                          probing=frozenset(probing))


def plain_edges(g):
    return sorted((f, t, r) for f, t, r, _ in g.edges)


def assert_same_lines(got, want):
    """Same wiring, resistances equal up to float round-off of the mean."""
    assert [(f, t) for f, t, _ in got] == [(f, t) for f, t, _ in want]
    assert [r for _, _, r in got] == pytest.approx(
        [r for _, _, r in want], rel=1e-12)


# -- full recovery ------------------------------------------------------------


def test_recover_y_from_leaf_columns():
    g = y_tree()
    rec = recover_full(exact_families(g, {2, 3}))
    assert rec.mode == "complete"
    assert plain_edges(rec.graph) == [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)]
    assert rec.line_support == {(0, 1): 2, (1, 2): 1, (1, 3): 1}


def test_recover_single_line():
    g = build_feeder([(0, 1, 0.5)])
    rec = recover_full(exact_families(g, {1}))
    assert plain_edges(rec.graph) == [(0, 1, 0.5)]


def test_recover_full_wants_families():
    with pytest.raises(EmptyPartition):
        recover_full({})


def test_recover_full_rejects_metered_families():
    g = y_tree()
    with pytest.raises(InconsistentLevelSets):
        recover_full(exact_families(g, {2, 3}, mode="partial"))


def test_missing_leaf_breaks_intersection():
    # probing only bus 2 leaves buses 1 and 3 indistinguishable at depth 1
    g = y_tree()
    with pytest.raises(AmbiguousIntersection) as err:
        recover_full(exact_families(g, {2}))
    assert err.value.depth == 1
    assert err.value.buses == frozenset({2})


def test_value_errors_before_the_walk_error_come_first():
    # Chain 0-1-2 with leaves 3 and 4 under bus 2, bus 4 unprobed: the
    # walk wires line (0, 1), then cannot name the depth-2 bus.
    g = build_feeder([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (2, 4, 1.0)])
    families = exact_families(g, {1, 2, 3})
    with pytest.raises(AmbiguousIntersection,
                       match="^depth-2 intersection of \\[2, 3\\] has 2 "
                             "buses$") as err:
        recover_full(families)
    assert (err.value.depth, err.value.buses) == (2, frozenset({2, 3}))
    # A nonpositive line (0, 1), met before that error, is raised first.
    fam = families[1]
    families[1] = LevelSetFamily(fam.owner, fam.start_depth, fam.sets,
                                 (0.0, -5.0), fam.metered)
    with pytest.raises(InconsistentLevelSets,
                       match="^nonpositive line resistance -1.0 at depth 1$"):
        recover_full(families)


def test_recover_full_random_feeders():
    rng = np.random.default_rng(51)
    for _ in range(50):
        edges, g = random_feeder(rng, max_buses=20)
        rec = recover_full(exact_families(g, g.leaves))
        assert_same_lines(plain_edges(rec.graph),
                          sorted((f, t, r) for f, t, r, _ in edges))


def test_recover_full_tolerates_extra_probes():
    rng = np.random.default_rng(52)
    for _ in range(30):
        edges, g = random_feeder(rng, max_buses=20)
        rec = recover_full(exact_families(g, random_probing(rng, g)))
        assert_same_lines(plain_edges(rec.graph),
                          sorted((f, t, r) for f, t, r, _ in edges))


def test_bundled_feeder_full_recovery():
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    rec = recover_full(exact_families(g, g.leaves))
    assert_same_lines(plain_edges(rec.graph), plain_edges(g))


# -- partial recovery ---------------------------------------------------------


def test_recover_y_reduced_grid():
    g = y_tree()
    rec = recover_partial(exact_families(g, {2, 3}, mode="partial"))
    assert rec.mode == "partial"
    grid = rec.graph
    # the branching point gets a fresh label above the probed range
    assert grid.root == 4
    assert grid.edges == ((4, 2, 2.0), (4, 3, 3.0))
    assert grid.internal == frozenset({4})
    assert grid.root_upstream_r == pytest.approx(1.0)
    cmp = compare_graphs(grid, reduce_grid(g, {2, 3}), probing={2, 3})
    assert cmp.topology_correct
    assert cmp.node_map[4] == 1
    assert cmp.resistance_mpe == pytest.approx(0.0, abs=1e-12)
    assert cmp.upstream_rel_error == pytest.approx(0.0, abs=1e-12)


def test_recover_partial_single_probe():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    rec = recover_partial(exact_families(g, {2}, mode="partial"))
    assert rec.graph.nodes == frozenset({2})
    assert rec.graph.edges == ()
    assert rec.graph.root_upstream_r == pytest.approx(3.0)


def test_recover_partial_probed_root():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0)])
    rec = recover_partial(exact_families(g, {1, 2}, mode="partial"))
    assert rec.graph.root == 1
    assert rec.graph.edges == ((1, 2, 2.0),)
    assert rec.graph.internal == frozenset()
    assert rec.graph.root_upstream_r == pytest.approx(1.0)


def test_recover_partial_rejects_full_families():
    g = y_tree()
    with pytest.raises(InconsistentLevelSets):
        recover_partial(exact_families(g, {2, 3}))


def test_conflicting_claimants_detected():
    """Two probed buses cannot both own the same metered subtree."""
    families = {
        2: metered_family(2, [{2, 3}], [3.0], {2, 3}),
        3: metered_family(3, [{2, 3}], [3.0], {2, 3}),
    }
    with pytest.raises(InconsistentMeteredSets) as err:
        recover_partial(families)
    assert err.value.depth == 1


def test_nonseparating_junction_detected():
    # both columns put the whole group in one depth-1 block, so the
    # junction that should split them explains nothing
    families = {
        2: metered_family(2, [{3}, {2}], [1.0, 3.0], {2, 3}),
        3: metered_family(3, [{3}], [1.0], {2, 3}),
    }
    with pytest.raises(InconsistentMeteredSets):
        recover_partial(families)


def test_partial_value_errors_before_the_walk_error_come_first():
    # Feeder 0-1-{2, 5}, 5-{3, 4}, buses 3 and 4 probed with 2: the walk
    # names junction 1 as 5 and wires line (5, 2); with buses 3 and 4 both
    # claiming {3, 4} at depth 2, it then cannot name that group's root.
    g = build_feeder([(0, 1, 1.0), (1, 2, 1.0), (1, 5, 1.0), (5, 3, 1.0),
                      (5, 4, 1.0)])
    probing = {2, 3, 4}
    families = {m: metered_level_sets(g, m, probing) for m in sorted(probing)}
    for m in (3, 4):
        fam = families[m]
        families[m] = metered_family(
            m, [fam.sets[0], {3, 4}, fam.sets[2]], fam.values, probing)
    with pytest.raises(InconsistentMeteredSets,
                       match="^buses \\[3, 4\\] both claim to root "
                             "\\[3, 4\\]$") as err:
        recover_partial(families)
    assert (err.value.depth, err.value.buses) == (2, frozenset({3, 4}))
    # A nonpositive line (5, 2), met before that error, is raised first.
    families[2] = metered_family(2, families[2].sets, (1.0, 0.0), probing)
    with pytest.raises(InconsistentLevelSets,
                       match="^nonpositive line resistance -1.0 at depth 2$"):
        recover_partial(families)


def test_recover_partial_random_feeders():
    rng = np.random.default_rng(53)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=20)
        probing = random_probing(rng, g)
        rec = recover_partial(exact_families(g, probing, mode="partial"))
        truth = reduce_grid(g, probing)
        cmp = compare_graphs(rec.graph, truth, probing=probing)
        assert cmp.topology_correct
        assert cmp.resistance_mpe == pytest.approx(0.0, abs=1e-9)
        assert cmp.upstream_rel_error == pytest.approx(0.0, abs=1e-9)


def test_recovered_reduced_resistances_match_probed_submatrix():
    rng = np.random.default_rng(54)
    for _ in range(30):
        _, g = random_feeder(rng, max_buses=20)
        probing = sorted(g.leaves)
        rec = recover_partial(exact_families(g, probing, mode="partial"))
        want = resistance_matrix(g).submatrix(probing, probing)
        got = rec.graph.resistance_submatrix(probing)
        assert np.allclose(got, want, rtol=1e-9, atol=0)


def test_bundled_feeder_partial_recovery():
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    probing = sorted(g.leaves)
    rec = recover_partial(exact_families(g, probing, mode="partial"))
    truth = reduce_grid(g, probing)
    cmp = compare_graphs(rec.graph, truth, probing=probing)
    assert cmp.topology_correct
    assert cmp.resistance_mpe == pytest.approx(0.0, abs=1e-9)


def test_recover_partial_from_metered_level_sets():
    # families produced straight from the graph, not from a matrix
    rng = np.random.default_rng(55)
    for _ in range(20):
        _, g = random_feeder(rng, max_buses=15)
        probing = random_probing(rng, g)
        families = {m: metered_level_sets(g, m, probing) for m in probing}
        rec = recover_partial(families)
        assert compare_graphs(rec.graph, reduce_grid(g, probing),
                              probing=probing).topology_correct


# -- recovery errors ----------------------------------------------------------


def complete_family(owner, sets, values):
    return LevelSetFamily(owner=owner, start_depth=0,
                          sets=tuple(frozenset(s) for s in sets),
                          values=tuple(values), metered=False)


# recover, families, error class, message, depth, buses; depth and buses
# are None for an error that carries no recursion state.
RECOVERY_ERRORS = [
    pytest.param(recover_full, lambda: {
        1: complete_family(1, [{0}, {1}], [0.0, 1.0]),
        2: complete_family(2, [{0}], [0.0])},
        AmbiguousIntersection, "column 2 has no depth-1 group",
        1, {1, 2}, id="complete-no-group"),
    pytest.param(recover_partial, lambda: {
        2: metered_family(2, [{3}], [1.0], {2, 3}),
        3: metered_family(3, [{2}, {3}], [1.0, 2.0], {2, 3})},
        InconsistentMeteredSets, "column 2 has no depth-2 group",
        2, {2}, id="partial-no-group"),
    pytest.param(recover_full, lambda: {
        1: complete_family(1, [{0}, {1}], [0.0, 1.0]),
        2: complete_family(2, [{0}, {1}, {0}], [0.0, 1.0, 2.0])},
        AmbiguousIntersection, "bus 0 identified twice",
        2, {2}, id="complete-twice"),
    pytest.param(recover_partial, lambda: {
        2: metered_family(2, [{3}, {2}], [1.0, 3.0], {2, 3}),
        3: metered_family(3, [{3}], [1.0], {2, 3})},
        InconsistentMeteredSets,
        "ancestor 4 at depth 1 does not separate [2, 3]",
        1, {2, 3}, id="partial-no-split"),
    pytest.param(recover_full, lambda: {
        2: complete_family(2, [{0}, {1, 3}, {2}], [0.0, 1.0, 3.0])},
        AmbiguousIntersection, "depth-1 intersection of [2] has 2 buses",
        1, {2}, id="complete-ambiguous"),
    pytest.param(recover_partial, lambda: {
        2: metered_family(2, [{2, 3}], [3.0], {2, 3}),
        3: metered_family(3, [{2, 3}], [3.0], {2, 3})},
        InconsistentMeteredSets, "buses [2, 3] both claim to root [2, 3]",
        1, {2, 3}, id="partial-claimants"),
    pytest.param(recover_full, lambda: {
        2: metered_family(2, [{2}], [1.0], {2})},
        InconsistentLevelSets,
        "family of bus 2 is not complete-data indexed",
        None, None, id="complete-indexing"),
    pytest.param(recover_partial, lambda: {
        2: complete_family(2, [{0}, {2}], [0.0, 1.0])},
        InconsistentLevelSets, "family of bus 2 is not metered-data indexed",
        None, None, id="partial-indexing"),
    pytest.param(recover_full, lambda: {
        3: complete_family(2, [{0}, {2}], [0.0, 1.0])},
        InconsistentLevelSets, "family keyed 3 owned by 2",
        None, None, id="complete-owner"),
    pytest.param(recover_partial, lambda: {
        3: metered_family(2, [{2}], [1.0], {2})},
        InconsistentLevelSets, "family keyed 3 owned by 2",
        None, None, id="partial-owner"),
    pytest.param(recover_full, dict, EmptyPartition,
                 "no level-set families supplied", None, None,
                 id="complete-empty"),
    pytest.param(recover_partial, dict, EmptyPartition,
                 "no level-set families supplied", None, None,
                 id="partial-empty"),
]


@pytest.mark.parametrize("recover, families, error, message, depth, buses",
                         RECOVERY_ERRORS)
def test_recovery_error_messages(recover, families, error, message, depth,
                                 buses):
    with pytest.raises(GridProbeError) as err:
        recover(families())
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "depth", None) == depth
    want = None if buses is None else frozenset(buses)
    assert getattr(err.value, "buses", None) == want


# -- comparison ---------------------------------------------------------------


def test_compare_identical_graphs():
    g = y_tree()
    truth = reduce_grid(g, {2, 3})
    cmp = compare_graphs(truth, truth, probing={2, 3})
    assert cmp.topology_correct
    assert cmp.resistance_mpe == 0.0
    assert cmp.max_rel_error == 0.0


def test_compare_scaled_resistances():
    g = y_tree()
    truth = reduce_grid(g, {2, 3})
    scaled = ReducedGrid(root=truth.root,
                         edges=[(f, t, 1.1 * r) for f, t, r in truth.edges],
                         probing=truth.probing, internal=truth.internal,
                         root_upstream_r=truth.root_upstream_r)
    cmp = compare_graphs(scaled, truth, probing={2, 3})
    assert cmp.topology_correct
    assert cmp.resistance_mpe == pytest.approx(10.0)
    assert cmp.max_rel_error == pytest.approx(0.10)


def test_compare_detects_rewiring():
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (1, 4, 1.5)])
    probing = {2, 3, 4}
    truth = reduce_grid(g, probing)
    # recovered grid with bus 3 hung off bus 4 instead of bus 2
    wrong = ReducedGrid(root=truth.root,
                        edges=[(4 if (f, t) == (2, 3) else f, t, r)
                               for f, t, r in truth.edges],
                        probing=truth.probing, internal=truth.internal,
                        root_upstream_r=truth.root_upstream_r)
    cmp = compare_graphs(wrong, truth, probing=probing)
    assert not cmp.topology_correct
    assert cmp.resistance_mpe is None


def test_compare_detects_roots_that_disagree_on_probing():
    truth = reduce_grid(y_tree(), {2, 3})  # rooted at junction 1
    # recovered grid rooted at probed bus 2, with bus 3 below it
    wrong = ReducedGrid(root=2, edges=[(2, 3, 5.0)], probing={2, 3},
                        internal=(), root_upstream_r=3.0)
    for a, b in ((wrong, truth), (truth, wrong)):
        cmp = compare_graphs(a, b, probing={2, 3})
        assert not cmp.topology_correct
        assert cmp.resistance_mpe is None and cmp.node_map is None


def feeder(lines):
    return build_feeder([(u, v, float(1 + i)) for i, (u, v) in
                         enumerate(lines)])


@pytest.mark.parametrize("a, b, probing", [
    # two unprobed sibling leaves against one
    ([(0, 1), (0, 2), (0, 3)], [(0, 1), (0, 2)], {1}),
    # a probed bus against a pass-through bus above it
    ([(0, 5)], [(0, 7), (7, 5)], {5}),
    # a chain with one extra unprobed bus, in the middle or at the end
    ([(0, 1), (1, 4), (4, 2)], [(0, 1), (1, 2)], {2}),
    ([(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2)], {2}),
], ids=["unprobed-siblings", "pass-through", "extra-bus", "extra-leaf"])
def test_compare_tells_trees_apart_that_share_every_probed_set(a, b,
                                                                probing):
    for x, y in ((a, b), (b, a)):
        cmp = compare_graphs(feeder(x), feeder(y), probing=probing)
        assert not cmp.topology_correct
        assert cmp.resistance_mpe is None and cmp.node_map is None


def test_compare_matches_unprobed_chains_by_their_place():
    a = feeder([(0, 1), (1, 2), (1, 8), (8, 9)])
    b = feeder([(0, 1), (1, 2), (1, 6), (6, 7)])
    cmp = compare_graphs(a, b, probing={2})
    assert cmp.topology_correct
    assert cmp.node_map == {0: 0, 1: 1, 2: 2, 8: 6, 9: 7}
    assert cmp.resistance_mpe == 0.0


def test_compare_requires_shared_probing_labels():
    g = y_tree()
    truth = reduce_grid(g, {2, 3})
    with pytest.raises(LabelMismatch):
        compare_graphs(truth, truth, probing={2, 9})
