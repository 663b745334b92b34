"""Structural invariants of level sets, columns and metered views.

Every test sweeps 500 seeded random feeders. The checks themselves live
in helpers.py so the acceptance gate can reuse them. The last test holds
the one probed-below match behind `compare_graphs` and the sweep's learn
to renamings and rewirings made by hand, not to another match.
"""

import numpy as np
import pytest

import helpers
from gridprobe import (LabelMismatch, NoiseModel, ProbingPlan, ReducedGrid,
                       compare_graphs, reduce_grid, sample_estimate)
from gridprobe.experiments import _learn
from gridprobe.grouping import _label
from helpers import random_feeder, random_probing

TREES = 500


def sweep(check, seed, max_buses=20):
    rng = np.random.default_rng(seed)
    for _ in range(TREES):
        _, g = random_feeder(rng, max_buses=max_buses)
        check(g)


def sweep_probed(check, seed, max_buses=16):
    rng = np.random.default_rng(seed)
    for _ in range(TREES):
        _, g = random_feeder(rng, max_buses=max_buses)
        check(g, random_probing(rng, g))


def test_each_group_has_one_bus_at_its_own_depth():
    sweep(helpers.check_unique_depth_k_member, 101)


def test_group_members_share_the_owners_ancestor():
    sweep(helpers.check_members_share_ancestor, 102)


def test_leaf_groups_end_with_the_leaf_alone():
    sweep(helpers.check_leaf_terminal_group, 103)


def test_descendants_inherit_shallow_groups():
    sweep(helpers.check_descendants_inherit_groups, 104)


def test_buses_join_their_group_only_at_their_depth():
    sweep(helpers.check_own_group_at_own_depth, 105)


def test_leaf_columns_peak_on_the_diagonal():
    sweep(helpers.check_leaf_column_peak, 106)


def test_equal_column_entries_mark_shared_groups():
    sweep(helpers.check_equal_entries_mark_groups, 107)


def test_group_value_steps_equal_line_resistances():
    sweep(helpers.check_group_step_matches_line, 108)


def test_metered_families_align_with_the_reduced_grid():
    sweep_probed(helpers.check_metered_depth_alignment, 109)


def test_subtree_group_intersections_pinpoint_the_root():
    sweep_probed(helpers.check_subtree_intersection_pinpoints_root, 110)


def test_equal_groups_mark_shared_branching():
    sweep(helpers.check_equal_groups_mark_shared_branching, 111)


def test_probed_subtree_roots_claim_their_subtree():
    sweep_probed(helpers.check_probed_root_claims_subtree, 112)


def test_equal_metered_groups_mark_shared_branching():
    sweep_probed(helpers.check_equal_metered_groups_mark_shared_branching, 113)


def test_probed_below_walks_each_subtree_root_down():
    sweep_probed(helpers.check_probed_below_walks_root_down, 115)


def renamed(grid, names):
    return ReducedGrid(names.get(grid.root, grid.root),
                       [(names.get(u, u), names.get(v, v), r)
                        for u, v, r in grid.edges],
                       grid.probing, [names[j] for j in grid.internal],
                       grid.root_upstream_r)


def test_probed_below_match_follows_renamings_not_rewirings():
    rng = np.random.default_rng(114)
    rewired = 0
    for _ in range(TREES):
        _, g = random_feeder(rng, max_buses=16)
        owners = tuple(sorted(random_probing(rng, g)))
        truth = reduce_grid(g, owners)
        # Junction IDs renamed, shuffled, above every bus: the match is
        # that renaming, with the same resistances.
        junctions = sorted(truth.internal)
        fresh = rng.permutation(len(junctions)) + max(truth.nodes) + 1
        names = dict(zip(junctions, fresh.tolist()))
        cmp = compare_graphs(truth, renamed(truth, names), owners)
        assert cmp.topology_correct and cmp.resistance_mpe == 0.0
        assert cmp.node_map == {b: names.get(b, b) for b in truth.nodes}
        # One line (u, v) hung off another bus w outside v's subtree: w's
        # probed buses below gain v's.
        moves = [(v, w) for _, v, _ in truth.edges for w in truth.nodes
                 if w != truth.parent(v)
                 and v not in truth._ancestry[w]]
        if not moves:
            continue
        v, w = moves[int(rng.integers(len(moves)))]
        wrong = ReducedGrid(truth.root,
                            [(w if c == v else u, c, r)
                             for u, c, r in truth.edges],
                            truth.probing, truth.internal,
                            truth.root_upstream_r)
        for a, b in ((truth, wrong), (wrong, truth)):
            cmp = compare_graphs(a, b, owners)
            assert not cmp.topology_correct and cmp.node_map is None
        plan = ProbingPlan.blocks(owners, [0.1] * len(owners), 1)
        labelling = _label(sample_estimate(g, plan, NoiseModel(), "partial"),
                           None, "partial")
        _learn(labelling, truth)
        with pytest.raises(LabelMismatch):
            _learn(labelling, wrong)
        rewired += 1
    assert rewired > TREES // 2
