"""Column grouping: exact equality and the sorted-gap rule."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprobe import (AmbiguousIntersection, InconsistentLevelSets,
                       NonpositiveRmin, ResistanceEstimate, assemble_families,
                       build_feeder, fileio, group_column_exact,
                       group_column_noisy, group_estimate,
                       grouping_diagnostics, identify, level_sets,
                       recover_full, resistance_matrix)

from helpers import random_feeder

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                    "data")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def y_tree():
    return build_feeder(Y_EDGES)


def exact_column(g, m):
    return resistance_matrix(g).column(m)


# -- exact grouping -----------------------------------------------------------


def test_y_complete_grouping():
    grp = group_column_exact(exact_column(y_tree(), 2), 2)
    assert [g.nodes for g in grp.groups] == [{0}, {1, 3}, {2}]
    assert [g.depth for g in grp.groups] == [0, 1, 2]
    assert [g.value for g in grp.groups] == [0.0, 1.0, 3.0]
    assert grp.depth == 2


def test_y_partial_grouping():
    grp = group_column_exact({2: 3.0, 3: 1.0}, 2, mode="partial")
    assert [g.nodes for g in grp.groups] == [{3}, {2}]
    assert [g.depth for g in grp.groups] == [1, 2]
    assert grp.nodes_at(1) == {3}
    with pytest.raises(KeyError):
        grp.nodes_at(0)


def test_single_line_grouping():
    g = build_feeder([(0, 1, 0.5)])
    grp = group_column_exact(exact_column(g, 1), 1)
    assert [g.nodes for g in grp.groups] == [{0}, {1}]


def test_owner_must_appear_in_entries():
    with pytest.raises(InconsistentLevelSets):
        group_column_exact({2: 3.0, 3: 1.0}, 1)


def test_complete_mode_rejects_substation_entry():
    with pytest.raises(InconsistentLevelSets):
        group_column_exact({0: 0.0, 1: 1.0}, 1)


def test_unknown_mode_rejected():
    with pytest.raises(InconsistentLevelSets):
        group_column_exact({1: 1.0}, 1, mode="noisy")


def test_exact_groups_match_level_sets_everywhere():
    rng = np.random.default_rng(41)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=20)
        rmat = resistance_matrix(g)
        for m in g.bus_order:
            grp = group_column_exact(rmat.column(m), m)
            fam = level_sets(g, m)
            assert len(grp.groups) == len(fam.sets)
            for got, want, value in zip(grp.groups, fam.sets, fam.values):
                assert got.nodes == want
                assert got.value == pytest.approx(value, abs=1e-12)


def test_bundled_feeder_exact_groups_match_level_sets():
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    rmat = resistance_matrix(g)
    for m in sorted(g.leaves):
        grp = group_column_exact(rmat.column(m), m)
        fam = level_sets(g, m)
        assert [grp.nodes for grp in grp.groups] == list(fam.sets)


# -- gap rule -----------------------------------------------------------------


def test_gap_rule_splits_on_every_large_gap():
    # gaps 0.0009 and 0.0022 both exceed half of 0.0014; only the final
    # 0.0001 step keeps its neighbours together
    entries = {1: 0.000, 2: 0.0009, 3: 0.0031, 4: 0.0032}
    grp = group_column_noisy(entries, 4, r_min=0.0014, mode="partial")
    assert [g.nodes for g in grp.groups] == [{1}, {2}, {3, 4}]
    assert grp.threshold == pytest.approx(0.0007)
    assert grp.groups[-1].value == pytest.approx(0.00315)


def test_gap_rule_boundary_is_inclusive():
    # a gap of exactly r_min/2 does not split
    grp = group_column_noisy({1: 0.0, 2: 0.5, 3: 1.2}, 3, r_min=1.0,
                             mode="partial")
    assert [g.nodes for g in grp.groups] == [{1, 2}, {3}]


def test_gap_rule_on_clean_column_matches_exact():
    rng = np.random.default_rng(42)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=20)
        r_min = min(r for _, _, r, _ in g.edges)
        rmat = resistance_matrix(g)
        for m in g.bus_order:
            clean = rmat.column(m)
            noisy = group_column_noisy(clean, m, r_min)
            exact = group_column_exact(clean, m)
            assert [x.nodes for x in noisy.groups] == [
                x.nodes for x in exact.groups]


def test_gap_rule_survives_quarter_separation_noise():
    """Perturbing every entry by strictly less than a quarter of the
    smallest line resistance never changes the grouping."""
    rng = np.random.default_rng(43)
    for _ in range(100):
        _, g = random_feeder(rng, max_buses=20)
        r_min = min(r for _, _, r, _ in g.edges)
        rmat = resistance_matrix(g)
        for m in g.bus_order:
            clean = rmat.column(m)
            exact = [x.nodes for x in group_column_exact(clean, m).groups]
            # worst case pattern: extremes with adversarial random signs
            amp = 0.25 * r_min * (1.0 - 1e-9)
            signs = rng.choice([-1.0, 1.0], size=len(clean))
            bumped = {n: v + s * amp
                      for (n, v), s in zip(clean.items(), signs)}
            noisy = group_column_noisy(bumped, m, r_min)
            assert [x.nodes for x in noisy.groups] == exact


def test_negative_entries_sort_below_substation():
    grp = group_column_noisy({1: -0.004, 2: 0.03}, 2, r_min=0.01)
    assert [g.nodes for g in grp.groups] == [{1, 0}, {2}]
    assert grp.groups[0].value == pytest.approx(-0.002)


def test_noisy_r_min_validation():
    with pytest.raises(NonpositiveRmin):
        group_column_noisy({1: 1.0}, 1, r_min=0.0)


def test_tie_break_by_bus_id():
    grp = group_column_exact({5: 1.0, 1: 1.0, 3: 2.0}, 3)
    assert grp.sorted_entries == ((0, 0.0), (1, 1.0), (5, 1.0), (3, 2.0))


# -- diagnostics --------------------------------------------------------------


def test_diagnostics_are_json_ready():
    grp = group_column_noisy({1: 0.0, 2: 0.0009, 3: 0.0031, 4: 0.0032}, 4,
                             r_min=0.0014, mode="partial")
    diag = grouping_diagnostics(grp)
    blob = json.loads(json.dumps(diag))
    assert blob["owner"] == 4
    assert blob["threshold"] == pytest.approx(0.0007)
    assert blob["gaps"] == pytest.approx([0.0009, 0.0022, 0.0001])
    assert blob["boundaries"] == [1, 2]
    assert [g["buses"] for g in blob["groups"]] == [[1], [2], [3, 4]]


# -- family assembly ----------------------------------------------------------


def test_assemble_y_families_match_level_sets():
    g = y_tree()
    groupings = [group_column_exact(exact_column(g, m), m) for m in (2, 3)]
    families = assemble_families(groupings)
    for m in (2, 3):
        fam = families[m]
        want = level_sets(g, m)
        assert fam.sets == want.sets
        assert fam.values == pytest.approx(want.values)
        assert not fam.metered


def test_assemble_partial_families():
    groupings = [
        group_column_exact({2: 3.0, 3: 1.0}, 2, mode="partial"),
        group_column_exact({2: 1.0, 3: 4.0}, 3, mode="partial"),
    ]
    families = assemble_families(groupings)
    assert families[2].metered
    assert families[2].sets == (frozenset({3}), frozenset({2}))
    assert families[3].sets == (frozenset({2}), frozenset({3}))
    assert families[2].probing == {2, 3}


def test_assemble_rejects_empty_input():
    with pytest.raises(InconsistentLevelSets):
        assemble_families([])


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_group_estimate_rejects_an_estimate_without_columns(mode):
    empty = ResistanceEstimate((1, 2), (), np.zeros((2, 0)))
    for r_min in (None, 0.5):
        with pytest.raises(InconsistentLevelSets,
                           match="^no groupings supplied$"):
            group_estimate(empty, r_min, mode)


def test_assemble_rejects_mixed_modes():
    g = y_tree()
    with pytest.raises(InconsistentLevelSets):
        assemble_families([
            group_column_exact(exact_column(g, 2), 2),
            group_column_exact({2: 1.0, 3: 4.0}, 3, mode="partial"),
        ])


def test_assemble_rejects_duplicate_owners():
    g = y_tree()
    grp = group_column_exact(exact_column(g, 2), 2)
    with pytest.raises(InconsistentLevelSets):
        assemble_families([grp, grp])


def test_assemble_rejects_merged_depths():
    """A corrupted column whose groups disagree with a partner column is
    caught by the pairwise consistency check."""
    g = y_tree()
    good = group_column_exact(exact_column(g, 2), 2)
    # merge buses 1 and 3 into the substation group of column 3
    bad = group_column_noisy({1: 0.0, 2: 0.0, 3: 0.1}, 3, r_min=10.0)
    with pytest.raises(InconsistentLevelSets):
        assemble_families([good, bad])


def test_assemble_checks_symmetric_views():
    # column 2 places bus 3 at value 1.0 but column 3 claims to sit at
    # depth 1 with value 2.5, so the two columns cannot coexist
    a = group_column_exact({2: 3.0, 3: 1.0}, 2, mode="partial")
    b = group_column_exact({2: 2.5, 3: 4.0}, 3, mode="partial")
    with pytest.raises(InconsistentLevelSets):
        assemble_families([a, b])


def test_assembled_families_on_random_feeders():
    rng = np.random.default_rng(44)
    for _ in range(30):
        _, g = random_feeder(rng, max_buses=15)
        rmat = resistance_matrix(g)
        probing = sorted(g.leaves)
        groupings = [group_column_exact(rmat.column(m), m) for m in probing]
        families = assemble_families(groupings)
        for m in probing:
            assert families[m].sets == level_sets(g, m).sets


# -- one bus of each depth per group ------------------------------------------
#
# Chain 0 -> 1 -> 2, every bus an owner, cut 0.5. Noise put bus 2's entry
# in column 1 (true 2.0) 0.55 below bus 1's own, so column 1 claims depth 2
# for bus 1 and puts bus 2 alone at depth 1. Column 2 agrees on the split
# depth and, within 0.5, on its value, but its depth-1 group holds bus 1,
# which claims depth 2: no bus of depth 1 there, and the depth-1
# intersection of the walk is empty.
GAP_ESTIMATE = ResistanceEstimate((1, 2), (1, 2), [[2.0, 1.6], [1.45, 3.0]])
GAP_MESSAGE = "column 1: depth-1 group does not hold exactly one depth-1 bus"


def test_a_group_without_a_bus_of_its_depth_is_rejected():
    with pytest.raises(InconsistentLevelSets, match=f"^{GAP_MESSAGE}$"):
        group_estimate(GAP_ESTIMATE, 1.0, "complete")
    with pytest.raises(InconsistentLevelSets, match=f"^{GAP_MESSAGE}$"):
        identify(GAP_ESTIMATE, 1.0, "complete")
    columns = [group_column_noisy(GAP_ESTIMATE.column(m), m, 1.0)
               for m in (1, 2)]
    with pytest.raises(InconsistentLevelSets, match=f"^{GAP_MESSAGE}$"):
        assemble_families(columns, value_tol=0.5)
    # Without the rule these families reach recovery, which cannot name
    # the depth-1 bus.
    with pytest.raises(AmbiguousIntersection, match="has 0 buses"):
        recover_full({g.owner: g for g in columns})


def test_an_owner_in_the_substation_group_is_rejected():
    # One line shorter than the cut: bus 1's column is one group, so bus 1
    # claims depth 0, beside the substation.
    estimate = ResistanceEstimate((1,), (1,), [[0.3]])
    with pytest.raises(InconsistentLevelSets,
                       match="^column 1: depth-0 group does not hold "
                             "exactly one depth-0 bus$"):
        group_estimate(estimate, 1.0, "complete")


def test_the_rule_waits_for_every_other_rule():
    # The same columns, with a split value off by more than the tolerance:
    # the pair rule, checked first, keeps its message.
    estimate = ResistanceEstimate((1, 2), (1, 2), [[2.0, 1.6], [1.0, 3.0]])
    with pytest.raises(InconsistentLevelSets,
                       match="^columns 1 and 2 disagree on their split "
                             "value$"):
        group_estimate(estimate, 1.0, "complete")


def test_the_rule_needs_every_bus_an_owner():
    # Bus 2 alone as owner, with bus 1 unprobed: its column may hold
    # groups with no owner, and recovery keeps its own errors.
    g = build_feeder([(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    rmat = resistance_matrix(g)
    estimate = ResistanceEstimate((1, 2, 3), (2, 3),
                                  rmat.submatrix((1, 2, 3), (2, 3)))
    families = group_estimate(estimate, 1.0, "complete")
    assert recover_full(families).graph == g


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       lo=st.sampled_from([0.05, 0.5, 0.9]),
       noise=st.sampled_from([0.1, 0.2, 0.3]))
def test_accepted_complete_families_always_recover(seed, lo, noise):
    # Random feeders, every bus probed, Gaussian noise on every entry of a
    # fraction of r_min; line resistances from [lo, 1], so with lo near 1
    # every line is near r_min and entries cross groups often.
    rng = np.random.default_rng(seed)
    _, g = random_feeder(rng, max_buses=12, lo=lo)
    r_min = min(r for _, _, r, _ in g.edges)
    buses = g.bus_order
    values = (resistance_matrix(g).submatrix(buses, buses)
              + rng.normal(0.0, noise * r_min, (len(buses), len(buses))))
    try:
        families = group_estimate(ResistanceEstimate(buses, buses, values),
                                  r_min, "complete")
    except InconsistentLevelSets:
        return
    recover_full(families)
