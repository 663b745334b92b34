"""One level-set path against the earlier separate implementations.

Column grouping runs both rules through one gap routine, and both
recoveries through one root-down walk. The references in helpers.py are
the earlier per-rule and per-mode loops; on consistent and on corrupted
inputs the two must agree exactly: the same groups and bitwise-equal
values, the same grid and bitwise-equal line resistances, or the same
exception class carrying the same recursion state.
"""

from collections import Counter
from dataclasses import replace

import numpy as np

from gridprobe import (GridProbeError, group_column_exact, group_column_noisy,
                       level_sets, metered_level_sets, recover_full,
                       recover_partial, resistance_matrix)

from helpers import (random_feeder, random_probing, reference_group_exact,
                     reference_group_noisy, reference_recover_full,
                     reference_recover_partial)


def grouping_outcome(fn, *args, **kwargs):
    try:
        g = fn(*args, **kwargs)
    except GridProbeError as exc:
        return type(exc)
    if isinstance(g, tuple):
        return g
    return g.sets, g.values, g.sorted_entries


def recovery_outcome(fn, families):
    try:
        rep = fn(families)
    except GridProbeError as exc:
        return (type(exc), getattr(exc, "depth", None),
                getattr(exc, "buses", None))
    grid = rep.graph
    extra = ()
    if rep.mode == "partial":
        extra = (grid.internal, grid.root_upstream_r)
    return (rep.mode, rep.probing, grid.root, grid.edges,
            tuple(rep.line_support.items())) + extra


def corrupt(families, rng):
    """Move one bus to a neighbouring group, drop one depth, or shift one
    group value, in one randomly chosen family."""
    m = sorted(families)[int(rng.integers(len(families)))]
    fam = families[m]
    sets, values = list(fam.sets), list(fam.values)
    kind = rng.choice(["move", "drop", "shift"])
    if kind == "drop" and len(sets) > 1:
        i = int(rng.integers(len(sets)))
        del sets[i], values[i]
    elif kind == "move" and len(sets) > 1:
        filled = [i for i, s in enumerate(sets) if s]
        i = filled[int(rng.integers(len(filled)))]
        j = i + 1 if i == 0 or (i + 1 < len(sets) and rng.random() < 0.5) \
            else i - 1
        b = sorted(sets[i])[int(rng.integers(len(sets[i])))]
        sets[i] = sets[i] - {b}
        sets[j] = sets[j] | {b}
    else:
        i = int(rng.integers(len(values)))
        values[i] += float(rng.uniform(-1.0, 1.0))
    out = dict(families)
    out[m] = replace(fam, sets=tuple(sets), values=tuple(values))
    return out


def test_grouping_matches_reference_loops():
    rng = np.random.default_rng(61)
    for _ in range(100):
        _, g = random_feeder(rng, max_buses=20)
        r_min = min(r for _, _, r, _ in g.edges)
        rmat = resistance_matrix(g)
        probing = sorted(random_probing(rng, g))
        for m in g.bus_order:
            clean = rmat.column(m)
            noisy = {n: v + float(rng.normal(0.0, r_min / 6))
                     for n, v in clean.items()}
            for col in (clean, noisy):
                assert grouping_outcome(group_column_exact, col, m) == \
                    grouping_outcome(reference_group_exact, col, m)
                assert grouping_outcome(group_column_noisy, col, m, r_min) \
                    == grouping_outcome(reference_group_noisy, col, m, r_min)
        for m in probing:
            col = {n: rmat.entry(n, m) + float(rng.normal(0.0, r_min / 6))
                   for n in probing}
            assert grouping_outcome(group_column_exact, col, m,
                                    mode="partial") == \
                grouping_outcome(reference_group_exact, col, m, mode="partial")
            assert grouping_outcome(group_column_noisy, col, m, r_min,
                                    mode="partial") == \
                grouping_outcome(reference_group_noisy, col, m, r_min,
                                 mode="partial")


def test_grouping_errors_match_reference():
    cases = [({2: 3.0, 3: 1.0}, 1, "complete"),
             ({0: 0.0, 1: 1.0}, 1, "complete"),
             ({1: 1.0}, 1, "noisy")]
    for entries, owner, mode in cases:
        assert grouping_outcome(group_column_exact, entries, owner, mode) \
            == grouping_outcome(reference_group_exact, entries, owner, mode)
        assert grouping_outcome(group_column_noisy, entries, owner, 1.0,
                                mode) == \
            grouping_outcome(reference_group_noisy, entries, owner, 1.0, mode)


def test_full_recovery_matches_reference():
    rng = np.random.default_rng(62)
    seen = Counter()
    for _ in range(300):
        _, g = random_feeder(rng, max_buses=20)
        probing = random_probing(rng, g)
        if rng.random() < 0.2:
            # an unprobed leaf leaves an intersection ambiguous
            probing = probing - {min(g.leaves)} or probing
        families = {m: level_sets(g, m) for m in probing}
        for fams in (families, corrupt(families, rng),
                     corrupt(corrupt(families, rng), rng)):
            got = recovery_outcome(recover_full, fams)
            assert got == recovery_outcome(reference_recover_full, fams)
            seen[got[0] if isinstance(got[0], type) else "ok"] += 1
    assert seen["ok"] > 300 and len(seen) > 2, seen


def test_partial_recovery_matches_reference():
    rng = np.random.default_rng(63)
    seen = Counter()
    for _ in range(300):
        _, g = random_feeder(rng, max_buses=20)
        probing = random_probing(rng, g)
        families = {m: metered_level_sets(g, m, probing) for m in probing}
        for fams in (families, corrupt(families, rng),
                     corrupt(corrupt(families, rng), rng)):
            got = recovery_outcome(recover_partial, fams)
            assert got == recovery_outcome(reference_recover_partial, fams)
            seen[got[0] if isinstance(got[0], type) else "ok"] += 1
    assert seen["ok"] > 300 and len(seen) > 2, seen
