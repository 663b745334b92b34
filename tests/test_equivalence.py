"""One level-set path against the earlier separate implementations.

Column grouping runs both rules through one gap routine, both
recoveries through one root-down walk, and the family check through one
label map per column. The references in helpers.py are the earlier
per-rule and per-mode loops and the pairwise set scans; on consistent
and on corrupted inputs the two must agree exactly: the same groups and
bitwise-equal values, the same grid and bitwise-equal line resistances,
the same families, or the same exception class carrying the same
recursion state or message. The record reader's one-call parse is held
to the earlier line loop the same way, on valid and perturbed files, and
the record writer to the earlier one value-at-a-time writer byte for
byte. The simulator, which now draws only the noise a record keeps, is
held to the earlier one that drew every bus's noise: noise-free records
bitwise, noisy ones in per-entry mean and variance of the estimate.
`sample_estimate`, which draws a block plan's estimate from its window
sums, is held to the record path the same way: noise-free estimates to
1e-12 relative, noisy ones in per-entry mean and variance, and the same
errors. The campaign reads each feeder's cached shared-path arrays
directly; its exact block and noise factor are held bit for bit to the
blocks of the public `resistance_matrix` and `reactance_matrix` objects,
which wrap those same arrays.
`identify`, the one chain from an estimate to a recovered grid, is held to
the stage chain the `recover` command spelled out before it: the same
grid, lines and supports, or the same exception class and message. It
recovers from the plan read off the labelling's owner hierarchy, as the
sweep does, and is held bit for bit to the public chain it skips,
`group_estimate` then `recover_full` or `recover_partial`: every report
field with line values as float.hex, or the same exception class and
message.
`group_estimate`, which groups a whole estimate on one label matrix, is
held to the per-column copies and the pairwise scans in helpers.py: the
same families bit for bit, or the same first error. The library's own
per-column functions are adapters over the same core, so they serve as a
second reference only for the entry checks (NaN entries) that the copies
predate.
Both recoveries value lines through one stacked value step; a family
value that is NaN or infinite gives the reference walk's error and
message, without a numpy warning.
A sweep learns the recovery of the noise-free labelling once, from the
exact block's labelling (bit for bit the noise-free draw's) and without
building the recovered grid: the learnt plan, line order and truth
resistances are held bit for bit to `_identify` then `compare_graphs`,
and `_learn` raises what that path raises, or LabelMismatch where it
finds no node map. Its match is an adapter over the core that
`compare_graphs` runs (`recovery._node_map`), so this holds the plan's
line names and order to the recovered grid's, not one match to
another; tests/test_properties.py holds the core to known renamings and
rewirings. It scores
only the trials that cut their estimate into that labelling, by running
its recovery plan through the same value step and score on their group
values, all of a chunk's trials as one stack, whatever sweep values the
chunk spans. The rule is held to
`identify` and `compare_graphs`, on random feeders (complete mode with
every bus or leaf-covering owners, and partial mode) and on every trial
of both bundled sweeps: a trial recovers the
truth only with the noise-free labelling, and with it exactly when the
stacked cut holds its values to the family check (exactly when the
trial's own labelling passes that check) and the stacked replay's line
rules pass, with the same MPE, lines, resistances and supports; and the
sweep's rows to a loop that runs the full path on every trial. Finite
estimates whose gaps, group means or lines overflow give the reference
loops' outcome without a numpy warning. Every trial's labelling that passes the family check reads
for recovery as its families read, bit for bit. The stacked draw, over a
stack that mixes sweep values, is held to one `sample_estimate` call per
trial with the trial's own plan bit for bit; the sweep's rows to
themselves at every chunk size, and each row to a sweep of its value
alone. The plan read off a labelling's owner hierarchy is held to the set
walk over its read level sets bit for bit, on every labelling of these
corpora, on odd row sets and on 300-bus feeders, and the hierarchy's
prefix rule to the pairwise pass on perturbed label matrices: the same
verdict and the same first message. The stacked cut, which decides a trial from its sorted values and
the noise-free groups' tops without labelling it, is held to every
trial labelled on its own, on stacks that mix kept and rejected trials: a
swap that keeps the gaps, exact ties, signed zeros, overflowing gaps and
random feeders. It is also held to the earlier cut in helpers.py, which
compared each group's maximum with the next group's minimum: the same
verdicts, held flags and group-value bytes on noisy, swapped, rounded and
noise-free stacks, in both modes.
"""

import importlib
import importlib.util
import json
import math
import operator
import os
import re
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprobe import (ConfigError, ExperimentConfig, GridProbeError,
                       InconsistentLevelSets, LabelMismatch, NoiseModel,
                       NonpositiveImpedance, ProbingPlan,
                       ProbingRecord, ResistanceEstimate, assemble_families,
                       build_feeder, cli, compare_graphs,
                       estimate_resistances, experiments, feeder, fileio,
                       grouping, group_column_exact, group_column_noisy,
                       group_estimate, identify, level_sets,
                       metered_level_sets, probing, reactance_matrix,
                       recover_full, recover_partial, recovery, reduce_grid,
                       resistance_matrix, run_experiment,
                       sample_estimate, simulate_probing)
from gridprobe.probing import _FACTOR_EXTRA_ROWS, _sampler, _scale

from helpers import (EIGHT_BUSES, STAR_BUSES, random_feeder, random_probing,
                     reference_assemble_families, reference_cut_trials,
                     reference_first_differences, reference_group_exact,
                     reference_group_estimate, reference_group_noisy,
                     reference_identify,
                     reference_load_record, reference_recover_full,
                     reference_recover_partial, reference_save_record,
                     reference_simulate_probing)

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA = os.path.join(ROOT, "src", "gridprobe", "data")


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


def test_group_value_is_the_left_fold_of_its_sorted_run():
    # One group of nine entries whose left-to-right sum from 0.0 differs
    # from numpy's pairwise sum and from the exactly rounded fsum.
    run = [0.1014, 0.1031, 0.1041, 0.1042, 0.1051, 0.1055, 0.1083, 0.1095,
           0.1095]
    fold = reduce(operator.add, run, 0.0)
    assert fold != float(np.sum(run)) and fold != math.fsum(run)
    entries = {9 - i: v for i, v in enumerate(run)}
    estimate = ResistanceEstimate(list(entries), [1],
                                  [[v] for v in entries.values()])
    for grouping in (group_column_noisy(entries, 1, 1.0, mode="partial"),
                     group_estimate(estimate, 1.0, "partial")[1]):
        assert grouping.sets == (frozenset(entries),)
        assert grouping.values == (fold / len(run),)


# A star: bus 1 under the substation, leaves 2-10 under bus 1. Leaf m's
# column reads STAR_U[m - 2] on every row but its own, which reads 1 more;
# bus 1's column reads STAR_HUB throughout.
STAR_LEAVES = tuple(range(2, 11))
STAR_U = (0.509, 0.5058, 0.5004, 0.5071, 0.5057, 0.5083, 0.5053, 0.5081,
          0.51)
STAR_HUB = 0.5035


def star_estimate(buses):
    cols = []
    for m in buses:
        u = STAR_HUB if m == 1 else STAR_U[m - 2]
        cols.append([u + 1.0 if n == m != 1 else u for n in buses])
    return ResistanceEstimate(buses, buses, np.array(cols).T)


def left_fold(values):
    """The left-to-right sum from 0.0, for values whose exactly rounded
    (and compensated) sum differs from it."""
    values = list(values)
    total = reduce(operator.add, values, 0.0)
    assert total != math.fsum(values)
    return total


def test_line_resistances_and_scores_are_left_folds():
    # Builtin sum compensates from Python 3.12 on; each of these three
    # sums must round as the left fold on every Python.
    complete = star_estimate((1,) + STAR_LEAVES)
    families = group_estimate(complete, 0.1, "complete")
    report = identify(complete, 0.1, "complete")
    steps = [families[m].value_at(1) - families[m].value_at(0)
             for m in sorted(families)]
    assert report.graph.line_r(0, 1) == left_fold(steps) / len(steps)

    partial = star_estimate(STAR_LEAVES)
    families = group_estimate(partial, 0.1, "partial")
    upstream = [f.value_at(1) for f in families.values()]
    assert identify(partial, 0.1, "partial").graph.root_upstream_r == \
        left_fold(upstream) / len(upstream)

    truth = build_feeder([(0, 1, 0.5, 0.1)] + [(1, m, 1.0 + 0.0137 * m, 0.1)
                                               for m in STAR_LEAVES])
    rel = [abs(r - truth.line_r(u, v)) / truth.line_r(u, v)
           for u, v, r, *_ in report.graph.edges]
    assert compare_graphs(report.graph, truth, truth.bus_order
                          ).resistance_mpe == 100.0 * left_fold(rel) / len(rel)


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


@pytest.mark.parametrize("bad", [(math.nan,), (math.inf,), (-math.inf,),
                                 (-1.7e308, 1.7e308)],
                         ids=["nan", "inf", "-inf", "overflow"])
@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_non_finite_family_values_match_reference(mode, bad):
    # NaN or an infinity in one group of one family, or two adjacent group
    # values whose step overflows: a line or the upstream resistance is
    # then not finite, or a line is nonpositive. Both walks must raise the
    # same error, message included, and the value step must not warn.
    rng = np.random.default_rng(65)
    recover, reference = ((recover_full, reference_recover_full)
                          if mode == "complete" else
                          (recover_partial, reference_recover_partial))
    seen = Counter()
    for _ in range(60):
        _, g = random_feeder(rng, max_buses=14)
        probing = random_probing(rng, g)
        families = {m: level_sets(g, m) if mode == "complete"
                    else metered_level_sets(g, m, probing) for m in probing}
        fits = [m for m in sorted(families)
                if len(families[m].values) >= len(bad)]
        if not fits:
            continue
        m = fits[int(rng.integers(len(fits)))]
        values = list(families[m].values)
        i = int(rng.integers(len(values) - len(bad) + 1))
        values[i:i + len(bad)] = bad
        families[m] = replace(families[m], values=tuple(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = recovery_outcome(recover, families)
            assert got == recovery_outcome(reference, families)
            assert error_message(recover, families) == \
                error_message(reference, families)
        seen[got[0] if isinstance(got[0], type) else "ok"] += 1
    assert seen and "ok" not in seen, seen


def error_message(fn, families):
    try:
        fn(families)
    except GridProbeError as exc:
        return str(exc)
    return None


def assemble_outcome(fn, groupings, value_tol):
    try:
        fams = fn(groupings, value_tol=value_tol)
    except Exception as exc:  # noqa: BLE001 - any class must match
        return type(exc), str(exc)
    return [(m, f.sets, f.values, f.probing) for m, f in fams.items()]


def crowd_anchor(families, rng):
    """Move two owners of depth k into the depth-k group of the smallest
    owner's family, so one depth-k group holds two depth-k owners."""
    m = min(families)
    fam = families[m]
    depth = {s: f.depth for s, f in families.items()}
    ks = [k for k in fam.depths
          if sum(1 for s in families if s != m and depth[s] == k) >= 2]
    if not ks:
        return families
    k = ks[int(rng.integers(len(ks)))]
    movers = [s for s in sorted(families) if s != m and depth[s] == k]
    movers = set(rng.permutation(movers)[:2].tolist())
    sets = [s - movers for s in fam.sets]
    sets[k - fam.start_depth] |= movers
    out = dict(families)
    out[m] = replace(fam, sets=tuple(sets))
    return out


def tamper(families, rng):
    """Copy a bus into a second group, lose a bus, or swap two values."""
    m = sorted(families)[int(rng.integers(len(families)))]
    fam = families[m]
    sets, values = list(fam.sets), list(fam.values)
    i = int(rng.integers(len(sets)))
    kind = rng.choice(["copy", "lose", "swap"])
    if kind == "swap" and len(values) > 1:
        j = (i + 1) % len(values)
        values[i], values[j] = values[j], values[i]
    elif kind == "lose" and len(sets[i]) > 1:
        sets[i] = sets[i] - {min(sets[i])}
    else:
        b = sorted(sets[i])[int(rng.integers(len(sets[i])))]
        j = (i + 1) % len(sets)
        sets[j] = sets[j] | {b}
    out = dict(families)
    out[m] = replace(fam, sets=tuple(sets), values=tuple(values))
    return out


def random_groupings(rng, g, mode, noisy):
    """Grouped columns of g: every bus (complete) or a probed subset
    (partial), exact or with Gaussian noise of r_min/6 or r_min/3."""
    r_min = min(r for _, _, r, _ in g.edges)
    rmat = resistance_matrix(g)
    owners = (g.bus_order if mode == "complete"
              else sorted(random_probing(rng, g)))
    rows = g.bus_order if mode == "complete" else owners
    sigma = r_min * float(rng.choice([1 / 6, 1 / 3])) if noisy else 0.0
    out = {}
    for m in owners:
        col = {n: rmat.entry(n, m) + (float(rng.normal(0.0, sigma))
                                      if noisy else 0.0) for n in rows}
        if noisy:
            out[m] = group_column_noisy(col, m, r_min, mode=mode)
        else:
            out[m] = group_column_exact(col, m, mode=mode)
    return out, r_min


REASONS = ("no groupings", "duplicate", "mixed", "two groups",
           "does not cover", "not increasing", "deepest group",
           "shallowest group", "several depth", "exactly one", "split depth",
           "split value", "above depth")


def reason(outcome):
    if isinstance(outcome, list):
        return "ok"
    return next(r for r in REASONS if r in outcome[1])


def test_family_check_matches_reference_scans():
    rng = np.random.default_rng(64)
    seen = Counter()
    for _ in range(150):
        _, g = random_feeder(rng, max_buses=20)
        for mode in ("complete", "partial"):
            for noisy in (False, True):
                fams, r_min = random_groupings(rng, g, mode, noisy)
                tols = (r_min / 2, 1e-9) if noisy else (1e-9,)
                variants = (fams, corrupt(fams, rng),
                            corrupt(corrupt(fams, rng), rng),
                            tamper(fams, rng), crowd_anchor(fams, rng))
                for variant in variants:
                    gl = list(variant.values())
                    for tol in tols:
                        got = assemble_outcome(assemble_families, gl, tol)
                        assert got == assemble_outcome(
                            reference_assemble_families, gl, tol)
                        seen[reason(got)] += 1
    assert seen["ok"] > 500, seen
    for r in ("two groups", "does not cover", "not increasing",
              "several depth", "split depth", "split value", "above depth"):
        assert seen[r] > 10, seen
    assert seen["exactly one"] > 0, seen


def test_family_check_errors_match_reference():
    tree = build_feeder([(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0),
                         (1, 3, 3.0, 1.0)])
    full = [level_sets(tree, m) for m in (1, 2, 3)]
    metered = [metered_level_sets(tree, m, {2, 3}) for m in (2, 3)]
    cases = [[], full + full[:1], full[:2] + metered[:1], full, metered,
             [replace(full[1], values=(0.0, 1.0, 1.0))],
             [replace(full[1], sets=(frozenset({1}), frozenset({0, 3}),
                                     frozenset({2})))]]
    for gl in cases:
        for tol in (1e-9, 0.5):
            assert assemble_outcome(assemble_families, gl, tol) == \
                assemble_outcome(reference_assemble_families, gl, tol)


# -- record reader ------------------------------------------------------------

READER = settings(max_examples=300, deadline=None, database=None)

# Finite doubles at the edges of the format: signed zero, the smallest
# subnormal, the normal/subnormal boundary, the largest double, and
# 17-digit values whose last digit matters.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.30000000000000004,
               1.0000000000000002, 9007199254740993.0, 1e-300, 1e300]
# Spellings that parse to a finite double: underflow to zero or to the
# smallest subnormal, rounding to the largest double, signs, case, spaces.
EDGE_TOKENS = ["1e-400", "-1e-400", "2.4703282292062328e-324",
               "2.4703282292062327e-324", "1.7976931348623158e308",
               "+1.5", ".5", "5.", "1E+05", "0000.100", " 1.0 ",
               "\t-2e-7\t", "1.00000000000000000000000000001"]
FORMATS = [repr, "{:.17g}".format, "{:.17e}".format, "{:.17G}".format,
           "{:+.3e}".format, "{:.1f}".format]

finite_cells = (
    st.builds(lambda v, fmt: fmt(v),
              st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(EDGE_FLOATS),
              st.sampled_from(FORMATS)).filter(lambda t: math.isfinite(float(t)))
    | st.sampled_from(EDGE_TOKENS))

# Lines the loop skips or rejects, and cells the loop accepts and
# np.loadtxt does not (1_0, Arabic-Indic digits), or neither accepts.
JUNK_LINES = ["", "   ", "\t", "\x0c", "\x1c", "\u2003", "#", "# note",
              "1,2,3,4,5,6,7", ","]
JUNK_CELLS = ["1_0", "\u0661", "\u0661.\u0665", "", " ", "nan", "NaN",
              "inf", "-inf", "Infinity", "1e400", "-1e400", "#", "#1",
              "0x10", "1d5", "1 2", "\u20031", "1\x00", "1\r2", "\ufeff1"]


def record_header(rows, cols, seed):
    return json.dumps({
        "kind": "probing-record", "mode": "complete",
        "row_nodes": list(range(1, rows + 1)), "buses": [1],
        "delta": [0.1], "periods": [cols], "matrix": None, "seed": seed})


@st.composite
def valid_records(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.lists(finite_cells, min_size=cols,
                                   max_size=cols),
                          min_size=rows, max_size=rows))
    seed = draw(st.none() | st.integers(0, 2**70))
    return [record_header(rows, cols, seed)] + [",".join(r) for r in cells]


def perturb(draw, lines):
    """One edit to a valid record's lines (the header is line 0)."""
    lines = list(lines)
    kinds = ["line", "crlf"]
    if len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        kinds += ["cell", "trailing", "ragged", "empty"]
    kind = draw(st.sampled_from(kinds))
    if kind == "line":
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(JUNK_LINES)))
    elif kind == "cell":
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(JUNK_CELLS))
        lines[row] = ",".join(cells)
    elif kind == "trailing":
        lines[row] += ","
    elif kind == "ragged":
        cells = lines[row].split(",")
        lines[row] = ",".join(cells[:-1] if len(cells) > 1 else cells * 2)
    elif kind == "empty":
        lines = lines[:1]
    else:
        lines = [line + "\r" for line in lines]
    return lines


@st.composite
def perturbed_records(draw):
    lines = draw(valid_records())
    for _ in range(draw(st.integers(1, 3))):
        lines = perturb(draw, lines)
    return lines


def read_both(lines, newline="\n"):
    """Write the lines as one file; both readers' records or errors.

    Warnings are errors here: np.loadtxt warns on an empty block, and
    that warning must not escape the reader.
    """
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "probe.rec")
        with open(path, "wb") as fh:
            fh.write(newline.join(lines).encode("utf-8") + b"\n")
        outcomes = []
        for reader in (fileio.load_record, reference_load_record):
            try:
                outcomes.append(reader(path))
            except GridProbeError as exc:
                outcomes.append((type(exc), str(exc)))
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            fast = fileio._parse_block(fh)
    return outcomes, fast


def assert_same_outcome(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()  # -0.0 too
    assert (got.mode, got.row_nodes, got.seed) == \
        (want.mode, want.row_nodes, want.seed)
    assert (got.plan.buses, got.plan.delta, got.plan.periods) == \
        (want.plan.buses, want.plan.delta, want.plan.periods)
    assert got.plan.matrix is None and want.plan.matrix is None


@READER
@given(valid_records())
def test_record_reader_matches_reference_on_valid_files(lines):
    (got, want), fast = read_both(lines)
    assert not isinstance(want, tuple), want
    assert fast is not None  # the one-call parse read it, not the loop
    assert_same_outcome(got, want)


@READER
@given(perturbed_records())
def test_record_reader_matches_reference_on_perturbed_files(lines):
    (got, want), _ = read_both(lines)
    assert_same_outcome(got, want)


@pytest.mark.parametrize("edit", [
    "", "   ", "\t", "\x0c", "# note", "1_0,2", "\u0661,2", ",2", "1,2,",
    "1", "1,2,3", "nan,2", "1,inf", "1e400,2", "1,-1e400"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_record_reader_matches_reference_on_listed_edits(edit, newline):
    lines = [record_header(2, 2, 7), "0.5,-0.0", "5e-324,1.7976931348623157e308"]
    for at in (1, 2, 3):
        outcomes, _ = read_both(lines[:at] + [edit] + lines[at:], newline)
        assert_same_outcome(*outcomes)


@pytest.mark.parametrize("data", [[], [""], ["", "  "], ["\x0c"]])
def test_record_reader_matches_reference_on_empty_blocks(data):
    (got, want), fast = read_both([record_header(1, 1, None)] + data)
    assert fast is None
    assert isinstance(want, tuple)
    assert_same_outcome(got, want)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                         | st.sampled_from(EDGE_FLOATS),
                         min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_record_writer_matches_reference_bytes(rows):
    values = np.array(rows, dtype=float)
    plan = ProbingPlan.blocks([1], [0.1], values.shape[1])
    record = ProbingRecord(mode="complete",
                           row_nodes=tuple(range(1, len(rows) + 1)),
                           values=values, plan=plan, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "a.rec"), os.path.join(tmp, "b.rec")
        fileio.save_record(record, got)
        reference_save_record(record, want)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


# -- simulator ----------------------------------------------------------------


def random_plans(rng, g):
    """A block plan and a general plan over a random probing set."""
    buses = sorted(random_probing(rng, g))
    delta = [float(d) for d in rng.uniform(0.05, 1.0, len(buses))]
    periods = [int(t) for t in rng.integers(1, 5, len(buses))]
    matrix = rng.normal(size=(len(buses), len(buses) + 2))
    return (ProbingPlan.blocks(buses, delta, periods),
            ProbingPlan.general(buses, matrix))


def assert_same_record(got, want):
    assert (got.mode, got.row_nodes, got.seed, got.plan) == \
        (want.mode, want.row_nodes, want.seed, want.plan)
    assert got.values.tobytes() == want.values.tobytes()


def record_path(simulate):
    """The estimate of a simulated record, as a function of the
    simulator's arguments."""
    def draw(*args, **kwargs):
        return estimate_resistances(simulate(*args, **kwargs))
    return draw


def test_noise_free_records_match_reference_bitwise():
    rng = np.random.default_rng(71)
    for _ in range(200):
        _, g = random_feeder(rng, max_buses=20)
        for plan in random_plans(rng, g):
            for mode in ("complete", "partial"):
                # A seeded silent model carries its seed into the record.
                for noise in (NoiseModel(), NoiseModel(seed=4)):
                    assert_same_record(
                        simulate_probing(g, plan, noise, mode=mode),
                        reference_simulate_probing(g, plan, noise,
                                                   mode=mode))
                if plan.is_block:
                    got = sample_estimate(g, plan, NoiseModel(), mode=mode)
                    want = record_path(simulate_probing)(
                        g, plan, NoiseModel(), mode=mode)
                    assert (got.row_nodes, got.col_nodes) == \
                        (want.row_nodes, want.col_nodes)
                    np.testing.assert_allclose(got.values, want.values,
                                               rtol=1e-12, atol=0.0)
        every = ProbingPlan.blocks(g.bus_order, [0.1] * len(g.bus_order), 2)
        assert_same_record(simulate_probing(g, every, NoiseModel()),
                           reference_simulate_probing(g, every, NoiseModel()))


# Only the pure copy in helpers.py still warns as its noise overflows.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulator_errors_match_reference():
    # Lines without reactance: sigma_q > 0 needs the reactance matrix even
    # when every bus probes and no injection noise is drawn.
    g = build_feeder([(0, 1, 0.1), (1, 2, 0.2), (1, 3, 0.3)])
    cases = [(ProbingPlan.blocks([2, 3], [0.1, 0.1], 2),
              NoiseModel(sigma_q=1e-3), "complete"),
             (ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2),
              NoiseModel(sigma_q=1e-3), "complete"),
             (ProbingPlan.blocks([2, 3], [0.1, 0.1], 2),
              NoiseModel(sigma_q=1e-3), "partial"),
             (ProbingPlan.blocks([2, 9], [0.1, 0.1], 2),
              NoiseModel(), "complete"),
             (ProbingPlan.blocks([2, 3], [0.1, 0.1], 2),
              NoiseModel(), "metered"),
             # Meter noise this large overflows: a record of 150 periods
             # holds an infinite value, and so does a window sum divided
             # by 0.001·√50, for all but a vanishing share of seeds.
             (ProbingPlan.blocks([1, 2, 3], [1e-3] * 3, 50),
              NoiseModel(sigma_w=1e308, seed=0), "complete")]
    for plan, noise, mode in cases:
        outcomes = []
        for simulate in (simulate_probing, reference_simulate_probing,
                         sample_estimate):
            with pytest.raises(GridProbeError) as err:
                simulate(g, plan, noise, mode=mode)
            outcomes.append((type(err.value), str(err.value)))
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_complete_probing_draws_meter_noise_only():
    rng = np.random.default_rng(72)
    for _ in range(50):
        _, g = random_feeder(rng, max_buses=20)
        order = g.bus_order
        plan = ProbingPlan.blocks(order, [0.1] * len(order),
                                  int(rng.integers(1, 6)))
        seed = int(rng.integers(2**32))
        full = simulate_probing(g, plan,
                                NoiseModel(sigma_p=1e-3, sigma_q=2e-3,
                                           sigma_w=1e-4),
                                rng=np.random.default_rng(seed))
        meter = simulate_probing(g, plan, NoiseModel(sigma_w=1e-4),
                                 rng=np.random.default_rng(seed))
        assert_same_record(full, meter)


def estimate_moments(draw, g, plan, noise, mode, seed, trials):
    """Per-entry mean and variance of the drawn estimates, and each
    column's covariance across rows (column x row x row)."""
    rng = np.random.default_rng(seed)
    est = np.array([draw(g, plan, noise, mode=mode, rng=rng).values
                    for _ in range(trials)])
    dev = est - est.mean(axis=0)
    cov = np.einsum("tij,tkj->jik", dev, dev) / (trials - 1)
    return est.mean(axis=0), est.var(axis=0, ddof=1), cov


def covariance_variance(cov, trials):
    """Variance of each Gaussian sample covariance s_ik of `trials` draws:
    (s_ii s_kk + s_ik^2) / (trials - 1)."""
    d = np.diagonal(cov, axis1=1, axis2=2)
    return (d[:, :, None] * d[:, None, :] + cov ** 2) / (trials - 1)


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_noisy_estimates_match_reference_in_distribution(mode):
    # Eight buses, four probing: injection noise from the four others
    # reaches every reported row. The three noise sources are of one
    # size, so dropping or misrouting any one of them moves the variance
    # of some entry by far more than the band allows. Without meter noise
    # and with one free bus, every row's noise comes from that bus alone:
    # the draw's factor has two columns, fewer than the rows.
    g = build_feeder(EIGHT_BUSES)
    cases = ((ProbingPlan.blocks([3, 5, 7, 8], [0.1, 0.2, 0.1, 0.3],
                                 [2, 3, 2, 4]),
              NoiseModel(sigma_p=0.01, sigma_q=0.01, sigma_w=0.005),
              (73, 74, 76)),
             (ProbingPlan.blocks([1, 2, 3, 5, 6, 7, 8],
                                 [0.1, 0.2, 0.1, 0.3, 0.2, 0.1, 0.3],
                                 [2, 3, 2, 4, 3, 1, 2]),
              NoiseModel(sigma_p=0.01, sigma_q=0.01), (77, 78, 79)))
    trials = 4000
    for plan, noise, (seed, *seeds) in cases:
        mean, var, cov = estimate_moments(record_path(simulate_probing), g,
                                          plan, noise, mode, seed, trials)
        # The earlier simulator's records, and estimates drawn from window
        # sums, are each held to the records of the current simulator.
        for draw, ref_seed in zip((record_path(reference_simulate_probing),
                                   sample_estimate), seeds):
            ref_mean, ref_var, ref_cov = estimate_moments(
                draw, g, plan, noise, mode, ref_seed, trials)
            # Five standard errors of the difference of two independent
            # sample means, and of two sample variances (Gaussian entries).
            assert np.all(np.abs(mean - ref_mean)
                          <= 5 * np.sqrt((var + ref_var) / trials))
            assert np.all(np.abs(var - ref_var)
                          <= 5 * np.sqrt(2 / (trials - 1))
                          * np.hypot(var, ref_var))
            # Rows share injection noise but not meter noise, so a
            # column's covariance across rows tells the two apart; same
            # band.
            assert np.all(np.abs(cov - ref_cov)
                          <= 5 * np.sqrt(covariance_variance(cov, trials)
                                         + covariance_variance(ref_cov,
                                                               trials)))


# -- identification pipeline --------------------------------------------------


def identify_outcome(fn, estimate, r_min, mode):
    """Mode, probing set, lines and supports of the report, plus the root,
    internal buses and upstream r of a reduced grid; or error and message."""
    try:
        rep = fn(estimate, r_min, mode)
    except GridProbeError as exc:
        return type(exc), str(exc)
    grid = rep.graph
    extra = ()
    if rep.mode == "partial":
        extra = (grid.root, grid.internal, grid.root_upstream_r)
    return (rep.mode, rep.probing, grid.edges,
            tuple(rep.line_support.items())) + extra


def public_chain(estimate, r_min, mode):
    """The public stages `identify` gives the result of: group_estimate,
    then the mode's recovery."""
    families = group_estimate(estimate, r_min, mode)
    return (recover_full if mode == "complete" else recover_partial)(families)


def hexed(value):
    """A value with every float in it, through nested tuples, as
    float.hex."""
    if type(value) is float:
        return value.hex()
    if type(value) is tuple:
        return tuple(map(hexed, value))
    return value


def report_bits(fn, estimate, r_min, mode):
    """Every field of the report, with the grid's type and root, and every
    float (line values, upstream r) as float.hex; or error and message."""
    try:
        rep = fn(estimate, r_min, mode)
    except GridProbeError as exc:
        return type(exc), str(exc)
    grid = rep.graph
    extra = ()
    if rep.mode == "partial":
        extra = (grid.probing, grid.internal, grid.root_upstream_r)
    return hexed((rep.mode, rep.probing, tuple(rep.line_support.items()),
                  type(grid), grid.root, grid.edges) + extra)


def assert_identify_matches(estimate, r_min, mode, seen):
    got = identify_outcome(identify, estimate, r_min, mode)
    assert got == identify_outcome(reference_identify, estimate, r_min, mode)
    assert report_bits(identify, estimate, r_min, mode) == report_bits(
        public_chain, estimate, r_min, mode)
    seen[got[0].__name__ if isinstance(got[0], type) else "ok"] += 1


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
def test_identify_matches_reference_on_bundled_trials(name):
    cfg = ExperimentConfig.from_dict(
        fileio.load_config(os.path.join(DATA, name)), base_dir=DATA)
    g = fileio.load_feeder(cfg.feeder_path)
    buses = cfg.probing_buses(g)
    delta = cfg.delta_map(buses)
    seen = Counter()
    for periods in cfg.periods:
        plan = ProbingPlan.blocks(buses, delta, periods)
        for trial in range(6):
            rng = np.random.default_rng((cfg.seed, periods, trial))
            record = simulate_probing(g, plan, cfg.noise, mode=cfg.mode,
                                      rng=rng)
            assert_identify_matches(estimate_resistances(record), cfg.r_min,
                                    cfg.mode, seen)
    assert seen["ok"] >= 6 and len(seen) > 1, seen


def test_identify_matches_reference_on_noiseless_records():
    rng = np.random.default_rng(65)
    seen = Counter()
    for _ in range(60):
        _, g = random_feeder(rng, max_buses=20)
        for mode in ("complete", "partial"):
            buses = (g.bus_order if mode == "complete"
                     else sorted(random_probing(rng, g)))
            plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 2)
            record = simulate_probing(g, plan, NoiseModel(), mode=mode,
                                      rng=rng)
            assert_identify_matches(estimate_resistances(record), None, mode,
                                    seen)
    assert seen["ok"] > 60, seen


def family_outcome(fn, *args, **kwargs):
    """Owners in order, with each family's sets, values (bit patterns),
    sorted entries, threshold and probing set; or error and message."""
    try:
        fams = fn(*args, **kwargs)
    except GridProbeError as exc:
        return type(exc), str(exc)
    return [(m, f.owner, f.start_depth, f.metered, f.sets,
             tuple(v.hex() for v in f.values),
             tuple((n, v.hex()) for n, v in f.sorted_entries),
             f.threshold, f.probing) for m, f in fams.items()]


def assert_families_match(estimate, r_min, mode, seen, rng):
    got = family_outcome(group_estimate, estimate, r_min, mode)
    assert got == family_outcome(reference_group_estimate, estimate, r_min,
                                 mode)
    if isinstance(got[0], type):
        seen["trial " + reason((got[0], got[1]))] += 1
        return
    seen["trial ok"] += 1
    # The adapter over the same family check, on the accepted families and
    # on broken copies of them.
    fams = group_estimate(estimate, r_min, mode)
    tol = 1e-9 if r_min is None else r_min / 2
    for variant in (fams, corrupt(fams, rng), tamper(fams, rng),
                    crowd_anchor(fams, rng)):
        gl = list(variant.values())
        out = assemble_outcome(assemble_families, gl, tol)
        assert out == assemble_outcome(reference_assemble_families, gl, tol)
        seen[reason(out)] += 1


def assert_coverage(seen, trials):
    rejected = sum(n for r, n in seen.items()
                   if r.startswith("trial ") and r != "trial ok")
    assert seen["trial ok"] > trials and rejected > 50, seen
    for r in ("two groups", "does not cover", "not increasing",
              "split depth", "split value", "above depth"):
        assert seen[r] > 0, seen


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
def test_group_estimate_matches_reference_on_bundled_sweeps(name):
    # 50 simulated records at every T of the bundled configs, for two seeds.
    cfg = ExperimentConfig.from_dict(
        fileio.load_config(os.path.join(DATA, name)), base_dir=DATA)
    g = fileio.load_feeder(cfg.feeder_path)
    buses = cfg.probing_buses(g)
    delta = cfg.delta_map(buses)
    rng = np.random.default_rng(66)
    seen = Counter()
    for seed in (0, 1):
        for periods in cfg.periods:
            plan = ProbingPlan.blocks(buses, delta, periods)
            for trial in range(50):
                record = simulate_probing(
                    g, plan, cfg.noise, mode=cfg.mode,
                    rng=np.random.default_rng((seed, periods, trial)))
                assert_families_match(estimate_resistances(record),
                                      cfg.r_min, cfg.mode, seen, rng)
    assert_coverage(seen, trials=250)


def shuffled(estimate, rng):
    """The same estimate with its rows in a random order."""
    perm = rng.permutation(len(estimate.row_nodes))
    return ResistanceEstimate(
        row_nodes=tuple(estimate.row_nodes[i] for i in perm),
        col_nodes=estimate.col_nodes, values=estimate.values[perm])


def test_group_estimate_matches_reference_on_noiseless_and_shuffled_rows():
    # Noiseless columns are full of ties, which the bus ID breaks whatever
    # order the rows come in.
    rng = np.random.default_rng(67)
    seen = Counter()
    for _ in range(60):
        _, g = random_feeder(rng, max_buses=20)
        for mode in ("complete", "partial"):
            buses = (g.bus_order if mode == "complete"
                     else sorted(random_probing(rng, g)))
            plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 2)
            r_min = min(r for _, _, r, _ in g.edges)
            clean = estimate_resistances(simulate_probing(
                g, plan, NoiseModel(), mode=mode, rng=rng))
            noisy = estimate_resistances(simulate_probing(
                g, plan, NoiseModel(sigma_w=0.02 * r_min), mode=mode,
                rng=rng))
            for est in (clean, shuffled(clean, rng)):
                assert_families_match(est, None, mode, seen, rng)
            for est in (noisy, shuffled(noisy, rng)):
                assert_families_match(est, r_min, mode, seen, rng)
                assert_families_match(est, None, mode, seen, rng)
    assert_coverage(seen, trials=300)


def per_column_chain(estimate, r_min, mode):
    """Group each column with the per-column functions, then check the
    families with assemble_families, as `identify` did before."""
    if r_min is None:
        groupings = [group_column_exact(estimate.column(m), m, mode=mode)
                     for m in estimate.col_nodes]
        return assemble_families(groupings, value_tol=1e-9)
    groupings = [group_column_noisy(estimate.column(m), m, r_min, mode=mode)
                 for m in estimate.col_nodes]
    return assemble_families(groupings, value_tol=r_min / 2)


def test_group_estimate_errors_match_reference():
    est = estimate_resistances(simulate_probing(
        build_feeder(Y_EDGES), ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2),
        NoiseModel()))
    nan = est.values.copy()
    nan[2, 1] = math.nan
    cases = [
        (est, 0.5, "bogus"), (est, "a", "complete"), (est, -1.0, "partial"),
        # an owner without its own row, in the second column
        (ResistanceEstimate((1, 2, 3), (1, 4), est.values[:, :2]), None,
         "complete"),
        (ResistanceEstimate((1, 2, 3), (1, 2, 3), nan), 0.5, "complete"),
        (ResistanceEstimate((0, 1, 2), (1, 2), est.values[:, :2]), None,
         "complete"),
        (ResistanceEstimate((3, 1, 2), (2, 1), est.values[:, :2]), None,
         "partial"),
        (est, 100.0, "complete"), (est, None, "partial"),
    ]
    for estimate, r_min, mode in cases:
        got = family_outcome(group_estimate, estimate, r_min, mode)
        assert got == family_outcome(per_column_chain, estimate, r_min, mode)
        # The pure copies predate the finiteness check.
        if np.isfinite(estimate.values).all():
            assert got == family_outcome(reference_group_estimate, estimate,
                                         r_min, mode), (r_min, mode)


@st.composite
def small_estimates(draw):
    """Small estimates full of ties, with negative values and -0.0, rows
    and columns in any order, each owner mostly at the top of its own
    column; sometimes a NaN, a column owner without a row, or a
    substation row."""
    buses = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6,
                          unique=True))
    owners = draw(st.lists(st.sampled_from(buses), min_size=1,
                           max_size=len(buses), unique=True))
    if draw(st.integers(0, 7)) == 0:
        buses.append(0)
    if draw(st.integers(0, 7)) == 0:
        owners.append(7)
    rows = draw(st.permutations(buses))
    level = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0])
    values = np.array(draw(st.lists(
        st.lists(level, min_size=len(owners), max_size=len(owners)),
        min_size=len(rows), max_size=len(rows))))
    for j, m in enumerate(owners):
        if m in rows and draw(st.integers(0, 7)) > 0:
            values[rows.index(m), j] = 2.5
    if draw(st.integers(0, 7)) == 0:
        values[draw(st.integers(0, len(rows) - 1)),
               draw(st.integers(0, len(owners) - 1))] = math.nan
    return ResistanceEstimate(tuple(rows), tuple(owners), values)


@settings(max_examples=400, deadline=None, database=None)
@given(small_estimates(), st.sampled_from([None, 0.3, 1.0]),
       st.sampled_from(["complete", "partial"]))
def test_group_estimate_matches_per_column_chain_on_small_estimates(
        estimate, r_min, mode):
    got = family_outcome(group_estimate, estimate, r_min, mode)
    assert got == family_outcome(per_column_chain, estimate, r_min, mode)
    if np.isfinite(estimate.values).all():
        assert got == family_outcome(reference_group_estimate, estimate,
                                     r_min, mode)
    # `identify` skips the groupings, not a check or a recovery error.
    assert report_bits(identify, estimate, r_min, mode) == report_bits(
        public_chain, estimate, r_min, mode)


Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def test_identify_matches_reference_when_a_stage_fails():
    g = build_feeder(Y_EDGES)
    plan = ProbingPlan.blocks([1, 2, 3], [0.1, 0.1, 0.1], 3)
    record = simulate_probing(g, plan, NoiseModel(sigma_w=1e-4),
                              rng=np.random.default_rng(7))
    estimate = estimate_resistances(record)
    seen = Counter()
    # Exact grouping of noisy data, a cut wider than every line, a
    # non-number threshold, and an unknown mode.
    for r_min, mode in ((None, "complete"), (100.0, "complete"),
                        ("a", "complete"), (0.5, "bogus")):
        assert_identify_matches(estimate, r_min, mode, seen)
    assert "ok" not in seen and len(seen) >= 2, seen


def write_y_config(tmp_path):
    (tmp_path / "y.csv").write_text("from,to,r_pu,x_pu\n0,1,1.0,1.0\n"
                                    "1,2,2.0,1.0\n1,3,3.0,1.0\n")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(json.dumps({
        "feeder": "y.csv", "mode": "complete", "probing": "all-buses",
        "periods": [3], "r_min": 0.5, "trials": 2, "seed": 11,
        "noise": {"sigma_p": 1e-4, "sigma_q": 1e-4, "sigma_w": 1e-4},
        "delta": {"policy": "fixed", "value_pu": 0.1}}))
    return cfg


# The public stages `identify` gives the result of, each wrapped where it
# is defined and wherever the package imports it under its own name.
CHAIN = ("group_estimate", "group_column_noisy", "assemble_families",
         "recover_full", "recover_partial")
CORE = ("_label", "_identify", "_learn", "_planned", "_report")
# The set walk over read level sets, which only `recover_full`,
# `recover_partial` and a labelling whose owner hierarchy does not hold
# reach, each wrapped where it is defined.
SET_WALK = ("_read", "_walk", "_plan", "_recover")


def test_cli_and_sweep_call_one_grouping_stage(tmp_path, monkeypatch):
    # The `recover` command cuts with `_label`, the sweep labels its exact
    # block with `_Labelling.of` directly; both then run the family check
    # and read the recovery plan off the labelling's owner hierarchy. No
    # grouping object is built, no public recovery is called and no level
    # set is read.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in CORE:
        monkeypatch.setattr(experiments, name,
                            counted(name, getattr(experiments, name)))
    for name in SET_WALK:
        monkeypatch.setattr(recovery, name,
                            counted(name, getattr(recovery, name)))
    monkeypatch.setattr(grouping._Labelling, "of", classmethod(counted(
        "_Labelling.of", grouping._Labelling.of.__func__)))
    monkeypatch.setattr(grouping._Labelling, "read", counted(
        "_Labelling.read", grouping._Labelling.read))
    for module in (experiments, cli, grouping, recovery):
        for name in CHAIN:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    cfg = write_y_config(tmp_path)
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    assert cli.main(["recover", str(rec), "--r-min", "0.5",
                     "--out", str(tmp_path / "rep")]) == 0
    assert calls == {"_label": 1, "_Labelling.of": 1, "_identify": 1,
                     "_planned": 1, "_report": 1}
    calls.clear()
    run_experiment(ExperimentConfig.from_dict(
        fileio.load_config(cfg), base_dir=str(tmp_path)))
    # The sweep never calls `identify` or builds a recovered grid: it
    # labels the noise-free block once, learns its recovery plan and only
    # replays that plan.
    assert calls == {"_Labelling.of": 1, "_learn": 1, "_planned": 1}


def graph_replay(labelling, truth):
    """The replay as the sweep learnt it before it matched plans:
    `_identify`'s check and recovery, then `compare_graphs`' node map and
    the truth's line resistances, in the recovered graph's line order.
    None where `compare_graphs` finds no node map."""
    plan, report = experiments._identify(labelling)
    graph = report.graph
    node = compare_graphs(graph, truth, labelling.owners).node_map
    if node is None:
        return None
    row = {line: i for i, line in enumerate(plan.lines)}
    order = [row[u, v] for u, v, *_ in graph.edges]
    refs = [truth.line_r(node[u], node[v]) for u, v, *_ in graph.edges]
    return recovery._Replay(plan, np.array(order, dtype=np.intp),
                            np.array(refs), not labelling.complete)


def assert_same_arrays(pairs):
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def assert_same_plan(got, want):
    """Two recovery plans hold the same root, junctions and lines and the
    same entry arrays, bit for bit."""
    assert (got.root, got.internal, got.lines) == (
        want.root, want.internal, want.lines)
    assert_same_arrays((getattr(got, key), getattr(want, key))
                       for key in ("members", "line", "step"))


def assert_same_replay(got, want):
    """Two replays hold the same plan, order and resistances, bit for
    bit."""
    assert got.metered == want.metered
    assert_same_plan(got.plan, want.plan)
    assert_same_arrays([(got.order, want.order), (got.refs, want.refs)])


def set_walk_plan(labelling):
    """The plan the set walk wires on a labelling's read level sets,
    before any value rule, or the class of the error it raises."""
    metered = not labelling.complete
    wired = ([], [], [])
    try:
        root, internal = recovery._walk(labelling.read()[0], metered, *wired)
    except GridProbeError as exc:
        return type(exc)
    return recovery._wired(root, internal, *wired, metered)


def check_hierarchy_walk(labelling):
    """Hold the plan read off a labelling's owner hierarchy to the set
    walk's: where it reads one, the set walk wires the same plan, bit for
    bit; where it reads none and the family check passes, the set walk
    raises. Returns whether it read a plan."""
    got = recovery._hierarchy_walk(labelling)
    want = set_walk_plan(labelling)
    if got is not None:
        assert isinstance(want, recovery.RecoveryPlan), want
        assert_same_plan(got, want)
        return True
    try:
        labelling.check()
    except GridProbeError:
        return False
    assert not isinstance(want, recovery.RecoveryPlan), \
        "the set walk recovers a checked labelling the hierarchy does not"
    return False


def learn_outcome(labelling, truth):
    """Hold `_learn` on any labelling to the path it replaced: where
    `_identify` raises, the same class and message; where `compare_graphs`
    finds no node map, LabelMismatch; else the replay that node map gives,
    bit for bit. Returns the outcome's name. The plan read off the
    labelling's owner hierarchy is held to the set walk's
    (`check_hierarchy_walk`)."""
    check_hierarchy_walk(labelling)
    try:
        want = graph_replay(labelling, truth)
    except GridProbeError as exc:
        with pytest.raises(GridProbeError) as got:
            experiments._learn(labelling, truth)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return type(exc).__name__
    if want is None:
        with pytest.raises(LabelMismatch):
            experiments._learn(labelling, truth)
        return "no node map"
    assert_same_replay(experiments._learn(labelling, truth), want)
    return "replay"


def assert_same_labelling(got, want):
    """Two labellings hold the same owners, buses, mode and threshold and
    the same cut arrays, bit for bit."""
    assert (got.owners, got.complete, got.threshold) == (
        want.owners, want.complete, want.threshold)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def noise_free(g, plan, mode, truth):
    """A plan's noise-free labelling and the replay the sweep learns
    from it. The sweep labels the exact block, which must be the
    noise-free draw's labelling bit for bit, and learns its replay without
    a recovered grid, which must be what `_recover` and `compare_graphs`
    give. It reads the cut's own level sets and group values; reading the
    labelling's families through recovery's boundary, as `identify` does,
    must give the same plan and the same recovered lines, bit for bit.
    The plan is the one read off the labelling's owner hierarchy."""
    exact = grouping._label(sample_estimate(g, plan, NoiseModel(), mode),
                            None, mode)
    block, rows, *_ = probing._exact(g, plan, mode)
    assert_same_labelling(
        grouping._Labelling.of(plan.buses, rows, block, mode, None), exact)
    replay = experiments._learn(exact, truth)
    assert_same_replay(replay, graph_replay(exact, truth))
    # The plan is read off the owner hierarchy, and the set walk over the
    # labelling's families wires it bit for bit.
    assert check_hierarchy_walk(exact)
    metered = not exact.complete
    read, report = recovery._recover(
        *recovery._read(exact.families(), metered), metered)
    assert_same_plan(read, replay.plan)
    # The lines of the report `_learn` got, in its graph's order.
    (values,), _ = recovery._line_values(replay.plan, exact.values[None])
    assert [(u, v, r.hex()) for u, v, r, *_ in report.graph.edges] == [
        (*replay.plan.lines[i], float(values[i]).hex())
        for i in replay.order]
    return exact, replay


def check_read(labelling):
    """A labelling that passes the family check reads, for recovery, as
    its families read: the same owners in the same order, the same sets
    with their members in the same iteration order (which fixes the bits
    of a line's value) and the same value table, bit for bit. Returns
    whether it passes."""
    try:
        labelling.check()
    except GridProbeError:
        return False
    check_hierarchy_walk(labelling)
    sets, table = labelling.read()
    want_sets, want_table = recovery._read(labelling.families(),
                                           not labelling.complete)
    assert [(m, [list(s) for s in fam]) for m, fam in sets.items()] == [
        (m, [list(s) for s in fam]) for m, fam in want_sets.items()]
    assert table.shape == want_table.shape
    assert table.tobytes() == want_table.tobytes()
    return True


def check_trial(estimate, r_min, mode, truth, exact, replay, seen):
    """Hold one trial to the sweep's rule. `identify` and `compare_graphs`
    find the truth only where the gap rule cuts the estimate into the
    noise-free labelling, which the stacked cut must tell from the
    trial's own labels; the cut's `held` must then be whether the trial's
    labelling passes the family check, and the trial is correct exactly
    where it is held and the stacked replay's line rules pass, with the
    same MPE. Returns the report, line values in the recovered graph's
    order, upstream resistance and MPE of a correct trial, else None."""
    outcome = None
    try:
        report = identify(estimate, r_min, mode)
        outcome = compare_graphs(report.graph, truth, exact.owners)
    except GridProbeError:
        pass
    correct = outcome is not None and outcome.topology_correct
    labelling = grouping._label(estimate, r_min, mode)
    checked = check_read(labelling)
    (same,), held, table = grouping._cut_trials(
        exact, estimate.values[None], labelling.threshold)
    assert same == np.array_equal(labelling.labels, exact.labels)
    if not same:
        assert not correct and held.shape == (0,)
        seen["cut differs"] += 1
        return None
    assert table.tobytes() == labelling.values.tobytes()
    (held,) = held
    assert held == checked
    (ok,), (mpe,), (lines,), (upstream,) = recovery._replay(replay, table)
    assert correct == (held and ok)
    if not correct:
        seen["value rejected"] += 1
        return None
    assert mpe == outcome.resistance_mpe
    seen["correct"] += 1
    return report, lines.tolist(), float(upstream), float(mpe)


OUTCOMES = ("correct", "cut differs", "value rejected")


# Complete mode with every bus an owner, where the family check is
# complete; complete mode with leaf-covering owners (leaves plus a random
# sprinkle), where recovery's own errors apply; and partial mode.
SWEEP_CASES = (("complete", True), ("complete", False), ("partial", False))


def test_sweep_rule_holds_on_random_feeders():
    # Meter noise from 0.05 to 0.6 r_min per entry, on random feeders and
    # probing sets, so some trials cut exactly, some do not, and some cut
    # exactly but break a value rule.
    rng = np.random.default_rng(1804)
    seen = {case: Counter() for case in SWEEP_CASES}
    learnt = {"complete": Counter(), "partial": Counter()}
    for _ in range(40):
        _, g = random_feeder(rng, max_buses=14)
        for mode, every_bus in SWEEP_CASES:
            buses = tuple(sorted(g.bus_order if every_bus
                                 else random_probing(rng, g)))
            truth = g if mode == "complete" else reduce_grid(g, buses)
            r_min = min((r for _, _, r, *_ in truth.edges), default=1.0)
            plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 4)
            exact, replay = noise_free(g, plan, mode, truth)
            for _ in range(25):
                sigma = rng.uniform(0.05, 0.6) * r_min * 0.1 * 2
                estimate = sample_estimate(g, plan, NoiseModel(sigma_w=sigma),
                                           mode=mode, rng=rng)
                check_trial(estimate, r_min, mode, truth, exact, replay,
                            seen[mode, every_bus])
                learnt[mode][learn_outcome(
                    grouping._label(estimate, r_min, mode), truth)] += 1
    assert all(counts[k] for counts in seen.values() for k in OUTCOMES), seen
    # Trial labellings that fail the family check, the walk and the match
    # with the truth, and ones that replay, in both modes.
    assert {"InconsistentLevelSets", "no node map", "replay"} <= set(
        learnt["partial"]), learnt
    assert {"InconsistentLevelSets", "AmbiguousIntersection",
            "replay"} <= set(learnt["complete"]), learnt


@st.composite
def label_matrices(draw):
    """The label matrix of a random feeder's noise-free labelling, in
    either mode, with up to four entries changed, each owner kept in its
    deepest group. An entry in an owner's row is mirrored across the two
    owners where `mirror` is drawn, so seen stays symmetric and only the
    prefix rule tells; elsewhere seen may turn asymmetric."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    _, g = random_feeder(rng, max_buses=12)
    mode = draw(st.sampled_from(["complete", "partial"]))
    buses = tuple(sorted(g.bus_order if mode == "complete" and draw(
        st.booleans()) else random_probing(rng, g)))
    plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 1)
    labelling = grouping._label(sample_estimate(g, plan, NoiseModel(), mode),
                                None, mode)
    labels, rows = labelling.labels.copy(), labelling.owner_rows.tolist()
    counts = labelling.counts
    mirror = draw(st.booleans())
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(labels) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, int(counts[j]) - 1))
        if i == rows[j]:
            continue
        labels[i, j] = k
        if mirror and i in rows and k < counts[rows.index(i)]:
            labels[rows[j], rows.index(i)] = k
    return labelling, labels


def pairwise_error(labelling, labels, hierarchy):
    """The first error of the cross-column checks on labels, in their
    order, with the agree-above rule read off the pairwise oracle: the
    first owner row that holds a failure, ascending; in it a crowded
    group first, else the first column whose pair fails, by split depth,
    then split value, then agree-above; then, with every bus an owner,
    the one-bus-per-group rule. None where every rule holds."""
    cols, seen = hierarchy.cols, hierarchy.seen.tolist()
    owners = [labelling.owners[c] for c in cols.tolist()]
    deep = (labelling.counts[cols] - 1).tolist()
    at = labelling.values[cols[:, None], hierarchy.seen].tolist()
    above = (reference_first_differences(labels[:, cols])
             < hierarchy.seen).tolist()
    start, m = int(not labelling.complete), len(owners)
    anchors = [[[owners[b] for b in range(m) if seen[a][b] == deep[b] == k]
                for k in range(deep[a] + 1)] for a in range(m)]
    for a in range(m):
        for k, buses in enumerate(anchors[a]):
            if len(buses) > 1:
                return (f"column {owners[a]}: several depth-{k + start} "
                        f"buses {buses} in one depth-{k + start} group")
        for b in range(a + 1, m):
            pair = f"columns {owners[a]} and {owners[b]} disagree"
            if seen[a][b] != seen[b][a]:
                return f"{pair} on their split depth"
            if abs(at[a][b] - at[b][a]) > labelling.value_tol:
                return f"{pair} on their split value"
            if above[a][b]:
                return f"{pair} above depth {seen[a][b] + start}"
    if labelling.complete and m == len(labels) - 1:
        for a in range(m):
            for k, buses in enumerate(anchors[a]):
                if len(buses) + (k == 0) != 1:
                    return (f"column {owners[a]}: depth-{k} group does not "
                            f"hold exactly one depth-{k} bus")
    return None


@settings(max_examples=300, deadline=None, database=None)
@given(label_matrices())
def test_prefix_rule_gives_the_pairwise_verdict_and_message(case):
    # The hierarchy holds exactly when seen is symmetric and no pair of
    # columns differs above the depth they see each other at, by the
    # earlier pairwise pass; the family check raises that pass's first
    # error, in its order, whether it reads the hierarchy or tests the
    # pairs, at any block size.
    labelling, labels = case
    counts, owners = labelling.counts, labelling.owners
    hierarchy = grouping._hierarchy(labels, counts, owners,
                                    labelling.owner_rows)
    seen = hierarchy.seen
    above = reference_first_differences(labels[:, hierarchy.cols]) < seen
    assert (hierarchy.rep is not None) == bool(
        (seen == seen.T).all() and not above.any())
    every_bus = labelling.complete and len(owners) == len(labels) - 1
    outcomes = []
    for h, block in ((hierarchy, grouping._BLOCK),
                     (hierarchy._replace(rep=None), grouping._BLOCK),
                     (hierarchy._replace(rep=None), 1)):
        try:
            with mock.patch.object(grouping, "_BLOCK", block):
                grouping._check_pairs(labels, counts, labelling.values,
                                      owners, h, int(not labelling.complete),
                                      labelling.value_tol, every_bus)
            outcomes.append(None)
        except InconsistentLevelSets as exc:
            outcomes.append(str(exc))
    assert outcomes == [pairwise_error(labelling, labels, hierarchy)] * 3


def test_hierarchy_walk_matches_the_set_walk_on_odd_rows():
    # Estimates whose rows are not the owners: partial mode with extra
    # rows, and complete mode with leaf-covering owners, whose junctions
    # are rows no owner holds, cut from noisy columns so that some walks
    # fail. The plan read off the hierarchy is the set walk's wherever it
    # reads one, and it reads one wherever the family check passes and
    # the set walk wires a plan.
    rng = np.random.default_rng(4105)
    seen = Counter()
    for _ in range(300):
        _, g = random_feeder(rng, max_buses=10)
        owners = tuple(sorted(random_probing(rng, g)))
        mode = ("complete", "partial")[int(rng.integers(2))]
        rows = (g.bus_order if mode == "complete" else sorted(
            set(owners) | {b for b in g.bus_order if rng.random() < 0.3}))
        r = resistance_matrix(g)
        values = np.array([[r.entry(n, m) for m in owners] for n in rows])
        values += rng.normal(0, rng.uniform(0, 0.3), values.shape)
        labelling = grouping._label(ResistanceEstimate(rows, owners, values),
                                    0.1, mode)
        try:
            labelling.check()
            checked = "checked"
        except GridProbeError:
            checked = "rejected"
        walked = isinstance(set_walk_plan(labelling), recovery.RecoveryPlan)
        seen[mode, checked, walked, check_hierarchy_walk(labelling)] += 1
    for mode in ("complete", "partial"):
        assert seen[mode, "checked", True, True] >= 10, seen
        assert seen[mode, "rejected", False, False] >= 10, seen
    assert seen["partial", "checked", False, False] >= 1, seen


@pytest.mark.parametrize("mode", ["complete", "partial"])
@pytest.mark.parametrize("r_min", [None, 0.05])
def test_large_feeders_match_reference(mode, r_min):
    # 300 buses: every bus probes in complete mode, and the 153 leaves in
    # partial mode. `identify` gives the reference loops' grid and the
    # public chain's bits, and `_learn` the replay of `_identify` and of
    # the set walk over the labelling's families.
    rng = np.random.default_rng(300)
    _, g = random_feeder(rng, buses=300)
    buses = tuple(g.bus_order if mode == "complete" else sorted(g.leaves))
    truth = g if mode == "complete" else reduce_grid(g, buses)
    assert r_min is None or min(r for _, _, r, *_ in truth.edges) > r_min
    plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 1)
    seen = Counter()
    assert_identify_matches(sample_estimate(g, plan, NoiseModel(), mode),
                            r_min, mode, seen)
    assert seen == {"ok": 1}
    noise_free(g, plan, mode, truth)


def test_replay_rejects_group_values_that_do_not_increase():
    # Bus 4's path resistance is 0.1 plus two ulps. With bus 4's own entry
    # one ulp above 0.1, the gap rule at r_min = 1e-17 cuts the noise-free
    # labelling, but column 4's group of three entries of 0.1 averages to
    # 0.10000000000000002 by the left fold, which ties bus 4's entry.
    r = math.nextafter(math.nextafter(0.1, 1), 1) - 0.1
    g = build_feeder([(0, 1, 0.1), (1, 2, 0.05), (1, 3, 0.05), (1, 4, r)])
    assert g.path_r(4) == 0.10000000000000003
    plan = ProbingPlan.blocks(g.bus_order, [1.0] * 4, 1)
    exact, replay = noise_free(g, plan, "complete", g)
    values = resistance_matrix(g).values.copy()
    i = g.bus_order.index(4)
    values[i, i] = math.nextafter(0.1, 1)
    estimate = ResistanceEstimate(g.bus_order, g.bus_order, values)
    labelling = grouping._label(estimate, 1e-17, "complete")
    (same,), (held,), _ = grouping._cut_trials(exact, values[None],
                                              1e-17 / 2)
    assert same and not held
    assert np.array_equal(labelling.labels, exact.labels)
    with pytest.raises(InconsistentLevelSets,
                       match="column 4: group values not increasing"):
        identify(estimate, 1e-17, "complete")
    seen = Counter()
    assert check_trial(estimate, 1e-17, "complete", g, exact, replay,
                       seen) is None
    assert seen == {"value rejected": 1}


BIG = 1.7e308
# Finite partial estimates of owners 1, 2 and 3: one whose group means
# overflow (the split-value rule then subtracts inf from inf), and one
# whose gaps overflow (the gap rule subtracts -BIG from BIG).
OVERFLOWING = {
    "group mean": [[BIG, BIG, 1.0], [BIG, BIG, 1.0], [1.0, 1.0, BIG]],
    "gap": [[BIG, -BIG, -BIG], [-BIG, BIG, -BIG], [-BIG, -BIG, BIG]],
}


@pytest.mark.parametrize("r_min", [None, 1.0])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_grouping_that_overflows_matches_reference_without_a_warning(
        name, r_min):
    estimate = ResistanceEstimate((1, 2, 3), (1, 2, 3),
                                  np.array(OVERFLOWING[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        families = family_outcome(group_estimate, estimate, r_min, "partial")
        assert families == family_outcome(reference_group_estimate,
                                          estimate, r_min, "partial")
        got = identify_outcome(identify, estimate, r_min, "partial")
        assert got == identify_outcome(reference_identify, estimate, r_min,
                                       "partial")
    if name == "gap":
        # The families pass the check; the walk's line 4-1 is infinite.
        assert [m for m, *_ in families] == [1, 2, 3]
        assert got == (NonpositiveImpedance, "line (4,1) r must be positive "
                                             "and finite, got inf")
    else:
        assert families[0] is got[0] is InconsistentLevelSets
        assert got[1] == "column 1: several depth-2 buses [1, 2] in one " \
                         "depth-2 group"


def test_replay_rejects_lines_that_overflow():
    # Leaves 1, 2 and 3 hang off junction 4. The overflowing-gap estimate
    # cuts into the noise-free labelling and passes the family check, but
    # a line's step and the upstream sum overflow: only recovery's line
    # rules reject it.
    g = build_feeder([(0, 4, 0.1), (4, 1, 0.2), (4, 2, 0.3), (4, 3, 0.4)])
    plan = ProbingPlan.blocks((1, 2, 3), [0.1] * 3, 1)
    truth = reduce_grid(g, plan.buses)
    exact, replay = noise_free(g, plan, "partial", truth)
    estimate = ResistanceEstimate((1, 2, 3), (1, 2, 3),
                                  np.array(OVERFLOWING["gap"]))
    seen = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (same,), (held,), table = grouping._cut_trials(
            exact, estimate.values[None], 0.5)
        (ok,), _, _, (upstream,) = recovery._replay(replay, table)
        assert check_trial(estimate, 1.0, "partial", truth, exact, replay,
                           seen) is None
    assert same and held and not ok
    assert upstream == -math.inf
    assert seen == {"value rejected": 1}


# Finite partial estimates of owners 1, 2 and 3 that cut into the
# labelling of leaves 1, 2 and 3 under one junction: the overflowing-gap
# one, whose walk's line 4-1 is infinite, and one whose lines are finite
# but whose three first groups sum past the largest float (two do not),
# so the upstream resistance is infinite.
GRID_VALUE_ERRORS = {
    "line": (OVERFLOWING["gap"], NonpositiveImpedance,
             "line (4,1) r must be positive and finite, got inf"),
    "upstream": ([[1e308, 8e307, 8e307], [8e307, 1e308, 8e307],
                  [8e307, 8e307, 1e308]], ConfigError,
                 "root_upstream_r must be finite, got inf"),
}


@pytest.mark.parametrize("name", sorted(GRID_VALUE_ERRORS))
def test_learn_raises_what_building_the_grid_raises(name):
    # `_learn` builds no grid, so it must raise what the grid's
    # constructors raise for a value that is not finite, as `_identify`
    # and the reference recovery, which build it, do.
    values, error, message = GRID_VALUE_ERRORS[name]
    g = build_feeder([(0, 4, 0.1), (4, 1, 0.2), (4, 2, 0.3), (4, 3, 0.4)])
    estimate = ResistanceEstimate((1, 2, 3), (1, 2, 3), np.array(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert learn_outcome(grouping._label(estimate, 1.0, "partial"),
                             reduce_grid(g, (1, 2, 3))) == error.__name__
        assert recovery_outcome(
            reference_recover_partial,
            reference_group_estimate(estimate, 1.0, "partial"))[0] is error
        assert error_message(
            reference_recover_partial,
            reference_group_estimate(estimate, 1.0, "partial")) == message
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        experiments._learn(grouping._label(estimate, 1.0, "partial"),
                           reduce_grid(g, (1, 2, 3)))


def test_learn_raises_what_identify_raises_for_a_nonpositive_line(
        monkeypatch):
    # The family check rejects every labelling with a nonpositive line, so
    # it is skipped here, for both paths: the noise-free labelling of the
    # tie in `test_replay_rejects_group_values_that_do_not_increase` then
    # values line 1-4 at 0.0.
    r = math.nextafter(math.nextafter(0.1, 1), 1) - 0.1
    g = build_feeder([(0, 1, 0.1), (1, 2, 0.05), (1, 3, 0.05), (1, 4, r)])
    values = resistance_matrix(g).values.copy()
    i = g.bus_order.index(4)
    values[i, i] = math.nextafter(0.1, 1)
    labelling = grouping._label(
        ResistanceEstimate(g.bus_order, g.bus_order, values), 1e-17,
        "complete")
    monkeypatch.setattr(grouping._Labelling, "check", lambda self: None)
    assert learn_outcome(labelling, g) == "InconsistentLevelSets"
    with pytest.raises(InconsistentLevelSets,
                       match="^nonpositive line resistance 0.0 at depth 2$"):
        experiments._learn(labelling, g)


def check_cut(exact, stack, threshold):
    """Hold the stacked cut to each trial cut on its own by `_label`'s
    route (a stable argsort, then labels): `same` is whether the trial's
    labels are the noise-free ones, and the table holds, in trial order,
    the group values of those that are, byte for byte. Runs with numpy
    warnings as errors; returns `same`."""
    rows = exact.buses[:-1] if exact.complete else exact.buses
    mode = "complete" if exact.complete else "partial"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same, _, table = grouping._cut_trials(exact, stack, threshold)
        own = [grouping._Labelling.of(exact.owners, rows.tolist(), values,
                                      mode, threshold) for values in stack]
    assert same.tolist() == [np.array_equal(cut.labels, exact.labels)
                             for cut in own]
    want = np.array([cut.values for cut, kept in zip(own, same) if kept])
    assert table.shape == (same.sum(), *exact.values.shape)
    assert table.tobytes() == want.tobytes()
    return same


def noise_free_labelling(g, owners, mode):
    plan = ProbingPlan.blocks(owners, [0.1] * len(owners), 1)
    estimate = sample_estimate(g, plan, NoiseModel(), mode)
    return grouping._label(estimate, None, mode), estimate.values


def test_cut_rejects_a_swap_that_keeps_the_gaps():
    # Column 4 holds 0.1 for buses 1 and 2, 0.17 for bus 3 and 0.19 for
    # bus 4. Swapping bus 1's and bus 3's entries keeps the sorted values,
    # so the gaps open the same groups, but bus 1 now sits above bus 3.
    g = build_feeder([(0, 1, 0.1), (1, 2, 0.05), (1, 3, 0.07), (3, 4, 0.02)])
    exact, values = noise_free_labelling(g, g.bus_order, "complete")
    swapped = values.copy()
    swapped[[0, 2], 3] = swapped[[2, 0], 3]
    assert swapped[:, 3].tolist() == [0.17, 0.1, 0.1, 0.19]
    assert np.array_equal(np.sort(swapped, axis=0), np.sort(values, axis=0))
    same = check_cut(exact, np.stack([values, swapped, values]), 0.01)
    assert same.tolist() == [True, False, True]


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_cut_takes_a_stack_without_trials(mode):
    # The cut gathers by flat indexes into the stack; a stack of no trials
    # gives no verdicts and an empty table of the labelling's width.
    g = build_feeder(EIGHT_BUSES)
    owners = g.bus_order if mode == "complete" else sorted(g.leaves)
    exact, values = noise_free_labelling(g, owners, mode)
    assert check_cut(exact, values[None][:0], 0.01).shape == (0,)


def test_cut_keeps_exact_ties_and_signed_zeros():
    # Column 1 gives the substation and both buses of the other branch
    # 0.0, one group of ties; a -0.0 among them keeps the cut, and a -0.0
    # for bus 1 itself joins that group and breaks it.
    g = build_feeder([(0, 1, 0.1), (0, 2, 0.2), (2, 3, 0.05)])
    exact, values = noise_free_labelling(g, g.bus_order, "complete")
    assert values[:, 0].tolist() == [0.1, 0.0, 0.0]
    tied = values.copy()
    tied[1, 0] = -0.0
    own = values.copy()
    own[0, 0] = -0.0
    same = check_cut(exact, np.stack([values, tied, own, tied]), 0.025)
    assert same.tolist() == [True, True, False, True]


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_cut_of_silent_noise_keeps_every_tie(mode):
    # Every trial of a silent draw is the noise-free estimate, each group
    # a run of ties; one trial whose first owner's own entry drops below
    # every other is cut differently.
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    owners = g.bus_order if mode == "complete" else tuple(sorted(g.leaves))
    exact, _ = noise_free_labelling(g, owners, mode)
    plan = ProbingPlan.blocks(owners, [0.1] * len(owners), 5)
    stack = _sampler(g, plan, NoiseModel(), mode)[0]([(None, 6)])
    stack[4, 0, 0] = -1.0
    same = check_cut(exact, stack, 0.0007)
    assert same.tolist() == [True] * 4 + [False, True]


def test_cut_of_estimates_that_overflow():
    g = build_feeder([(0, 4, 0.1), (4, 1, 0.2), (4, 2, 0.3), (4, 3, 0.4)])
    exact, values = noise_free_labelling(g, (1, 2, 3), "partial")
    stack = np.array([OVERFLOWING["gap"], values, OVERFLOWING["group mean"],
                      OVERFLOWING["gap"]])
    assert check_cut(exact, stack, 0.05).tolist() == [True, True, False,
                                                      True]


def test_cut_holds_on_random_feeders():
    # Stacks of 60 trials at meter noise from 0.05 to 0.6 r_min per entry,
    # so each stack mixes trials that keep the noise-free cut with trials
    # that do not.
    rng = np.random.default_rng(2808)
    kept = {case: Counter() for case in SWEEP_CASES}
    for _ in range(20):
        _, g = random_feeder(rng, max_buses=14)
        for mode, every_bus in SWEEP_CASES:
            owners = tuple(sorted(g.bus_order if every_bus
                                  else random_probing(rng, g)))
            truth = g if mode == "complete" else reduce_grid(g, owners)
            r_min = min((r for _, _, r, *_ in truth.edges), default=1.0)
            exact, _ = noise_free_labelling(g, owners, mode)
            plan = ProbingPlan.blocks(owners, [0.1] * len(owners), 4)
            sigma = rng.uniform(0.05, 0.6) * r_min * 0.1 * 2
            stack = _sampler(g, plan, NoiseModel(sigma_w=sigma), mode)[0](
                [(np.random.default_rng(rng.integers(2 ** 32)), 1)
                 for _ in range(60)])
            kept[mode, every_bus].update(
                check_cut(exact, stack, r_min / 2).tolist())
    assert all(counts[True] and counts[False] for counts in kept.values()), \
        kept


def cut_stacks(rng, g, owners, mode, r_min, trials=24):
    """Four kinds of trial stack for a noise-free labelling, each mixing
    trials the cut keeps with trials it does not: meter noise at 0.02 to
    0.5 r_min per entry; the same noise with one pair of buses of adjacent
    groups swapped in every other trial, which keeps the sorted values and
    so the starts; the noise rounded to multiples of the cut, so gaps fall
    on it; and the noise-free estimate itself, exact ties, with one entry
    moved by a multiple of the cut in every other trial. Returns the
    labelling and the stacks by kind."""
    exact, values = noise_free_labelling(g, owners, mode)
    plan = ProbingPlan.blocks(owners, [0.1] * len(owners), 4)
    sigma = rng.uniform(0.02, 0.5) * r_min * 0.1 * 2
    noisy = _sampler(g, plan, NoiseModel(sigma_w=sigma), mode)[0](
        [(np.random.default_rng(rng.integers(2 ** 32)), 1)
         for _ in range(trials)])
    rows = len(values)
    swapped = noisy.copy()
    for t in range(0, trials, 2):
        j = rng.integers(len(owners))
        labels = exact.labels[:rows, j]
        if labels.max() > labels.min():
            g0 = rng.integers(labels.min(), labels.max())
            a, b = (rng.choice(np.flatnonzero(labels == k))
                    for k in (g0, labels[labels > g0].min()))
            swapped[t, [a, b], j] = swapped[t, [b, a], j]
    cut = r_min / 2
    silent = np.repeat(values[None], trials, axis=0)
    for t in range(1, trials, 2):
        silent[t, rng.integers(rows), rng.integers(len(owners))] += (
            rng.choice([-2, -1, 1, 2]) * cut)
    return exact, {"noisy": noisy, "swapped": swapped,
                   "rounded": np.round(noisy / cut) * cut, "silent": silent}


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_cut_gives_the_reduceat_verdict(mode):
    # The group-top bound against the earlier per-group maximum and
    # minimum (`reference_cut_trials`): the same `same`, `held` and
    # table bytes on the bundled feeder and on random feeders.
    rng = np.random.default_rng(3505)
    feeders = [fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))]
    feeders += [random_feeder(rng, max_buses=14)[1] for _ in range(20)]
    kept = {}
    for g in feeders:
        for every_bus in (True, False) if mode == "complete" else (False,):
            owners = tuple(sorted(g.bus_order if every_bus
                                  else random_probing(rng, g)))
            truth = g if mode == "complete" else reduce_grid(g, owners)
            r_min = min((r for _, _, r, *_ in truth.edges), default=1.0)
            exact, stacks = cut_stacks(rng, g, owners, mode, r_min)
            for kind, stack in stacks.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    same, held, table = grouping._cut_trials(
                        exact, stack, r_min / 2)
                    want = reference_cut_trials(exact, stack, r_min / 2)
                assert same.tolist() == want[0].tolist()
                assert held.tolist() == want[1].tolist()
                assert table.shape == want[2].shape
                assert table.tobytes() == want[2].tobytes()
                kept.setdefault(kind, Counter()).update(same.tolist())
    assert all(counts[True] and counts[False] for counts in kept.values()), \
        kept


REPLAY_TRIALS = 200
REPLAY_SEEDS = (0, 1, 2)
ROW_KEYS = ("periods", "error_pct", "mpe_pct", "mpe_se", "trials")


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_sweep_replays_match_the_full_path(name, seed):
    raw = fileio.load_config(os.path.join(DATA, name))
    cfg = ExperimentConfig.from_dict(
        {**raw, "trials": REPLAY_TRIALS, "seed": seed}, base_dir=DATA)
    g = fileio.load_feeder(cfg.feeder_path)
    buses = cfg.probing_buses(g)
    delta = cfg.delta_map(buses)
    truth = g if cfg.mode == "complete" else reduce_grid(g, buses)
    seen = Counter()
    rows = []
    for periods in cfg.periods:
        plan = ProbingPlan.blocks(buses, delta, periods)
        exact, replay = noise_free(g, plan, cfg.mode, truth)
        mpes = []
        rng = np.random.default_rng((seed, periods))
        for trial in range(cfg.trials):
            estimate = sample_estimate(g, plan, cfg.noise, mode=cfg.mode,
                                       rng=rng)
            found = check_trial(estimate, cfg.r_min, cfg.mode, truth, exact,
                                replay, seen)
            if found is None:
                continue
            report, lines, upstream, mpe = found
            assert [(*replay.plan.lines[i], r) for i, r in
                    zip(replay.order, lines)] == [
                tuple(e[:3]) for e in report.graph.edges]
            assert replay.plan.support == report.line_support
            if cfg.mode == "partial":
                assert upstream == report.graph.root_upstream_r
                assert replay.plan.root == report.graph.root
                assert set(replay.plan.internal) == report.graph.internal
            mpes.append(mpe)
        correct = len(mpes)
        rows.append({
            "periods": periods,
            "error_pct": 100.0 * (cfg.trials - correct) / cfg.trials,
            "mpe_pct": float(np.mean(mpes)) if mpes else None,
            "mpe_se": (float(np.std(mpes, ddof=1) / np.sqrt(len(mpes)))
                       if len(mpes) > 1 else None),
            "trials": cfg.trials,
        })
    assert all(seen[k] for k in OUTCOMES), seen
    got = run_experiment(cfg)
    assert [{k: row[k] for k in ROW_KEYS} for row in got.rows] == rows


def factor_estimate(g, plan, noise, mode, rng):
    """One trial's window-sum estimate from the factor arithmetic: S·Z for
    S = qr(Fᵀ, "r")ᵀ, F = [sigma_p·R[rows, free] | sigma_q·X[rows, free] |
    sigma_w·I], unless the rows outnumber the injection columns by more
    than _FACTOR_EXTRA_ROWS; then the injection blocks times Z plus
    sigma_w·W, one draw [Z; W]; sigma_w·Z when no injection noise reaches
    the rows."""
    order = g.bus_order
    cols = [order.index(b) for b in plan.buses]
    rows = cols if mode == "partial" else list(range(len(order)))
    free = [i for i in range(len(order)) if i not in cols]
    rmat = resistance_matrix(g).values
    through = []
    if noise.sigma_p > 0 and free:
        through.append(noise.sigma_p * rmat[np.ix_(rows, free)])
    if noise.sigma_q > 0 and free:
        through.append(noise.sigma_q
                       * reactance_matrix(g).values[np.ix_(rows, free)])
    if through and (len(rows)
                    > len(through) * len(free) + _FACTOR_EXTRA_ROWS):
        shake = rng.standard_normal((len(through) * len(free) + len(rows),
                                     len(cols)))
        sums = np.hstack(through) @ shake[:-len(rows)]
        meter = shake[-len(rows):]
        meter *= noise.sigma_w
        sums += meter
    elif through:
        if noise.sigma_w > 0:
            through.append(noise.sigma_w * np.eye(len(rows)))
        factor = np.linalg.qr(np.hstack(through).T, mode="r").T
        sums = factor @ rng.standard_normal((factor.shape[1], len(cols)))
    else:
        sums = rng.standard_normal((len(rows), len(cols)))
        sums *= noise.sigma_w
    return rmat[np.ix_(rows, cols)] + sums / (
        np.array(plan.delta) * np.sqrt(plan.periods))


@pytest.mark.parametrize("mode", ["complete", "partial"])
@pytest.mark.parametrize("trials", [1, 2, 3, 7])
def test_stacked_draw_matches_one_draw_per_trial(mode, trials):
    # Four of eight buses probing puts all three sources through the
    # factor; the star's leaves leave many more rows than injection
    # columns, so meter noise is drawn apart; every bus probing leaves
    # meter noise alone. As a sweep's chunk does, the stack mixes plans
    # that differ only in their periods, out of order, each trial dividing
    # by its own plan's window divisors, and holds runs of trials that
    # each draw from one generator.
    eight, star = build_feeder(EIGHT_BUSES), build_feeder(STAR_BUSES)
    noise = NoiseModel(sigma_p=0.01, sigma_q=0.01, sigma_w=0.005)
    sizes = [n for n in (trials // 2, trials - trials // 2) if n]
    for g, buses in ((eight, [3, 5, 7, 8]), (star, sorted(star.leaves)),
                     (eight, eight.bus_order)):
        delta = [0.1 * (1 + b % 3) for b in buses]
        plans = [ProbingPlan.blocks(buses, delta,
                                    [periods + b % 4 for b in buses])
                 for periods in (2, 9, 40)]
        which = [(2 * t) % len(plans) for t in range(trials)]
        seeds = [(5, trials, r) for r in range(len(sizes))]
        draw, row_nodes = _sampler(g, plans[0], noise, mode)
        got = draw([(np.random.default_rng(s), n)
                    for s, n in zip(seeds, sizes)],
                   np.array([_scale(plans[k]) for k in which]))
        assert got.shape[0] == trials
        ks = iter(which)
        stack = iter(got)
        for seed, n in zip(seeds, sizes):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            for _ in range(n):
                k, values = next(ks), next(stack)
                one = sample_estimate(g, plans[k], noise, mode, rng=rng)
                assert one.row_nodes == row_nodes
                assert values.tobytes() == one.values.tobytes()
                want = factor_estimate(g, plans[k], noise, mode, ref)
                assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(14, 22, 14), (37, 60, 37),
                                   (100, 200, 100), (14, 14, 14),
                                   (36, 36, 36)])
def test_stacked_product_matches_one_product_per_trial(shape):
    # The draw carries every trial's normals to the reported rows through
    # the noise factor (rows x at most rows) with one stacked matmul; on
    # this BLAS each slice must round as the trial's own product did. One
    # wide product over all trials need not.
    rows, inner, cols = shape
    rng = np.random.default_rng(rows)
    through = rng.standard_normal((rows, inner))
    shake = rng.standard_normal((5, inner, cols))
    stacked = np.matmul(through, shake)
    for t in range(len(shake)):
        assert stacked[t].tobytes() == (through @ shake[t]).tobytes()


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
def test_sweep_rows_do_not_depend_on_the_chunk_size(name, monkeypatch):
    # Budgets of 1, 600 and 4000 entries give chunks of 1, 1 and 3 trials
    # on the complete table (37 x 36 labels) and of 1, 3 and 20 on the
    # partial one (14 x 14), against 7 trials in one chunk.
    raw = fileio.load_config(os.path.join(DATA, name))
    cfg = ExperimentConfig.from_dict({**raw, "trials": 7, "seed": 3},
                                     base_dir=DATA)
    want = [{k: row[k] for k in ROW_KEYS} for row in run_experiment(cfg).rows]
    for block in (1, 600, 4000):
        monkeypatch.setattr(experiments, "_BLOCK", block)
        got = run_experiment(cfg)
        assert [{k: row[k] for k in ROW_KEYS} for row in got.rows] == want


def exact_rows(rows):
    """The `ROW_KEYS` of each row, floats as float.hex."""
    return [{k: row[k].hex() if isinstance(row[k], float) else row[k]
             for k in ROW_KEYS} for row in rows]


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
def test_sweep_rows_do_not_depend_on_the_other_sweep_values(name):
    # Three trials per value put every sweep value in one chunk (of 49
    # trials on the complete table, 334 on the partial one); each row must
    # be what a sweep of its value alone gives.
    raw = fileio.load_config(os.path.join(DATA, name))
    cfg = ExperimentConfig.from_dict({**raw, "trials": 3, "seed": 4},
                                     base_dir=DATA)
    rows = run_experiment(cfg).rows
    assert len(rows) > 1
    assert any(row["mpe_se"] is not None for row in rows)
    for row in rows:
        alone = run_experiment(replace(cfg, periods=(row["periods"],)))
        assert exact_rows(alone.rows) == exact_rows([row])


@pytest.mark.parametrize("name", ["table_complete.yaml", "table_partial.yaml"])
def test_sweep_value_draws_from_one_stream_across_chunks(name, monkeypatch):
    # Chunks of two trials against five trials per value: every value's
    # trials straddle chunks, each chunk but the value's first picks up
    # its stream where the last one left it, and some chunks hold two
    # values. Each row must be what a sweep of its value alone, in one
    # chunk, gives.
    raw = fileio.load_config(os.path.join(DATA, name))
    cfg = ExperimentConfig.from_dict({**raw, "trials": 5, "seed": 8},
                                     base_dir=DATA)
    alone = [run_experiment(replace(cfg, periods=(t,))).rows[0]
             for t in cfg.periods]
    # A trial's estimate holds 37 x 36 entries (complete), 14 x 14
    # (partial).
    monkeypatch.setattr(experiments, "_BLOCK",
                        2 * (37 * 36 if cfg.mode == "complete" else 14 * 14))
    assert exact_rows(run_experiment(cfg).rows) == exact_rows(alone)


def reference_noise_factor(g, noise, rows, free):
    """The noise factor pair as built from the public matrix objects, by
    np.ix_ blocks of `resistance_matrix` and `reactance_matrix`."""
    through = []
    if noise.sigma_p > 0 and free:
        through.append(noise.sigma_p
                       * resistance_matrix(g).values[np.ix_(rows, free)])
    if noise.sigma_q > 0 and free:
        through.append(noise.sigma_q
                       * reactance_matrix(g).values[np.ix_(rows, free)])
    if not through:
        return None, noise.sigma_w
    if len(rows) > len(through) * len(free) + _FACTOR_EXTRA_ROWS:
        return np.hstack(through), noise.sigma_w
    if noise.sigma_w > 0:
        through.append(noise.sigma_w * np.eye(len(rows)))
    return np.linalg.qr(np.hstack(through).T, mode="r").T, 0.0


def test_cached_arrays_give_the_matrix_objects_blocks():
    # The campaign reads the feeder's cached shared-path arrays directly;
    # every block and noise factor must be bitwise what the public matrix
    # objects give, and those objects must wrap the cached arrays. The
    # bundled feeder probes its leaves, every bus, and every bus but one,
    # whose 36 rows outnumber the injection columns by more than
    # _FACTOR_EXTRA_ROWS; random feeders of up to 60 buses probe their
    # leaves and a sprinkle. Every other feeder is read through the public
    # objects first.
    rng = np.random.default_rng(37)
    bundled = [fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
               for _ in range(3)]
    order = bundled[0].bus_order
    cases = list(zip(bundled, (sorted(bundled[0].leaves), list(order),
                               list(order[1:]))))
    for _ in range(20):
        _, g = random_feeder(rng, max_buses=60)
        cases.append((g, sorted(random_probing(rng, g))))
    noises = [NoiseModel(sigma_p=0.01, sigma_q=0.02, sigma_w=0.005),
              NoiseModel(sigma_p=0.01), NoiseModel(sigma_q=0.01),
              NoiseModel(sigma_w=0.005)]
    factor_paths = set()
    for k, (g, buses) in enumerate(cases):
        public_first = k % 2 == 1
        if public_first:
            resistance_matrix(g), reactance_matrix(g)
        plan = ProbingPlan.blocks(buses, [0.1] * len(buses), 3)
        order = g.bus_order
        cols = [order.index(b) for b in buses]
        free = [i for i in range(len(order)) if i not in cols]
        for mode in ("complete", "partial"):
            rows = cols if mode == "partial" else list(range(len(order)))
            block, row_nodes, rmat, *_ = probing._exact(g, plan, mode)
            want = resistance_matrix(g).values[np.ix_(rows, cols)]
            assert block.shape == want.shape
            assert block.tobytes() == want.tobytes()
            assert row_nodes == tuple(order[i] for i in rows)
            for noise in noises:
                factor, meter = probing._noise_factor(g, rmat, noise, rows,
                                                      free)
                ref, ref_meter = reference_noise_factor(g, noise, rows, free)
                assert meter == ref_meter
                if ref is None:
                    assert factor is None
                    continue
                factor_paths.add(meter > 0)
                assert factor.shape == ref.shape
                assert factor.tobytes() == ref.tobytes()
        assert resistance_matrix(g).values is rmat
        assert rmat is feeder._cached_matrix(g, "r", g._rho)
        assert (reactance_matrix(g).values
                is feeder._cached_matrix(g, "x", g._rho_x))
    # Meter noise drawn apart (many more rows than injection columns) and
    # folded into the triangular factor.
    assert factor_paths == {True, False}


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)
