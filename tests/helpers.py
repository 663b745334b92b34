"""Shared test machinery: random feeders, brute-force oracles, invariants.

The oracles recompute everything from the raw edge list with plain
dict/set walks and dense linear algebra, so they cannot share a bug with
the library code under test. The check_* functions encode the structural
claims the recovery algorithms rely on; they raise AssertionError with
enough context to reproduce a failure.
"""

from __future__ import annotations

import json
import math
import operator
import os
from collections import deque
from dataclasses import replace
from functools import reduce

import numpy as np

from gridprobe import (AmbiguousIntersection, ColumnGrouping, ConfigError,
                       EmptyPartition, FeederGraph, FeederFormatError,
                       InconsistentLevelSets, InconsistentMeteredSets,
                       NoiseModel, NonpositiveRmin, ProbingPlan,
                       ProbingRecord, RecoveryReport, ReducedGrid,
                       UnknownProbingBus, build_feeder, level_sets,
                       metered_level_sets, reactance_matrix, recover_full,
                       recover_partial, reduce_grid, resistance_matrix)
from gridprobe.errors import as_int
from gridprobe.feeder import _probed_below
from gridprobe.fileio import _read_text
from gridprobe.grouping import _BLOCK, _flat, _split_value, _starts

# One line per acceptance criterion; conftest.py echoes these in the
# terminal summary so a plain pytest run shows the verdicts.
criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    criterion_lines.append(line)


# -- random feeders -----------------------------------------------------------

# Eight buses with reactances: probing four of them (3, 5, 7 and 8) leaves
# four free buses whose load noise reaches every reported row.
EIGHT_BUSES = [(0, 1, 0.3, 0.2), (1, 2, 0.2, 0.4), (2, 3, 0.5, 0.3),
               (1, 4, 0.4, 0.1), (4, 5, 0.1, 0.3), (2, 6, 0.3, 0.3),
               (6, 7, 0.2, 0.2), (4, 8, 0.6, 0.5)]


# One junction (bus 1) under the substation and 36 leaves under it: with
# the leaves probing, 36 or 37 reported rows and two injection columns.
STAR_BUSES = [(0, 1, 0.3, 0.2)] + [(1, b, 0.1 + 0.01 * b, 0.05 + 0.01 * b)
                                   for b in range(2, 38)]


def random_feeder(rng, max_buses=30, with_x=True, lo=0.05, hi=1.0,
                  buses=None):
    """Random radial feeder with shuffled bus IDs: `buses` buses, or a
    uniform draw from 1 to max_buses.

    Each new bus attaches to a uniformly chosen existing bus, which covers
    everything from paths to stars. IDs are a random permutation of 1..N
    so nothing downstream can rely on parents having smaller IDs.
    """
    n = int(rng.integers(1, max_buses + 1)) if buses is None else buses
    ids = [int(b) for b in rng.permutation(np.arange(1, n + 1))]
    attached = [0]
    edges = []
    for b in ids:
        parent = attached[int(rng.integers(len(attached)))]
        r = float(rng.uniform(lo, hi))
        x = float(rng.uniform(lo, hi)) if with_x else None
        edges.append((parent, b, r, x))
        attached.append(b)
    return edges, build_feeder(edges)


def random_probing(rng, g: FeederGraph) -> frozenset[int]:
    """Leaves plus a random sprinkle of other non-root buses."""
    p = set(g.leaves)
    for b in g.bus_order:
        if b not in p and rng.random() < 0.3:
            p.add(b)
    return frozenset(p)


def window_scales(plan) -> np.ndarray:
    """A block plan's window divisors delta_j·√T_j, by which a draw turns
    each window's sum into its estimate column."""
    return np.array(plan.delta) * np.sqrt(plan.periods)


# -- oracles over raw edge lists ----------------------------------------------


def oracle_parents(edges):
    return {v: u for u, v, *_ in edges}


def oracle_nodes(edges):
    return {0} | {v for _, v, *_ in edges} | {u for u, *_ in edges}


def oracle_path(edges, m):
    """Root-to-m bus sequence, found by chasing parents."""
    par = oracle_parents(edges)
    path = [m]
    while path[-1] != 0:
        path.append(par[path[-1]])
    return path[::-1]


def oracle_path_r(edges, m):
    rmap = {(u, v): r for u, v, r, *_ in edges}
    path = oracle_path(edges, m)
    return sum(rmap[(a, b)] for a, b in zip(path, path[1:]))


def oracle_lca(edges, m, n):
    pa, pb = oracle_path(edges, m), oracle_path(edges, n)
    last = 0
    for a, b in zip(pa, pb):
        if a != b:
            break
        last = a
    return last


def oracle_level_sets(edges, m):
    """Groups by where each bus's root path splits from m's.

    Bus n sits in group k exactly when its deepest common ancestor with m
    is m's depth-k ancestor. This is a different formulation from the
    subtree subtraction the library uses.
    """
    path = oracle_path(edges, m)
    depth_of = {a: k for k, a in enumerate(path)}
    groups = [set() for _ in path]
    for n in oracle_nodes(edges):
        groups[depth_of[oracle_lca(edges, m, n)]].add(n)
    return [frozenset(s) for s in groups]


def oracle_laplacian_inverse(edges):
    """Dense inverse of the root-grounded weighted Laplacian.

    Returns (sorted non-root bus list, matrix). Weights are 1/r.
    """
    buses = sorted(oracle_nodes(edges) - {0})
    idx = {b: i for i, b in enumerate(buses)}
    lap = np.zeros((len(buses), len(buses)))
    for u, v, r, *_ in edges:
        w = 1.0 / r
        if u != 0:
            lap[idx[u], idx[u]] += w
            lap[idx[u], idx[v]] -= w
            lap[idx[v], idx[u]] -= w
        lap[idx[v], idx[v]] += w
    return buses, np.linalg.inv(lap)


def oracle_effective_resistance(edges, m, n):
    """Quadratic form in the pseudo-inverse of the full Laplacian."""
    nodes = sorted(oracle_nodes(edges))
    idx = {b: i for i, b in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    for u, v, r, *_ in edges:
        w = 1.0 / r
        lap[idx[u], idx[u]] += w
        lap[idx[v], idx[v]] += w
        lap[idx[u], idx[v]] -= w
        lap[idx[v], idx[u]] -= w
    pinv = np.linalg.pinv(lap)
    e = np.zeros(len(nodes))
    e[idx[m]] += 1.0
    e[idx[n]] -= 1.0
    return float(e @ pinv @ e)


def reference_shared_path(tree, buses, rho):
    """Pairwise shared-path values by the plain double loop over lca.

    Entry (m, n) is rho(lca(m, n)); the library's vectorised routine must
    reproduce this bit for bit, because sweep results are byte-stable.
    """
    k = len(buses)
    vals = np.empty((k, k))
    for i, m in enumerate(buses):
        for j in range(i, k):
            c = rho(tree.lca(m, buses[j]))
            vals[i, j] = c
            vals[j, i] = c
    return vals


# -- reference column grouping and recovery -----------------------------------
#
# The earlier, separate implementations: one split loop per grouping rule
# and one root-down walk per observation mode. The library now runs both
# rules through one gap routine and both modes through one walk; these
# copies pin down that nothing observable changed.


def _reference_sorted_entries(entries, owner, mode):
    if mode not in ("complete", "partial"):
        raise InconsistentLevelSets(f"unknown mode {mode!r}")
    if owner not in entries:
        raise InconsistentLevelSets(
            f"column owner {owner} missing from its own entries")
    items = [(int(n), float(v)) for n, v in entries.items()]
    if mode == "complete":
        if 0 in entries:
            raise InconsistentLevelSets(
                "complete-mode columns must not include the substation")
        items.append((0, 0.0))
    items.sort(key=lambda item: (item[1], item[0]))
    return items


def _reference_runs_out(runs, items):
    # An explicit left fold from 0.0: Python's sum adds floats with
    # compensation from 3.12 on, and rounds differently there.
    sets = tuple(frozenset(n for n, _ in run) for run in runs)
    values = tuple(reduce(operator.add, (v for _, v in run), 0.0) / len(run)
                   for run in runs)
    return sets, values, tuple(items)


def reference_group_exact(entries, owner, mode="complete"):
    """Exact grouping by value equality; (sets, values, sorted entries)."""
    items = _reference_sorted_entries(entries, owner, mode)
    runs = []
    for n, v in items:
        if runs and v == runs[-1][-1][1]:
            runs[-1].append((n, v))
        else:
            runs.append([(n, v)])
    return _reference_runs_out(runs, items)


def reference_group_noisy(entries, owner, r_min, mode="complete"):
    """Sorted gap rule with cut r_min / 2; (sets, values, sorted entries)."""
    items = _reference_sorted_entries(entries, owner, mode)
    cut = r_min / 2.0
    runs = []
    for n, v in items:
        if runs and v - runs[-1][-1][1] <= cut:
            runs[-1].append((n, v))
        else:
            runs.append([(n, v)])
    return _reference_runs_out(runs, items)


def _reference_partition(group, families, k):
    blocks = {}
    for m in group:
        blocks.setdefault(families[m].at(k), set()).add(m)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


def _reference_line_estimate(group, families, k):
    # The group's columns are summed in owner (mapping) order.
    steps = [families[m].value_at(k) - families[m].value_at(k - 1)
             for m in families if m in group]
    r = sum(steps) / len(steps)
    if r <= 0:
        raise InconsistentLevelSets(
            f"nonpositive line resistance {r} at depth {k}")
    return r


def reference_recover_full(families):
    """Complete-data recursion: the depth-k intersection names the bus."""
    if not families:
        raise EmptyPartition("no level-set families supplied")
    for m, fam in families.items():
        if fam.metered or fam.start_depth != 0:
            raise InconsistentLevelSets(
                f"family of bus {m} is not complete-data indexed")
        if fam.owner != m:
            raise InconsistentLevelSets(f"family keyed {m} owned by {fam.owner}")

    probing = frozenset(families)
    edges = []
    support = {}
    seen = set()
    queue = deque([(probing, None, 0)])
    while queue:
        group, parent, k = queue.popleft()
        inter = None
        for m in group:
            fam = families[m]
            if k > fam.depth:
                raise AmbiguousIntersection(
                    f"column {m} has no depth-{k} group", depth=k, buses=group)
            inter = fam.at(k) if inter is None else inter & fam.at(k)
        if len(inter) != 1:
            raise AmbiguousIntersection(
                f"depth-{k} intersection of {sorted(group)} has "
                f"{len(inter)} buses", depth=k, buses=group)
        (n,) = inter
        if n in seen:
            raise AmbiguousIntersection(
                f"bus {n} identified twice", depth=k, buses=group)
        seen.add(n)
        if k > 0:
            edges.append((parent, n,
                          _reference_line_estimate(group, families, k)))
            support[(parent, n)] = len(group)
        rest = group - {n}
        if rest:
            for part in _reference_partition(rest, families, k):
                queue.append((part, n, k + 1))

    graph = FeederGraph([(u, v, r, None) for u, v, r in edges])
    return RecoveryReport(mode="complete", graph=graph, probing=probing,
                          line_support=support)


def reference_recover_partial(families):
    """Partial-data recursion: a probed claimant or a fresh junction."""
    if not families:
        raise EmptyPartition("no level-set families supplied")
    for m, fam in families.items():
        if not fam.metered or fam.start_depth != 1:
            raise InconsistentLevelSets(
                f"family of bus {m} is not metered-data indexed")
        if fam.owner != m:
            raise InconsistentLevelSets(f"family keyed {m} owned by {fam.owner}")

    probing = frozenset(families)
    next_id = max(probing) + 1
    edges = []
    support = {}
    internal = []
    root = None
    queue = deque([(probing, None, 1)])
    while queue:
        group, parent, k = queue.popleft()
        candidates = []
        for m in sorted(group):
            fam = families[m]
            if k <= fam.depth and fam.at(k) == group:
                candidates.append(m)
        if len(candidates) > 1:
            raise InconsistentMeteredSets(
                f"buses {candidates} both claim to root {sorted(group)}",
                depth=k, buses=group)
        if candidates:
            n = candidates[0]
        else:
            n = next_id
            next_id += 1
            internal.append(n)
        if root is None:
            root = n
        if k > 1:
            for m in group:
                if k > families[m].depth:
                    raise InconsistentMeteredSets(
                        f"column {m} has no depth-{k} group",
                        depth=k, buses=group)
            edges.append((parent, n,
                          _reference_line_estimate(group, families, k)))
            support[(parent, n)] = len(group)
        rest = group - {n}
        if rest:
            parts = _reference_partition(rest, families, k)
            if n not in group and len(parts) == 1:
                raise InconsistentMeteredSets(
                    f"junction at depth {k} does not separate "
                    f"{sorted(group)}", depth=k, buses=group)
            for part in parts:
                queue.append((part, n, k + 1))

    upstream = sum(f.value_at(1) for f in families.values()) / len(families)
    graph = ReducedGrid(root=root, edges=edges, probing=probing,
                        internal=internal, root_upstream_r=upstream)
    return RecoveryReport(mode="partial", graph=graph, probing=probing,
                          line_support=support)


# -- reference family consistency check ---------------------------------------
#
# The earlier pairwise set scans: a per-column covered-set loop for
# disjointness and cover, then for every pair of owners a linear `find` in
# each family and a per-depth `at` comparison above the split. The library
# now reads one label map per column; this copy pins down that every input
# still gets the same families or the same error and message.


def reference_assemble_families(groupings, value_tol=1e-9):
    gl = list(groupings)
    if not gl:
        raise InconsistentLevelSets("no groupings supplied")
    metered = gl[0].metered
    owners = [g.owner for g in gl]
    if len(set(owners)) != len(owners):
        raise InconsistentLevelSets("duplicate column owners")
    universe = frozenset().union(*(s for g in gl for s in g.sets))

    for g in gl:
        if g.metered != metered:
            raise InconsistentLevelSets("mixed complete/partial groupings")
        covered = set()
        for s in g.sets:
            if covered & s:
                raise InconsistentLevelSets(
                    f"column {g.owner}: bus in two groups")
            covered |= s
        if covered != universe:
            raise InconsistentLevelSets(
                f"column {g.owner} does not cover the observed bus set")
        if any(b <= a for a, b in zip(g.values, g.values[1:])):
            raise InconsistentLevelSets(
                f"column {g.owner}: group values not increasing")
        if g.owner not in g.sets[-1]:
            raise InconsistentLevelSets(
                f"column {g.owner}: owner not in its deepest group")
        if not metered and 0 not in g.sets[0]:
            raise InconsistentLevelSets(
                f"column {g.owner}: substation not in the shallowest group")

    if metered:
        probing = frozenset(owners)
        gl = [replace(g, probing=probing) for g in gl]
    families = {g.owner: g for g in gl}
    _reference_check_pairwise(families, value_tol)
    return families


def _reference_check_pairwise(families, value_tol):
    owners = sorted(families)
    # Complete mode with every non-substation bus an owner: last, each
    # group holds exactly one bus of its own depth, the substation at 0.
    first = families[owners[0]]
    every_bus = (not first.metered
                 and set(owners) == frozenset().union(*first.sets) - {0})
    for i, m in enumerate(owners):
        fm = families[m]
        for k in fm.depths:
            anchors = [s for s in fm.at(k) if s in families
                       and families[s].depth == k]
            if len(anchors) > 1:
                raise InconsistentLevelSets(
                    f"column {m}: several depth-{k} buses {sorted(anchors)} "
                    f"in one depth-{k} group")
        for s in owners[i + 1:]:
            fs = families[s]
            k_ms = fm.find(s)
            k_sm = fs.find(m)
            if k_ms is None or k_sm is None or k_ms != k_sm:
                raise InconsistentLevelSets(
                    f"columns {m} and {s} disagree on their split depth")
            if abs(fm.value_at(k_ms) - fs.value_at(k_sm)) > value_tol:
                raise InconsistentLevelSets(
                    f"columns {m} and {s} disagree on their split value")
            for j in range(fm.start_depth, k_ms):
                if fm.at(j) != fs.at(j):
                    raise InconsistentLevelSets(
                        f"columns {m} and {s} disagree above depth {k_ms}")
    for m in owners if every_bus else ():
        for k in families[m].depths:
            anchors = [s for s in families[m].at(k) if s in families
                       and families[s].depth == k]
            if len(anchors) + (k == 0) != 1:
                raise InconsistentLevelSets(
                    f"column {m}: depth-{k} group does not hold exactly one "
                    f"depth-{k} bus")


def reference_first_differences(labels: np.ndarray) -> np.ndarray:
    """For every pair of columns, the lowest group index whose sets differ
    between them, or the label type's maximum where none does.

    Groups below index k agree exactly when no row that one of the two
    columns puts below k is labelled differently by the other.

    The earlier pairwise pass of the family check, kept as the oracle of
    its agree-above rule.
    """
    n, m = labels.shape
    none = np.iinfo(labels.dtype).max
    out = np.empty((m, m), dtype=labels.dtype)
    step = max(1, _BLOCK // max(n * m, 1))
    right = labels[:, None, :]
    for a in range(0, m, step):
        left = labels[:, a:a + step, None]
        low = np.minimum(left, right)
        np.maximum(low, np.multiply(left == right, none, dtype=labels.dtype),
                   out=low)
        out[a:a + step] = low.min(axis=0, initial=none)
    return out


def _reference_group_values(ranked: np.ndarray, group: np.ndarray,
                            gmax: int) -> np.ndarray:
    """The earlier group-value table: one weighted bincount over the
    entries taken trial by trial and column by column in sorted order."""
    trials, _, m = ranked.shape
    bins = np.arange(trials * m).reshape(trials, 1, m) * gmax
    target = (group + bins).transpose(0, 2, 1).ravel()
    size = trials * m * gmax
    sums = np.bincount(target, weights=ranked.transpose(0, 2, 1).ravel(),
                       minlength=size)
    sizes = np.bincount(target, minlength=size)
    return (sums / np.maximum(sizes, 1)).reshape(trials, m, gmax)


def reference_cut_trials(labelling, values: np.ndarray, threshold: float):
    """The earlier stacked cut, kept as the oracle of the sweep's: a
    candidate (equal starts) keeps the labelling's labels exactly when, in
    every column, each of the labelling's groups, gathered in its sorted
    order, has its maximum strictly below the next group's minimum
    (`reduceat` over the runs). Returns (same, held, table) as
    `grouping._cut_trials` does."""
    if labelling.complete:
        trials, _, m = values.shape
        values = np.concatenate([values, np.zeros((trials, 1, m))], axis=1)
    trials, n, m = values.shape
    ranked = np.sort(values, axis=1)
    same = (_starts(ranked, threshold) == labelling.starts).all(axis=(1, 2))
    # The candidates' entries column by column in the labelling's order,
    # so each of its groups is one run; `firsts` opens the runs, and a run
    # that opens no column is held above the run before it.
    firsts = np.flatnonzero(labelling.starts.T)
    entries = (labelling.order * m + np.arange(m)).T.ravel()
    runs = values.reshape(trials, n * m)[np.flatnonzero(same)[:, None],
                                         entries]
    above = np.flatnonzero(firsts % n)
    same[same] = (np.maximum.reduceat(runs, firsts, axis=1)[:, above - 1]
                  < np.minimum.reduceat(runs, firsts, axis=1)[:, above]
                  ).all(axis=1)
    table = _reference_group_values(ranked[same], labelling.group,
                                    labelling.values.shape[1])
    hierarchy = labelling.hierarchy
    held = ~(_flat(labelling.counts, table).any(axis=-1)
             | _split_value(table, hierarchy.cols, hierarchy.seen,
                            threshold).any(axis=(-2, -1)))
    return same, held, table


# -- reference identification chain -------------------------------------------
#
# The stage chain the `recover` command spelled out before `identify` took
# it over, on the pure copies above: each estimate column grouped by the
# per-column loop (exactly, and matched to 1e-9, when r_min is None; by the
# gap rule with r_min / 2, and matched to r_min / 2, otherwise), the
# families checked by the pairwise scans, then full or partial recovery by
# mode. The library now groups and checks a whole estimate on one label
# matrix, and its per-column functions are adapters over that same core,
# so the reference must not call them.


def reference_group_estimate(estimate, r_min, mode):
    if r_min is not None:
        try:
            real = float(r_min)
        except (TypeError, ValueError, OverflowError):
            raise NonpositiveRmin(f"r_min {r_min!r} is not a number") from None
        if not 0 < real < math.inf:
            raise NonpositiveRmin(
                f"r_min must be positive and finite, got {r_min}")
        r_min = real
    tol = 1e-9 if r_min is None else r_min / 2
    groupings = []
    for m in estimate.col_nodes:
        col = estimate.column(m)
        if r_min is None:
            sets, values, entries = reference_group_exact(col, m, mode=mode)
        else:
            sets, values, entries = reference_group_noisy(col, m, r_min,
                                                          mode=mode)
        groupings.append(ColumnGrouping(
            owner=m, start_depth=int(mode == "partial"), sets=sets,
            values=values, metered=mode == "partial", sorted_entries=entries,
            threshold=None if r_min is None else r_min / 2.0))
    return reference_assemble_families(groupings, value_tol=tol)


def reference_identify(estimate, r_min, mode):
    families = reference_group_estimate(estimate, r_min, mode)
    return (recover_full(families) if mode == "complete"
            else recover_partial(families))


# -- reference record reader and writer ---------------------------------------
#
# The earlier record reader, which converts every value with its own
# float() call. The library now parses the data block with one np.loadtxt
# call and keeps this loop only to decide the blocks that call rejects;
# this copy pins down that every file still gives the same record or the
# same error and message. The earlier writer, likewise, pins down that the
# library's writer gives the same bytes.


def reference_load_record(path: str | os.PathLike) -> ProbingRecord:
    with _read_text(path, FeederFormatError) as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise FeederFormatError(
                f"{path}: line 1: not a JSON header: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "probing-record":
            raise FeederFormatError(f"{path}: not a probing record")
        rows, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise FeederFormatError(
                    f"{path}: line {lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise FeederFormatError(
                    f"{path}: line {lineno}: expected {len(rows[0])} "
                    f"values, got {len(row)}")
            rows.append(row)
            linenos.append(lineno)
    values = np.asarray(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite.all(axis=1)))]
        raise FeederFormatError(
            f"{path}: line {lineno}: measurement values must be finite")
    bus, count = f"{path}: bus", f"{path}: period count"
    try:
        buses = [as_int(b, FeederFormatError, bus) for b in header["buses"]]
        if header["matrix"] is not None:
            plan = ProbingPlan.general(buses, np.asarray(header["matrix"]))
        else:
            plan = ProbingPlan.blocks(
                buses, dict(zip(buses, header["delta"])),
                [as_int(t, FeederFormatError, count)
                 for t in header["periods"]])
        return ProbingRecord(mode=header["mode"],
                             row_nodes=tuple(header["row_nodes"]),
                             values=values,
                             plan=plan,
                             seed=header.get("seed"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FeederFormatError(f"{path}: malformed record: {exc}") from None


def reference_save_record(record: ProbingRecord,
                          path: str | os.PathLike) -> None:
    """The earlier record writer, one repr call per value."""
    plan = record.plan
    header = {
        "kind": "probing-record",
        "mode": record.mode,
        "row_nodes": list(record.row_nodes),
        "buses": list(plan.buses),
        "delta": list(plan.delta) if plan.delta is not None else None,
        "periods": list(plan.periods) if plan.periods is not None else None,
        "matrix": None if plan.matrix is None else plan.matrix.tolist(),
        "seed": record.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh)
        fh.write("\n")
        for row in record.values:
            fh.write(",".join(repr(v) for v in row.tolist()))
            fh.write("\n")


# -- reference simulator ------------------------------------------------------
#
# The earlier simulator, which draws injection and meter noise for every
# bus and then discards the probing rows' injection noise (and, in partial
# mode, every non-probing row). The library now draws only the noise the
# record keeps; this copy pins down that noise-free records are bitwise
# the same and noisy ones have the same distribution.


def reference_simulate_probing(g: FeederGraph, plan: ProbingPlan,
                               noise: NoiseModel, mode: str = "complete",
                               rng: np.random.Generator | None = None
                               ) -> ProbingRecord:
    order = g.bus_order
    pos = {b: i for i, b in enumerate(order)}
    for b in plan.buses:
        if b not in pos:
            raise UnknownProbingBus(f"bus {b} cannot probe")
    if mode not in ("complete", "partial"):
        raise ConfigError(f"unknown mode {mode!r}")

    seed = noise.seed if rng is None else None
    rmat = resistance_matrix(g)
    dmat = plan.injections()
    cols = [pos[b] for b in plan.buses]
    v = rmat.values[:, cols] @ dmat

    if not noise.silent:
        if rng is None:
            rng = np.random.default_rng(noise.seed)
        n, t = len(order), plan.total_periods
        if noise.sigma_p > 0:
            shake = rng.standard_normal((n, t))
            shake[cols, :] = 0.0
            v = v + noise.sigma_p * (rmat.values @ shake)
        if noise.sigma_q > 0:
            xmat = reactance_matrix(g)
            shake = rng.standard_normal((n, t))
            shake[cols, :] = 0.0
            v = v + noise.sigma_q * (xmat.values @ shake)
        if noise.sigma_w > 0:
            v = v + noise.sigma_w * rng.standard_normal((n, t))

    if mode == "partial":
        rows = [pos[b] for b in plan.buses]
        return ProbingRecord(mode=mode, row_nodes=plan.buses,
                             values=v[rows, :], plan=plan, seed=seed)
    return ProbingRecord(mode=mode, row_nodes=order, values=v,
                         plan=plan, seed=seed)


# -- structural claims behind the recovery algorithms -------------------------
#
# Level-set anatomy, one function per claim.


def check_unique_depth_k_member(g: FeederGraph):
    """Each depth-k group holds exactly one depth-k bus, its owner's
    ancestor; every other member lies deeper."""
    for m in g.nodes:
        fam = level_sets(g, m)
        for k in fam.depths:
            group = fam.at(k)
            at_k = sorted(n for n in group if g.depth(n) == k)
            assert at_k == [g.ancestor_at(m, k)], (m, k, at_k)
            assert all(g.depth(n) >= k for n in group), (m, k)


def check_members_share_ancestor(g: FeederGraph):
    """All members of a depth-k group share the owner's depth-k ancestor,
    and that ancestor is itself a member."""
    for m in g.nodes:
        fam = level_sets(g, m)
        for k in fam.depths:
            a = g.ancestor_at(m, k)
            group = fam.at(k)
            assert a in group, (m, k)
            for n in group:
                assert g.ancestor_at(n, k) == a, (m, k, n)


def check_leaf_terminal_group(g: FeederGraph):
    """A leaf's deepest group is the leaf alone."""
    for m in g.leaves:
        fam = level_sets(g, m)
        assert fam.at(fam.depth) == frozenset({m}), m


def check_descendants_inherit_groups(g: FeederGraph):
    """A bus and any of its descendants see identical groups at every
    depth above the bus's own."""
    for n in g.nodes:
        fam_n = level_sets(g, n)
        for s in g.descendants(n):
            fam_s = level_sets(g, s)
            for k in range(g.depth(n)):
                assert fam_n.at(k) == fam_s.at(k), (n, s, k)


def check_own_group_at_own_depth(g: FeederGraph):
    """A bus belongs to its depth-d_m group and to no shallower one."""
    for m in g.nodes:
        fam = level_sets(g, m)
        d = g.depth(m)
        assert m in fam.at(d), m
        for k in range(d):
            assert m not in fam.at(k), (m, k)


# Resistance-column anatomy.


def check_leaf_column_peak(g: FeederGraph):
    """In a leaf's column the diagonal entry is the strict maximum."""
    rmat = resistance_matrix(g)
    for m in g.leaves:
        col = rmat.column(m)
        for n, v in col.items():
            if n != m:
                assert v < col[m], (m, n)


def check_equal_entries_mark_groups(g: FeederGraph):
    """Two buses share a column value exactly when they share a group."""
    rmat = resistance_matrix(g)
    order = g.bus_order
    for m in order:
        fam = level_sets(g, m)
        col = rmat.column(m)
        depth_of = {n: fam.find(n) for n in order}
        for n in order:
            for s in order:
                same_group = depth_of[n] == depth_of[s]
                assert same_group == (col[n] == col[s]), (m, n, s)


def check_group_step_matches_line(g: FeederGraph):
    """Successive group values differ by the resistance of the line
    joining the two ancestors, entry by entry."""
    rmat = resistance_matrix(g)
    for m in g.bus_order:
        fam = level_sets(g, m)
        col = rmat.column(m)
        col[0] = 0.0
        for k in range(1, fam.depth + 1):
            r_line = g.line_r(g.ancestor_at(m, k - 1), g.ancestor_at(m, k))
            assert abs(fam.value_at(k) - fam.value_at(k - 1) - r_line) < 1e-12
            for n in fam.at(k - 1):
                for s in fam.at(k):
                    assert abs(col[s] - col[n] - r_line) < 1e-12, (m, n, s, k)


# Partial observation.


def check_metered_depth_alignment(g: FeederGraph, probing):
    """Metered families match the reduced grid level for level.

    Every level of a probed bus's reduced ancestry contains a probed bus,
    and the depth-k metered group equals the reduced-grid group cut down
    to probed buses. This is what lets the partial recursion read reduced
    depths straight off metered data.
    """
    p = frozenset(probing)
    rg = reduce_grid(g, p)
    for m in sorted(p):
        fam = metered_level_sets(g, m, p)
        assert fam.depth == rg.depth(m), m
        path = []
        n = m
        while n is not None:
            path.append(n)
            n = rg.parent(n)
        path.reverse()
        for k, a in enumerate(path, start=1):
            block = rg.descendants(a)
            if k < len(path):
                block = block - rg.descendants(path[k])
            metered = block & p
            assert metered, (m, k)
            assert fam.at(k) == metered, (m, k)


def check_subtree_intersection_pinpoints_root(g: FeederGraph, probing):
    """Intersecting the depth-k groups of a subtree's probed buses leaves
    exactly the subtree root; probed non-leaf buses add nothing that the
    leaf columns did not already pin down."""
    p = frozenset(probing)
    fams = {m: level_sets(g, m) for m in g.nodes}
    for n in g.nodes:
        k = g.depth(n)
        probed = g.descendants(n) & p
        if not probed:
            continue
        inter = None
        for m in probed:
            s = fams[m].at(k)
            inter = s if inter is None else inter & s
        assert inter == frozenset({n}), (n, k, sorted(inter))
        leaves_only = None
        for m in g.descendants(n) & g.leaves:
            s = fams[m].at(k)
            leaves_only = s if leaves_only is None else leaves_only & s
        assert leaves_only == inter, (n, k)


def check_equal_groups_mark_shared_branching(g: FeederGraph):
    """Two buses share their depth-(k+1) ancestor exactly when their
    depth-k groups coincide."""
    fams = {m: level_sets(g, m) for m in g.nodes}
    nodes = sorted(g.nodes)
    for m in nodes:
        for mp in nodes:
            kmax = min(g.depth(m), g.depth(mp))
            for k in range(kmax):
                same_anc = g.ancestor_at(m, k + 1) == g.ancestor_at(mp, k + 1)
                same_set = fams[m].at(k) == fams[mp].at(k)
                assert same_anc == same_set, (m, mp, k)


def check_probed_root_claims_subtree(g: FeederGraph, probing):
    """Within a subtree's probed buses, the one whose metered depth-k
    group equals the whole probed subtree is the subtree root itself,
    and only exists when the root is probed."""
    p = frozenset(probing)
    for n in g.nodes:
        k = g.depth(n)
        subtree_probed = g.descendants(n) & p
        if not subtree_probed:
            continue
        claimants = {m for m in subtree_probed
                     if level_sets(g, m).at(k) & p == subtree_probed}
        assert claimants == (frozenset({n}) & p), (n, k, sorted(claimants))


def check_probed_below_walks_root_down(g: FeederGraph, probing):
    """Every bus's subtree, as `descendants` gives it, is the set of buses
    whose root path passes through it; `_probed_below` keys each bus to
    its subtree's probed buses, and its reversed keys list every parent
    before its children, the order `compare_graphs` matches lines in."""
    p = frozenset(probing)
    edges = list(g.edges)
    paths = {n: oracle_path(edges, n) for n in g.nodes}
    below = _probed_below(g, p)
    assert set(below) == g.nodes
    for u in g.nodes:
        subtree = frozenset(n for n in g.nodes if u in paths[n])
        assert g.descendants(u) == subtree, u
        assert below[u] == subtree & p, u
    walk = list(reversed(below))
    assert walk[0] == g.root
    at = {n: i for i, n in enumerate(walk)}
    assert all(at[u] < at[v] for u, v, *_ in edges), walk


def check_equal_metered_groups_mark_shared_branching(g: FeederGraph, probing):
    """Among probed buses under one depth-k ancestor, equal metered
    depth-k groups single out exactly the pairs that also share the
    depth-(k+1) ancestor."""
    p = frozenset(probing)
    plist = sorted(p)
    fams = {m: level_sets(g, m) for m in plist}
    for m in plist:
        for mp in plist:
            kmax = min(g.depth(m), g.depth(mp))
            for k in range(kmax):
                if g.ancestor_at(m, k) != g.ancestor_at(mp, k):
                    continue
                same_anc = g.ancestor_at(m, k + 1) == g.ancestor_at(mp, k + 1)
                same_metered = (fams[m].at(k) & p) == (fams[mp].at(k) & p)
                assert same_anc == same_metered, (m, mp, k)
