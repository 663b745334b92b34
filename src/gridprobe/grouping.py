"""Recovery of level-set families from resistance-matrix columns.

Every column of the bus resistance matrix is constant on each of the
owner bus's level sets, and the constants strictly increase with depth.
Grouping a column's entries by value therefore reads the owner's level
sets straight off the data: exactly on clean columns, and by a sorted
gap rule on noisy ones, where a jump larger than half the smallest line
resistance marks a boundary between groups.

One gap routine cuts any number of columns at once into a label matrix
(bus x column owner, each entry the index of the bus's group), and one
family check runs on that matrix. Grouping's one product is a labelling
(`_Labelling`): the checked columns of a whole estimate
(`group_estimate`) or of one column (`group_column_exact`,
`group_column_noisy`), cut, and read out in one place, as the level sets
and value table recovery reads or as `ColumnGrouping`s. Each labelling
carries one owner hierarchy (`_Hierarchy`): for each column and each of
its levels, the first owner it sees that deep. The family check,
recovery's plan (`recovery._hierarchy_walk`) and a sweep's cut read it.
One primitive (`_disagreement`) tests the agree-above rule, both for
the hierarchy and, where the hierarchy fails, to name the first failing
pair. `assemble_families` reads ready-made groupings into the same
check, and `_cut_trials` holds a sweep's stack of trials to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (ConfigError, InconsistentLevelSets, NonpositiveRmin,
                     as_buses, as_choice, as_float, as_instance, as_int)
from .feeder import LevelSetFamily
from .probing import MODES, ResistanceEstimate

SUBSTATION = 0
# Elements per temporary array of the agree-above test (`_disagreement`),
# which may gather n·Σdepth label entries for the owner hierarchy, or
# n·m²/2 for the pairs of a failing check. This bounds its memory on large
# feeders.
_BLOCK = 1 << 18


@dataclass(frozen=True)
class LevelGroup:
    """One recovered level set: depth index, member buses, shared value."""

    depth: int
    nodes: frozenset[int]
    value: float

    def __post_init__(self):
        object.__setattr__(self, "depth",
                           as_int(self.depth, ConfigError, "group depth"))


@dataclass(frozen=True)
class ColumnGrouping(LevelSetFamily):
    """The level-set family read off one resistance-matrix column.

    Complete-mode groupings cover every non-substation bus plus a
    synthetic zero entry for the substation, and are indexed from depth 0.
    Partial-mode groupings cover probed buses only, are indexed from
    depth 1 (depth in the reduced grid) and are metered. Besides the
    family, a grouping keeps the sorted column, a tuple of (bus ID, real)
    pairs, and the gap threshold, positive and finite or None for exact
    grouping, for diagnostics; anything else raises ConfigError.
    """

    sorted_entries: tuple[tuple[int, float], ...] = ()
    threshold: float | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.threshold is not None:
            object.__setattr__(self, "threshold", as_float(
                self.threshold, ConfigError, "grouping threshold",
                "positive and finite"))
        # Grouping builds (int, float) tuples: only another type is
        # checked and converted.
        entries = as_instance(self.sorted_entries, (tuple, list),
                              ConfigError, "sorted_entries")
        if type(entries) is not tuple or not all(
                type(e) is tuple and len(e) == 2 and type(e[0]) is int
                and type(e[1]) is float for e in entries):
            object.__setattr__(self, "sorted_entries", tuple(
                _entry(e, self.owner) for e in entries))

    @property
    def mode(self) -> str:
        return "partial" if self.metered else "complete"

    @property
    def groups(self) -> tuple[LevelGroup, ...]:
        return tuple(LevelGroup(k, s, v) for k, s, v
                     in zip(self.depths, self.sets, self.values))

    nodes_at = LevelSetFamily.at


def _entry(entry, owner: int) -> tuple[int, float]:
    """One sorted entry of column `owner` as a (bus ID, real) pair."""
    what = f"sorted entry of column {owner}"
    if not isinstance(entry, (tuple, list)) or len(entry) != 2:
        raise ConfigError(f"{what} must be a (bus, value) pair, got "
                          f"{entry!r}")
    return (as_int(entry[0], ConfigError, f"{what}: bus"),
            as_float(entry[1], ConfigError, f"{what}: value"))


# -- the gap routine ----------------------------------------------------------


def _sort_cut(buses: np.ndarray, values: np.ndarray, cut: float
              ) -> tuple[np.ndarray, ...]:
    """Cut a stack of matrices (trials x rows x columns) at once: sort
    every column, ties by bus ID, and start a new group wherever the gap
    to the previous entry exceeds cut (zero for exact grouping).

    Returns, each trials x rows x columns, the rows of every column by
    value (order), their values (ranked), the sorted rows that open a
    group (starts), each sorted row's group index (group) and each row's
    group index (labels).
    """
    by_bus = np.argsort(buses, kind="stable")
    values = values[:, by_bus]
    rank = np.argsort(values, axis=1, kind="stable")
    order = by_bus[rank]
    # Each (trial, column) pair indexes its own sorted rows.
    trial = np.arange(len(values))[:, None, None]
    column = np.arange(values.shape[2])
    ranked = values[trial, rank, column]
    starts = _starts(ranked, cut)
    group = np.cumsum(starts, axis=1) - 1
    labels = np.empty(ranked.shape, dtype=np.min_scalar_type(len(buses)))
    labels[trial, order, column] = group
    return order, ranked, starts, group, labels


def _starts(ranked: np.ndarray, cut: float) -> np.ndarray:
    """The one gap rule, on a stack of sorted columns (trials x rows x
    columns): the first row opens a group, and so does every row whose
    gap to the row before exceeds cut. Gaps that overflow compare without
    a warning: inf opens a group, NaN (inf - inf) does not."""
    starts = np.ones(ranked.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        np.greater(ranked[:, 1:] - ranked[:, :-1], cut, out=starts[:, 1:])
    return starts


def _group_values(ranked: np.ndarray, group: np.ndarray,
                  gmax: int) -> np.ndarray:
    """The value of every group of a stack of sorted columns (trials x
    columns x gmax, 0.0 past a column's last group).

    A group value is the left-to-right sum of its sorted run, started
    from 0, divided by the run's length: bit for bit what Python's sum
    gave before 3.12, on any Python. One weighted bincount over the
    entries in their stacked (trial, sorted row, column) order gives
    exactly that, since it adds each weight into its bin from 0.0 in
    index order, and each bin's entries come in sorted order. Pairwise or
    compensated summation (np.mean, np.add.reduceat, math.fsum) rounds
    differently.
    """
    trials, _, m = ranked.shape
    target = (group + np.arange(m) * gmax
              + np.arange(trials)[:, None, None] * (m * gmax)).ravel()
    size = trials * m * gmax
    sums = np.bincount(target, weights=ranked.ravel(), minlength=size)
    sizes = np.bincount(target, minlength=size)
    return (sums / np.maximum(sizes, 1)).reshape(trials, m, gmax)


# -- the family check ---------------------------------------------------------


def _flat(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per column: do two successive group values fail to increase?
    values may stack trials on its leading axes."""
    steps = np.arange(values.shape[-1] - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return ((values[..., 1:] <= values[..., :-1])
                & (steps < counts[:, None] - 1)).any(axis=-1)


def _check_columns(labels: np.ndarray, counts: np.ndarray, values: np.ndarray,
                   owners: Sequence[int], owner_rows: np.ndarray,
                   substation_row: int | None) -> None:
    """Per column, in column order: group values increase, the owner sits
    in the deepest group and (complete mode) the substation in the
    shallowest. A row of -1 means the bus is in no group."""
    m = len(owners)
    flat = _flat(counts, values)
    deep = owner_rows >= 0
    deep[deep] = (labels[owner_rows[deep], np.flatnonzero(deep)]
                  == counts[deep] - 1)
    if substation_row is None:
        shallow = np.ones(m, dtype=bool)
    elif substation_row < 0:
        shallow = np.zeros(m, dtype=bool)
    else:
        shallow = labels[substation_row] == 0
    bad = flat | ~deep | ~shallow
    if not bad.any():
        return
    j = int(bad.argmax())
    if flat[j]:
        problem = "group values not increasing"
    elif not deep[j]:
        problem = "owner not in its deepest group"
    else:
        problem = "substation not in the shallowest group"
    raise InconsistentLevelSets(f"column {owners[j]}: {problem}")


def _disagreement(labels: np.ndarray, cols: np.ndarray, left: np.ndarray,
                  right: np.ndarray, level: np.ndarray) -> int:
    """The agree-above rule on (left, right, level) triples of columns
    indexed into cols: the first triple whose columns differ below level,
    min(labels[:, left], level) != min(labels[:, right], level) on some
    row, or -1 if none does. Tested in order, in blocks of `_BLOCK`
    elements, up to the first block that holds a failure."""
    columns = np.ascontiguousarray(labels[:, cols].T)
    level = level.astype(labels.dtype)[:, None]
    step = max(1, _BLOCK // max(labels.shape[0], 1))
    for i in range(0, len(left), step):
        at = slice(i, i + step)
        differ = (np.minimum(columns[left[at]], level[at])
                  != np.minimum(columns[right[at]], level[at]))
        if differ.any():
            return i + int(differ.any(axis=1).argmax())
    return -1


class _Hierarchy(NamedTuple):
    """The owners of a labelling as one hierarchy, owners ascending.

    cols lists the columns in ascending owner order and seen[a, b] is the
    group that owner a's column puts owner b in. rep[a, L], for each
    level L up to owner a's deepest group, is the first owner whose seen
    with a is at least L, and -1 past a's deepest group. rep is None
    unless every owner sits in its deepest group, seen is symmetric and
    the prefix rule holds: below each of its levels L, every column
    agrees with its rep column, min(labels[:, a], L) == min(labels[:,
    rep[a, L]], L) on every row: the agree-above rule (`_disagreement`)
    on the triples (a, rep[a, L], L).

    Where rep is not None, the rule "two owners' columns hold identical
    groups above the depth at which they see each other" holds for every
    pair: for s = seen[a, b], row b of the test at (a, s) puts b at least
    s deep in rep[a, s]'s column, so symmetry makes rep[a, s] and rep[b,
    s] one owner, whose column both agree with below s. Then the owners
    whose seen with a is at least L are exactly those with a's rep at L:
    the classes of rep[:, L] are the groups a root-down walk holds at
    level L.
    """

    cols: np.ndarray
    seen: np.ndarray
    rep: np.ndarray | None


def _hierarchy(labels: np.ndarray, counts: np.ndarray, owners: Sequence[int],
               owner_rows: np.ndarray) -> _Hierarchy:
    """The owner hierarchy of a label matrix: a row-wise running max of
    seen and one searchsorted give rep, and the prefix rule is tested
    (`_disagreement`) only at the last level of each run of one rep in a
    row, since agreeing below L implies agreeing below every lower level.
    Costs O(n·Σcounts) at most."""
    cols = np.argsort(np.asarray(owners), kind="stable")
    seen = labels[owner_rows[cols], cols[:, None]].astype(np.intp)
    deep = counts[cols] - 1
    if not ((np.diagonal(seen) == deep).all() and (seen == seen.T).all()):
        return _Hierarchy(cols, seen, None)
    m, depth = len(cols), int(deep.max()) + 1
    held = np.arange(depth) <= deep[:, None]
    a, level = np.nonzero(held)
    # Row a's running max lies in [a·depth, a·depth + deep[a]], so the
    # offset rows sort as one array; seen[a, a] = deep[a] bounds each
    # search to its own row.
    climb = np.maximum.accumulate(seen, axis=1) + np.arange(m)[:, None] * depth
    rep = np.full((m, depth), -1)
    rep[held] = np.searchsorted(climb.ravel(), a * depth + level) - a * m
    last = held & (rep != np.arange(m)[:, None])
    last[:, :-1] &= rep[:, 1:] != rep[:, :-1]
    a, level = np.nonzero(last)
    failed = _disagreement(labels, cols, a, rep[a, level], level) >= 0
    return _Hierarchy(cols, seen, None if failed else rep)


def _split_value(values: np.ndarray, cols: np.ndarray, seen: np.ndarray,
                 value_tol: float) -> np.ndarray:
    """split_value[..., a, b]: owners a and b, ascending, give the groups
    that hold each other values further apart than value_tol. values may
    stack trials on its leading axes."""
    *lead, m, gmax = values.shape
    at = np.take(values.reshape(*lead, m * gmax), cols[:, None] * gmax + seen,
                 axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(at - np.swapaxes(at, -1, -2)) > value_tol


def _check_pairs(labels: np.ndarray, counts: np.ndarray, values: np.ndarray,
                 owners: Sequence[int], hierarchy: _Hierarchy, start: int,
                 value_tol: float, every_bus: bool) -> None:
    """The cross-column checks, owners taken in ascending order.

    Needs every owner in its own deepest group and every column to label
    every row. If owner m's column puts owner s at depth k, s's column
    must put m at depth k with the same value (within value_tol), and the
    two must hold identical groups above depth k. A depth-k group may hold
    at most one owner of depth k.

    In complete mode with every non-substation bus an owner (`every_bus`),
    each group of column m must also hold exactly one bus of its own
    depth, the substation being the one bus of depth 0; this is checked
    after every other rule. On such families the rules hold exactly when
    `recover_full` rebuilds a tree without error. For other owner sets
    (partial mode, or complete mode where a junction need not be an
    owner) some families pass and still fail in recovery, so recovery's
    own errors still apply there.

    The identical-groups rule reads the owner hierarchy: where its rep
    exists, no pair breaks it. Otherwise its test (`_disagreement`) runs
    on the pairs (a, b > a, seen[a, b]) in row order, up to the first row
    another rule stops at, to name the first pair that breaks it.
    """
    m = len(owners)
    cols, seen = hierarchy.cols, hierarchy.seen
    ascending = [owners[c] for c in cols.tolist()]
    deep = counts[cols] - 1
    anchor = seen == deep
    gmax = values.shape[1]
    tally = np.bincount((np.arange(m)[:, None] * gmax + deep)[anchor],
                        minlength=m * gmax).reshape(m, gmax)
    crowded = tally > 1
    split_depth = seen != seen.T
    split_value = _split_value(values, cols, seen, value_tol)
    bad = np.triu(split_depth | split_value, 1)
    stop = crowded.any(axis=1) | bad.any(axis=1)
    if hierarchy.rep is None:
        a, b = np.triu_indices(m, 1)
        pairs = a <= (stop.argmax() if stop.any() else m)
        a, b = a[pairs], b[pairs]
        first = _disagreement(labels, cols, a, b, seen[a, b])
        if first >= 0:
            bad[a[first], b[first]] = stop[a[first]] = True
    if not stop.any():
        if every_bus:
            # Checked last, so families the rules above reject keep their
            # message. Here start is 0 and the substation sits in group 0.
            tally[:, 0] += 1
            lone = (tally != 1) & (np.arange(gmax) <= deep[:, None])
            if lone.any():
                a, k = divmod(int(lone.argmax()), gmax)
                raise InconsistentLevelSets(
                    f"column {ascending[a]}: depth-{k} group does not hold "
                    f"exactly one depth-{k} bus")
        return
    a = int(stop.argmax())
    if crowded[a].any():
        k = int(crowded[a].argmax())
        buses = [ascending[b]
                 for b in np.flatnonzero(anchor[a] & (deep == k))]
        raise InconsistentLevelSets(
            f"column {ascending[a]}: several depth-{k + start} buses {buses} "
            f"in one depth-{k + start} group")
    b = int(bad[a].argmax())
    pair = f"columns {ascending[a]} and {ascending[b]} disagree"
    if split_depth[a, b]:
        raise InconsistentLevelSets(f"{pair} on their split depth")
    if split_value[a, b]:
        raise InconsistentLevelSets(f"{pair} on their split value")
    raise InconsistentLevelSets(f"{pair} above depth {seen[a, b] + start}")


# -- entry points -------------------------------------------------------------


def _threshold(r_min) -> float:
    """The gap rule's cut r_min / 2, which must be positive: a subnormal
    r_min can halve to zero."""
    cut = as_float(r_min, NonpositiveRmin, "r_min",
                   "positive and finite") / 2.0
    if not cut:
        raise NonpositiveRmin(f"r_min {r_min!r} halves to zero")
    return cut


def _columns(owners: Sequence[int], rows: Sequence[int], values: np.ndarray,
             mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the columns of a rows x owners matrix, the first bad one in
    column order: its owner must be one of the rows, its entries finite
    and, in complete mode, no row the substation's. Returns the bus array
    and values to cut, with the substation's zero row appended in
    complete mode, and each owner's row."""
    if not owners:
        raise InconsistentLevelSets("no groupings supplied")
    index = {n: i for i, n in enumerate(rows)}
    owner_rows = np.array([index.get(m, -1) for m in owners])
    finite = np.isfinite(values)
    complete = mode == "complete"
    bad = ((owner_rows < 0) | ~finite.all(axis=0)
           | (complete and SUBSTATION in index))
    if bad.any():
        j = int(bad.argmax())
        if owner_rows[j] < 0:
            raise InconsistentLevelSets(
                f"column owner {owners[j]} missing from its own entries")
        if not finite[:, j].all():
            i = int(finite[:, j].argmin())
            raise InconsistentLevelSets(
                f"column {owners[j]}: entry of bus {rows[i]} is "
                f"{float(values[i, j])}, not finite")
        raise InconsistentLevelSets(
            "complete-mode columns must not include the substation")
    if complete:
        rows = (*rows, SUBSTATION)
        values = np.vstack([values, np.zeros((1, len(owners)))])
    return np.array(rows), values, owner_rows


class _Labelling(NamedTuple):
    """Columns cut by the gap rule, before the family check.

    owners lists the column owners, buses the rows (the substation's zero
    row last in complete mode) and owner_rows each owner's row.
    order[:, j] lists the rows of column j by value, ties by bus ID, and
    ranked[:, j] their values; starts[i, j] marks the sorted row that
    opens a group and group[i, j] indexes the group of the i-th sorted row.
    labels[i, j] is the index of the group holding row i in column j and
    tops[i, j] the sorted row that closes that group (a sweep's cut),
    counts[j] the number of groups in column j and values[j, :counts[j]]
    their values (0.0 past the last group). hierarchy is the owners' one
    hierarchy (`_hierarchy`), which the family check, the recovery plan
    and a sweep's cut read.

    For fixed owners, rows, mode and r_min, the label matrix fixes every
    level set and depth: two estimates with equal labels pass or fail
    every check but the value rules alike, and recover to the same
    topology.
    """

    owners: tuple[int, ...]
    buses: np.ndarray
    owner_rows: np.ndarray
    complete: bool
    threshold: float | None
    order: np.ndarray
    ranked: np.ndarray
    starts: np.ndarray
    group: np.ndarray
    tops: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    values: np.ndarray
    hierarchy: _Hierarchy

    @classmethod
    def of(cls, owners: tuple[int, ...], rows: Sequence[int],
           values: np.ndarray, mode: str,
           threshold: float | None) -> "_Labelling":
        """Check the columns of a rows x owners matrix (`_columns`), then
        cut them at threshold (None cuts exactly)."""
        buses, values, owner_rows = _columns(owners, rows, values, mode)
        order, ranked, starts, group, labels = _sort_cut(
            buses, values[None], 0.0 if threshold is None else threshold)
        counts = group[0, -1] + 1
        # Column by column, the sorted rows that close a group: those
        # before a start, and the last.
        ends = np.ones_like(starts[0])
        ends[:-1] = starts[0, 1:]
        closes = np.flatnonzero(ends.T) % len(buses)
        table = _group_values(ranked, group, int(counts.max()))
        return cls(owners, buses, owner_rows, mode == "complete", threshold,
                   order[0], ranked[0], starts[0], group[0],
                   closes[np.cumsum(counts) - counts + labels[0]], labels[0],
                   counts, table[0],
                   _hierarchy(labels[0], counts, owners, owner_rows))

    @property
    def value_tol(self) -> float:
        return 1e-9 if self.threshold is None else self.threshold

    def check(self) -> None:
        """The family check: every rule, the first failure raised."""
        n = len(self.buses)
        _check_columns(self.labels, self.counts, self.values, self.owners,
                       self.owner_rows, n - 1 if self.complete else None)
        _check_pairs(self.labels, self.counts, self.values, self.owners,
                     self.hierarchy, int(not self.complete), self.value_tol,
                     self.complete and len(self.owners) == n - 1)

    def read(self) -> tuple[dict[int, tuple[frozenset[int], ...]],
                            np.ndarray]:
        """What `recovery._read` gives for the labelling's families: each
        owner's level sets, in column order, and the one-trial group-value
        table (1 x owners x groups)."""
        n = len(self.buses)
        firsts = (np.flatnonzero(self.starts.T.ravel()) % n).tolist()
        sets = {}
        k = 0
        for owner, col, count in zip(self.owners,
                                     self.buses[self.order].T.tolist(),
                                     self.counts.tolist()):
            bounds = firsts[k:k + count] + [n]
            k += count
            sets[owner] = tuple(frozenset(col[a:b])
                                for a, b in zip(bounds, bounds[1:]))
        return sets, self.values[None]

    def families(self, probing: frozenset[int] | None = None
                 ) -> dict[int, ColumnGrouping]:
        """One ColumnGrouping per column, keyed by owner in column order;
        partial-mode ones carry `probing`."""
        sets, _ = self.read()
        metered = not self.complete
        entries = zip(self.buses[self.order].T.tolist(),
                      self.ranked.T.tolist())
        return {owner: ColumnGrouping(
                    owner=owner, start_depth=int(metered), sets=s,
                    values=tuple(values[:len(s)]), metered=metered,
                    probing=probing, sorted_entries=tuple(zip(*col)),
                    threshold=self.threshold)
                for (owner, s), values, col in zip(
                    sets.items(), self.values.tolist(), entries)}


def _label(estimate: ResistanceEstimate, r_min: float | None,
           mode: str) -> _Labelling:
    """Check an estimate's arguments and columns, then cut it."""
    as_instance(estimate, ResistanceEstimate, ConfigError, "estimate")
    threshold = None if r_min is None else _threshold(r_min)
    mode = as_choice(mode, MODES, InconsistentLevelSets, "mode")
    return _Labelling.of(estimate.col_nodes, estimate.row_nodes,
                         estimate.values, mode, threshold)


def _cut_trials(labelling: _Labelling, values: np.ndarray, threshold: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hold a stack of estimates (trials x rows x owners) to the family
    check of a labelling that passed it, cut by the gap rule at
    `threshold`, which must be positive, with its rows and owners. Returns
    `same`, which trials cut into its labels and so pass every rule that
    reads labels; `held`, for those trials, whether their group values
    pass the value rules at threshold too; and their group values (trials
    x owners x groups), bit for bit what `_label` gives each.

    A trial's labels are the labelling's exactly when its sorted values
    open groups where the labelling's do (`starts`) and every entry is at
    most the last sorted value of the group the labelling puts it in
    (`tops`): equal starts alone let buses of adjacent groups swap values.
    With equal starts and a positive cut, every group's top lies strictly
    below the next group's first value, so in each column the rows whose
    entries are at most group g's top are exactly the trial's groups
    0..g; by induction over g, the bound holds exactly when each of the
    labelling's groups is the trial's. Neither test needs a trial's own
    sort order, so no trial is argsorted or labelled, and an accepted
    trial's sorted values are valued on the labelling's group index.
    """
    trials, _, m = values.shape
    if labelling.complete:
        values = np.concatenate([values, np.zeros((trials, 1, m))], axis=1)
    ranked = np.sort(values, axis=1)
    same = (_starts(ranked, threshold) == labelling.starts).all(axis=(1, 2))
    # Every candidate's group tops, by one flat index into its sorted rows.
    kept = values[same]
    top = np.take(ranked.reshape(trials, values.shape[1] * m)[same],
                  (labelling.tops * m + np.arange(m)).ravel(), axis=1)
    same[same] = (kept <= top.reshape(kept.shape)).all(axis=(1, 2))
    table = _group_values(ranked[same], labelling.group,
                          labelling.values.shape[1])
    hierarchy = labelling.hierarchy
    held = ~(_flat(labelling.counts, table).any(axis=-1)
             | _split_value(table, hierarchy.cols, hierarchy.seen,
                            threshold).any(axis=(-2, -1)))
    return same, held, table


def group_estimate(estimate: ResistanceEstimate, r_min: float | None,
                   mode: str) -> dict[int, ColumnGrouping]:
    """Group every column of an estimate and check the families agree.

    r_min None groups exactly and matches values to 1e-9; a number groups
    by the gap rule with cut r_min / 2 and matches values to r_min / 2.
    Returns the groupings keyed by owner in column order, or raises the
    first error that grouping each column with `group_column_exact` or
    `group_column_noisy`, in column order, and then `assemble_families`
    would raise. Anything but a ResistanceEstimate raises ConfigError.
    """
    labelling = _label(estimate, r_min, mode)
    labelling.check()
    return labelling.families(
        None if labelling.complete else frozenset(labelling.owners))


def _group(entries: Mapping[int, float], owner: int, mode: str,
           threshold: float | None) -> ColumnGrouping:
    """Cut one column: the gap routine on a single-column matrix."""
    as_instance(entries, Mapping, ConfigError, "column entries")
    mode = as_choice(mode, MODES, InconsistentLevelSets, "mode")
    owner = as_int(owner, InconsistentLevelSets, "column owner")
    # Read no entry of a column without its owner: `_columns` names that
    # first.
    keys = list(entries) if owner in entries else []
    rows = as_buses(keys, InconsistentLevelSets, "column entries")
    values = np.array([as_float(entries[k], InconsistentLevelSets,
                                f"column {owner}: entry of bus {n}")
                       for k, n in zip(keys, rows)], dtype=float)[:, None]
    return _Labelling.of((owner,), rows, values, mode,
                         threshold).families()[owner]


def group_column_exact(entries: Mapping[int, float], owner: int,
                       mode: str = "complete") -> ColumnGrouping:
    """Group a noise-free column by exact value equality.

    This is the gap rule with a zero cut: on sorted finite entries a gap
    of zero or less means equal values.
    """
    return _group(entries, owner, mode, threshold=None)


def group_column_noisy(entries: Mapping[int, float], owner: int,
                       r_min: float, mode: str = "complete") -> ColumnGrouping:
    """Group a noisy column with the sorted gap rule.

    A new group starts wherever the gap between successive sorted entries
    exceeds r_min / 2. Negative estimates are kept as they are; they sort
    below the substation's zero and end up in the shallowest group unless
    the gap rule separates them. The group value is the member mean.
    """
    return _group(entries, owner, mode, threshold=_threshold(r_min))


def grouping_diagnostics(grouping: ColumnGrouping) -> dict:
    """JSON-ready dump of one column's sorted entries, gaps and boundaries."""
    as_instance(grouping, ColumnGrouping, ConfigError, "grouping")
    values = [v for _, v in grouping.sorted_entries]
    gaps = [b - a for a, b in zip(values, values[1:])]
    sizes = [len(grp.nodes) for grp in grouping.groups]
    return {
        "owner": grouping.owner,
        "mode": grouping.mode,
        "entries": [[n, v] for n, v in grouping.sorted_entries],
        "gaps": gaps,
        "threshold": grouping.threshold,
        "boundaries": list(accumulate(sizes[:-1])),
        "groups": [
            {"depth": grp.depth, "buses": sorted(grp.nodes), "value": grp.value}
            for grp in grouping.groups
        ],
    }


def assemble_families(groupings: Iterable[ColumnGrouping],
                      value_tol: float = 1e-9) -> dict[int, ColumnGrouping]:
    """Check that per-column groupings form mutually consistent families.

    Returns the groupings keyed by owner: complete-mode groupings as they
    are, partial-mode ones stamped with the probing set (the owners).

    The groupings are read into one label matrix, bus x owner, each entry
    the index of the bus's group; a column whose groups overlap or miss
    an observed bus cannot be read and is rejected. If owner m sees owner
    s at depth k, s must see m at depth k with the same value (within
    value_tol), both must hold identical groups above depth k, and no
    depth-k group may hold two owners of depth k. In complete mode with
    every non-substation bus an owner, each depth-k group must also hold
    exactly one bus of depth k, the substation at depth 0. Any violation
    means the groupings cannot come from one feeder at the claimed noise
    level. An item that is not a level-set family raises ConfigError.
    """
    value_tol = as_float(value_tol, ConfigError, "value_tol",
                         "finite and nonnegative")
    gl = list(as_instance(groupings, Iterable, ConfigError, "groupings"))
    for g in gl:
        as_instance(g, LevelSetFamily, ConfigError, "grouping")
    if not gl:
        raise InconsistentLevelSets("no groupings supplied")
    metered, start = gl[0].metered, gl[0].start_depth
    owners = [g.owner for g in gl]
    if len(set(owners)) != len(owners):
        raise InconsistentLevelSets("duplicate column owners")
    universe = frozenset().union(*(s for g in gl for s in g.sets))
    index = {n: i for i, n in enumerate(universe)}
    width = max(len(g.sets) for g in gl)
    labels = np.zeros((len(index), len(gl)),
                      dtype=np.min_scalar_type(max(len(index), width)))
    values = np.zeros((len(gl), width))
    counts = np.array([len(g.sets) for g in gl])
    owner_rows = np.array([index.get(m, -1) for m in owners])
    substation_row = None if metered else index.get(SUBSTATION, -1)

    for j, g in enumerate(gl):
        problem = None
        label = {n: k for k, s in enumerate(g.sets) for n in s}
        # A family indexed from another depth is another mode's family.
        if (g.metered, g.start_depth) != (metered, start):
            problem = "mixed complete/partial groupings"
        elif len(label) != sum(map(len, g.sets)):
            problem = f"column {g.owner}: bus in two groups"
        elif len(label) != len(universe):
            problem = f"column {g.owner} does not cover the observed bus set"
        if problem:
            _check_columns(labels[:, :j], counts[:j], values[:j], owners[:j],
                           owner_rows[:j], substation_row)
            raise InconsistentLevelSets(problem)
        labels[[index[n] for n in label], j] = list(label.values())
        values[j, :len(g.values)] = g.values
    _check_columns(labels, counts, values, owners, owner_rows, substation_row)
    _check_pairs(labels, counts, values, owners,
                 _hierarchy(labels, counts, owners, owner_rows), start,
                 value_tol,
                 not metered and set(owners) == universe - {SUBSTATION})

    if metered:
        probing = frozenset(owners)
        gl = [replace(g, probing=probing) for g in gl]
    return {g.owner: g for g in gl}
