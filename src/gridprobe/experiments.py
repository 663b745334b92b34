"""The identification pipeline and the Monte Carlo sweeps built on it.

`identify` turns a resistance estimate into a recovered grid; the
`recover` command calls it. It cuts the estimate into a labelling, runs
the family check on it and reads the recovery plan off the labelling's
owner hierarchy, with no family objects or level sets in between. A
sweep runs over a list of per-bus probing durations and, for each,
repeatedly draws the resistance estimate of a probing campaign on a
known feeder from its window sums.
A trial fails in one of three ways, each decided where its rule lives:
its cut differs from the noise-free labelling (grouping, `_cut_trials`'
`same`), its group values break a family-check value rule (grouping,
`held`), or its lines break a recovery line rule (`recovery._replay`'s
`ok`). The sweep learns the noise-free recovery once per call and only
orchestrates: trials, every sweep value's in sweep order, are drawn, cut
and scored as stacked arrays, in chunks that may span sweep values, each
trial bit for bit what it would give alone. Each sweep value draws its
trials in trial order from one stream seeded by (seed, periods), so
results do not depend on chunking or the other sweep values.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import fileio
from .errors import (ConfigError, as_buses, as_choice, as_float,
                     as_instance, as_int, as_path)
from .feeder import FeederGraph
# `identify` calls `_label`, `_planned` and `_report`, and the sweep
# `_exact`, `_planned`, `_sampler`, `_cut_trials`, `_replay` and
# reduce_grid, through these globals. perfbench/tracer.py wraps stages by
# their names in this module and fails if one is missing;
# simulate_probing, estimate_resistances, group_column_noisy,
# assemble_families, recover_full, recover_partial and compare_graphs are
# only its targets.
from .grouping import (_cut_trials, _label, _Labelling, _threshold,
                       assemble_families, group_column_noisy)
from .probing import (MODES, NoiseModel, ProbingPlan, ResistanceEstimate,
                      _check_windows, _exact, _finite, _sampler,
                      estimate_resistances, simulate_probing)
from .recovery import (RecoveryReport, _matched, _planned, _replay,
                       _Replay, _report, compare_graphs, recover_full,
                       recover_partial)
from .reduction import reduce_grid

PROBING_POLICIES = ("all-buses", "all-leaves")
DELTA_POLICIES = ("rated", "fixed")
# Estimate entries (substation row included) per chunk of a sweep's
# trials: trials are drawn, cut and scored this many entries at a time,
# across sweep values, which bounds a sweep's memory at any trial count.
_BLOCK = 1 << 16
# The keys `write_results` reads from every row.
_ROW_KEYS = ("periods", "error_pct", "mpe_pct", "mpe_se", "trials", "seconds")


def _section(raw: Mapping, key: str) -> Mapping:
    return as_instance(raw.get(key, {}), Mapping, ConfigError, key)


@dataclass(frozen=True)
class ExperimentConfig:
    feeder_path: str
    mode: str
    probing: str | tuple[int, ...]
    periods: tuple[int, ...]
    noise: NoiseModel
    r_min: float
    trials: int
    seed: int
    s_base_kva: float
    loads_kw: dict[int, float] = field(default_factory=dict)
    delta_policy: str = "rated"
    delta_multiple: float = 1.0
    delta_default_kw: float | None = None
    delta_value_pu: float | None = None

    def __post_init__(self):
        as_path(self.feeder_path, ConfigError, "feeder_path")
        object.__setattr__(self, "mode", as_choice(self.mode, MODES,
                                                   ConfigError, "mode"))
        if not isinstance(self.probing, str):
            object.__setattr__(self, "probing", as_buses(
                self.probing, ConfigError, "probing"))
        object.__setattr__(self, "periods", tuple(
            as_int(t, ConfigError, "periods", 1) for t in as_instance(
                self.periods, (list, tuple), ConfigError, "periods")))
        for key, least in (("trials", 1), ("seed", 0)):
            object.__setattr__(self, key, as_int(getattr(self, key),
                                                 ConfigError, key, least))
        as_instance(self.noise, NoiseModel, ConfigError, "noise")
        as_instance(self.loads_kw, Mapping, ConfigError, "loads_kw")
        object.__setattr__(self, "loads_kw", {
            as_int(b, ConfigError, "loads_kw bus"):
                as_float(kw, ConfigError, f"loads_kw value of bus {b}",
                         "finite")
            for b, kw in self.loads_kw.items()})
        object.__setattr__(self, "delta_policy", as_choice(
            self.delta_policy, DELTA_POLICIES, ConfigError, "delta policy"))
        # The delta policy in use needs its own scales, and only those,
        # positive.
        rated = self.delta_policy == "rated"
        pos, fin = "positive and finite", "finite"
        for key, within, optional in (
                ("r_min", pos, False),
                ("s_base_kva", pos if rated else fin, False),
                ("delta_multiple", pos if rated else fin, False),
                ("delta_default_kw", fin, True),
                ("delta_value_pu", fin if rated else pos, rated)):
            value = getattr(self, key)
            if not (optional and value is None):
                object.__setattr__(self, key, as_float(value, ConfigError,
                                                       key, within))
        if isinstance(self.probing, str):
            object.__setattr__(self, "probing", as_choice(
                self.probing, PROBING_POLICIES, ConfigError, "probing policy"))
        elif not self.probing:
            raise ConfigError("explicit probing list is empty")
        if not self.periods:
            raise ConfigError("periods sweep is empty")

    @staticmethod
    def from_dict(raw: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Build a config from a parsed YAML mapping.

        Relative feeder paths resolve against base_dir (normally the
        directory the config file came from).
        """
        as_instance(raw, Mapping, ConfigError, "config")
        try:
            nd = _section(raw, "noise")
            dd = _section(raw, "delta")
            cfg = ExperimentConfig(
                feeder_path=os.path.join(base_dir, raw["feeder"]),
                mode=raw["mode"],
                probing=raw.get("probing", "all-leaves"),
                periods=raw["periods"],
                noise=NoiseModel(sigma_p=nd.get("sigma_p", 0.0),
                                 sigma_q=nd.get("sigma_q", 0.0),
                                 sigma_w=nd.get("sigma_w", 0.0)),
                r_min=raw["r_min"],
                trials=raw.get("trials", 1000),
                seed=raw.get("seed", 0),
                s_base_kva=raw.get("s_base_kva", 1.0),
                loads_kw=_section(raw, "loads_kw"),
                delta_policy=dd.get("policy", "rated"),
                delta_multiple=dd.get("multiple", 1.0),
                delta_default_kw=dd.get("default_kw"),
                delta_value_pu=dd.get("value_pu"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad experiment config: {exc!r}") from None
        return cfg

    def probing_buses(self, g: FeederGraph) -> tuple[int, ...]:
        if self.mode == "complete":
            if self.probing not in ("all-buses",) and not isinstance(
                    self.probing, tuple):
                raise ConfigError("complete mode probes every bus; set "
                                  "probing: all-buses")
            if isinstance(self.probing, tuple) and set(self.probing) != set(
                    g.bus_order):
                raise ConfigError("complete mode needs every non-substation "
                                  "bus in the probing list")
            return tuple(g.bus_order)
        if self.probing == "all-buses":
            raise ConfigError("partial mode cannot probe the full bus set; "
                              "use all-leaves or an explicit list")
        if self.probing == "all-leaves":
            return tuple(sorted(g.leaves))
        return tuple(sorted(self.probing))

    def delta_map(self, buses: tuple[int, ...]) -> dict[int, float]:
        if self.delta_policy == "fixed":
            return {m: self.delta_value_pu for m in buses}
        out = {}
        for m in buses:
            kw = self.loads_kw.get(m, self.delta_default_kw)
            if kw is None:
                raise ConfigError(f"bus {m} has no rated load and no "
                                  f"default_kw is set")
            if kw <= 0:
                raise ConfigError(f"bus {m} rated load {kw} kW is not "
                                  f"positive")
            out[m] = self.delta_multiple * kw / self.s_base_kva
        return out


@dataclass(frozen=True)
class ExperimentResult:
    """A sweep's rows, one per sweep value in sweep order, and its
    provenance. A mode other than "complete" or "partial", rows that are
    not a list or tuple of mappings or a provenance that is not a mapping
    raise ConfigError."""

    mode: str
    rows: tuple[dict, ...]
    provenance: dict

    def __post_init__(self):
        object.__setattr__(self, "mode", as_choice(self.mode, MODES,
                                                   ConfigError, "mode"))
        object.__setattr__(self, "rows", tuple(
            as_instance(row, Mapping, ConfigError, "row") for row in
            as_instance(self.rows, (list, tuple), ConfigError, "rows")))
        as_instance(self.provenance, Mapping, ConfigError, "provenance")

    def row(self, periods: int) -> dict:
        for r in self.rows:
            if r["periods"] == periods:
                return r
        raise KeyError(periods)


def identify(estimate: ResistanceEstimate, r_min: float | None,
             mode: str) -> RecoveryReport:
    """Group each column into level sets, check that the families agree,
    and rebuild the feeder (complete mode) or its reduced grid (partial).

    r_min None groups exactly and matches values to 1e-9; a number groups
    by the gap rule with cut r_min / 2 and matches values to r_min / 2.
    Gives what `group_estimate` then `recover_full` or `recover_partial`
    give, without building the groupings.
    """
    return _identify(_label(estimate, r_min, mode))


def _identify(labelling: _Labelling) -> RecoveryReport:
    """The family check, then the recovery plan, read off the labelling's
    owner hierarchy (`_planned`), and its report: `identify`'s steps after
    the cut."""
    labelling.check()
    return _report(_planned(labelling), frozenset(labelling.owners),
                   not labelling.complete)


def _learn(labelling: _Labelling, truth: FeederGraph) -> _Replay:
    """The replay of the noise-free labelling: the family check and the
    recovery plan (`_planned`), which raise what `identify` raises, then
    the plan's lines matched to the truth's (`_matched`), which raises
    LabelMismatch where `compare_graphs` finds no node map. No recovered
    grid is built or compared: the replay holds what `_identify`, then
    `compare_graphs`' node map and the truth's line resistances give."""
    labelling.check()
    plan, _, _ = _planned(labelling)
    return _Replay(plan, *_matched(plan, labelling.owners, truth),
                   not labelling.complete)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured sweep and aggregate error statistics.

    Each trial draws its estimate through `_sampler`'s draw, bit for bit
    what `sample_estimate` would give, which is what simulating and
    estimating the block plan's record would give, in distribution: sweep
    value T's trials are what `sample_estimate` would draw trial after
    trial from one `default_rng((seed, T))`. Ground truth is the feeder
    itself in complete mode and its reduced grid in partial mode. One
    block plan, the first sweep value's, is built outside the trials, and
    every sweep value's windows are checked there too, so a plan defect
    raises ConfigError instead of failing every trial; a draw that
    raises, or that is not finite, stops the sweep too. The sweep
    values' plans differ only in their window lengths, so each value needs
    only its own row of window divisors, delta_j·√T_j of its plan.

    A call learns the noise-free labelling once: it labels the exact
    block R[rows, cols] (`probing._exact`), which is bit for bit the
    noise-free draw and is held to the draw's finiteness rule, and
    `_learn` plans its recovery and matches the plan's lines to the
    truth's, building no grid. Its errors stop the sweep: no trial could
    pass where noise-free data fail. Only then, after every window is
    checked, does `_sampler` check the campaign and build its noise
    factor, once per call, so a window too long to represent is named
    before a line without reactance. The (sweep value, trial) pairs are
    walked in sweep order, in chunks of at most `_BLOCK` estimate entries
    that may span sweep values. A chunk is drawn as one stack, each trial
    divided by its sweep value's window divisors, and held to the family
    check by `_cut_trials`; `_replay` scores the trials it cuts into the
    noise-free labelling. A trial is correct exactly when `identify` and
    `compare_graphs` would find the truth: its cut is the same (`same`),
    its group values pass the family check's value rules (`held`) and its
    lines pass recovery's line rules (`ok`). Any other trial is a
    topology error. Each row's statistics see
    its accepted MPEs in trial order, so a row does not depend on the
    chunk size or on the other sweep values. A row's `seconds` is its
    share of the trial loop's wall time: each chunk's time is shared among
    the rows in it by their trial counts, so the rows add up to the loop's
    time.
    """
    as_instance(config, ExperimentConfig, ConfigError, "config")
    g = fileio.load_feeder(config.feeder_path)
    buses = config.probing_buses(g)
    delta = config.delta_map(buses)
    truth = g if config.mode == "complete" else reduce_grid(g, buses)
    plan = ProbingPlan.blocks(buses, delta, config.periods[0])
    block, rows = _exact(g, plan, config.mode)
    exact = _Labelling.of(plan.buses, rows, _finite(block), config.mode,
                          None)
    replay = _learn(exact, truth)
    threshold = _threshold(config.r_min)
    chunk = max(1, _BLOCK // exact.labels.size)
    # Every sweep value's windows, as its own plan's would be checked. All
    # buses of a plan share its window, so the first bus names the first
    # window that is too long.
    _check_windows(plan.buses[:1] * len(config.periods), config.periods)
    scales = np.array(plan.delta) * np.sqrt(config.periods)[:, None]
    draw, _ = _sampler(g, plan, config.noise, config.mode)
    # One stream per sweep value, drawing its trials in trial order across
    # chunks; silent noise draws nothing, so it needs no generator.
    rngs = [None if config.noise.silent
            else np.random.default_rng((config.seed, t))
            for t in config.periods]

    # Walk the (sweep value, trial) pairs in sweep order, a chunk at a time;
    # a chunk may span sweep values. Accepted MPEs come out in that order,
    # so each row's are a run of them, in trial order.
    sweep = len(config.periods)
    pairs = sweep * config.trials
    found, correct = [np.empty(0)], np.zeros(sweep, dtype=np.intp)
    seconds = np.zeros(sweep)
    for first in range(0, pairs, chunk):
        t0 = time.perf_counter()
        value = np.arange(first, min(first + chunk, pairs)) // config.trials
        # The chunk's trials of each sweep value, a run of its stream.
        counts = np.bincount(value, minlength=sweep)
        draws = draw([(rng, n) for rng, n in zip(rngs, counts.tolist())
                      if n], scales[value])
        same, held, table = _cut_trials(exact, draws, threshold)
        if len(table):
            ok, mpe, _, _ = _replay(replay, table)
            ok &= held
            found.append(mpe[ok])
            correct += np.bincount(value[same][ok], minlength=sweep)
        # A chunk's wall time is shared among its rows by their trials.
        seconds += counts * ((time.perf_counter() - t0) / len(value))

    rows = []
    for periods, mpes, n, spent in zip(
            config.periods,
            np.split(np.concatenate(found), np.cumsum(correct)[:-1]),
            correct.tolist(), seconds.tolist()):
        mpe_pct, mpe_se = _mpe_stats(mpes)
        rows.append({
            "periods": periods,
            "error_pct": 100.0 * (config.trials - n) / config.trials,
            "mpe_pct": mpe_pct,
            "mpe_se": mpe_se,
            "trials": config.trials,
            "seconds": spent,
        })

    provenance = {
        "feeder": os.path.basename(config.feeder_path),
        "mode": config.mode,
        "probing_buses": list(buses),
        "delta_pu": {str(m): delta[m] for m in buses},
        "periods_sweep": list(config.periods),
        "noise": {"sigma_p": config.noise.sigma_p,
                  "sigma_q": config.noise.sigma_q,
                  "sigma_w": config.noise.sigma_w},
        "r_min": config.r_min,
        "trials": config.trials,
        "seed": config.seed,
        "trial_seed_rule": "one numpy default_rng((seed, periods)) per "
                           "sweep value, drawing its trials in trial order",
        "noise_redraw": "non-probed injection deviations are redrawn every "
                        "period, not held fixed per trial",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return ExperimentResult(mode=config.mode, rows=tuple(rows),
                            provenance=provenance)


def _mpe_stats(mpes: np.ndarray) -> tuple[float | None, float | None]:
    """A row's MPE mean and the standard error of that mean, for trend
    checks within Monte Carlo bands; None without the one or two correct
    trials each needs. Bit for bit `float(np.mean(mpes))` and
    `float(np.std(mpes, ddof=1) / np.sqrt(n))`: the same pairwise sums
    (`np.add.reduce`) in the same steps, without their per-call layers."""
    n = len(mpes)
    if not n:
        return None, None
    mean = np.add.reduce(mpes) / n
    if n == 1:
        return float(mean), None
    dev = mpes - mean
    return float(mean), (math.sqrt(np.add.reduce(dev * dev) / (n - 1))
                         / math.sqrt(n))


def write_results(result: ExperimentResult, out_dir: str | os.PathLike) -> None:
    """Emit results.csv (with timing) and results.json (timing-free).

    The JSON file is byte-stable for a fixed config and seed; the CSV
    repeats the same statistics plus a wall-time column. Every row is
    checked before either file is touched: `periods` and `trials` must be
    integers, `error_pct` finite, `mpe_pct` and `mpe_se` None or finite
    and `seconds` finite and nonnegative, and the provenance must be
    JSON, or ConfigError is raised. The checked values are written, so a
    numpy scalar writes as its Python value does.
    """
    as_instance(result, ExperimentResult, ConfigError, "result")
    rows = [_checked_row(row) for row in result.rows]
    payload = {
        "provenance": result.provenance,
        "results": [{k: row[k] for k in
                     ("periods", "error_pct", "mpe_pct", "mpe_se", "trials")}
                    for row in rows],
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"provenance cannot be written as JSON: {exc}"
                          ) from None
    os.makedirs(as_path(out_dir, ConfigError, "out_dir"), exist_ok=True)
    with fileio._write_text(os.path.join(out_dir, "results.csv"),
                            newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T_m", "error_pct", "mpe_pct", "trials", "seconds"])
        for row in rows:
            mpe = "" if row["mpe_pct"] is None else repr(row["mpe_pct"])
            w.writerow([row["periods"], repr(row["error_pct"]), mpe,
                        row["trials"], f"{row['seconds']:.3f}"])
    with fileio._write_text(os.path.join(out_dir, "results.json")) as fh:
        fh.write(text)


def _checked_row(row: Mapping) -> dict:
    """The `_ROW_KEYS` of a result row as checked Python values."""
    missing = sorted(set(_ROW_KEYS) - set(row))
    if missing:
        raise ConfigError(f"result row lacks {missing}")
    out = {key: as_int(row[key], ConfigError, f"row {key}")
           for key in ("periods", "trials")}
    out["error_pct"] = as_float(row["error_pct"], ConfigError,
                                "row error_pct", "finite")
    for key in ("mpe_pct", "mpe_se"):
        out[key] = None if row[key] is None else as_float(
            row[key], ConfigError, f"row {key}", "finite")
    out["seconds"] = as_float(row["seconds"], ConfigError, "row seconds",
                              "finite and nonnegative")
    return out
