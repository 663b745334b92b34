"""The identification pipeline and the Monte Carlo sweeps built on it.

`identify` turns a resistance estimate into a recovered grid; the
`recover` command calls it. A sweep runs over a list of per-bus probing
durations and, for each, repeatedly draws the resistance estimate of a
probing campaign on a known feeder from its window sums
(`sample_estimate`), cuts it into a labelling and scores it against
ground truth by replaying the recovery learned once for that labelling.
Trials that raise any pipeline error count as topology errors;
per-trial seeds are derived from (seed, periods, trial) so results do
not depend on execution order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from . import fileio
from .errors import (ConfigError, GridProbeError, InconsistentLevelSets,
                     as_buses, as_choice, as_float, as_instance, as_int,
                     as_path)
from .feeder import FeederGraph
# perfbench/tracer.py wraps stages by their names in this module and
# fails if one is missing. `identify` calls recover_full and
# recover_partial through these globals, and `run_experiment` calls
# compare_graphs and reduce_grid, so each call is timed; simulate_probing,
# estimate_resistances, group_column_noisy and assemble_families are no
# longer called here and stay only as the tracer's targets.
from .grouping import (_label, _Labelling, assemble_families,
                       group_column_noisy, group_estimate)
from .probing import (MODES, NoiseModel, ProbingPlan, ResistanceEstimate,
                      estimate_resistances, sample_estimate,
                      simulate_probing)
from .recovery import (RecoveryPlan, RecoveryReport, _graph, _line_values,
                       _plan_full, _plan_partial, _score, _upstream,
                       compare_graphs, recover_full, recover_partial)
from .reduction import reduce_grid

PROBING_POLICIES = ("all-buses", "all-leaves")
DELTA_POLICIES = ("rated", "fixed")
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
            if kw is None or kw <= 0:
                raise ConfigError(f"bus {m} has no rated load and no "
                                  f"default_kw is set")
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
    Stages resolve through this module's globals, so a tracer can wrap
    them here.
    """
    families = group_estimate(estimate, r_min, mode)
    recover = recover_full if mode == "complete" else recover_partial
    return recover(families)


class _Replay(NamedTuple):
    """What an accepted labelling fixes for every trial of a sweep that
    cuts its estimate the same way: the recovery plan, the order in which
    the recovered graph lists the plan's lines, and the truth's resistance
    of each line in that order (None for a wrong topology)."""

    plan: RecoveryPlan
    order: tuple[int, ...]
    refs: tuple[float, ...] | None


def _learn(labelling: _Labelling, truth: FeederGraph,
           buses: tuple[int, ...]) -> _Replay:
    """The replay of a new labelling: the family check, the families, one
    recovery walk and value step, and the comparison with the truth, each
    raising what `identify` and `compare_graphs` raise."""
    labelling.check()
    families = labelling.families()
    plan = (_plan_full if labelling.complete else _plan_partial)(families)
    graph = _graph(plan, families)
    outcome = compare_graphs(graph, truth, buses)
    lines = plan.lines
    order = tuple(sorted(range(len(lines)), key=lambda i: lines[i][::-1]))
    node = outcome.node_map
    refs = None if node is None else tuple(
        truth.line_r(node[u], node[v]) for u, v, *_ in graph.edges)
    return _Replay(plan, order, refs)


def _replay(replay: _Replay, labelling: _Labelling) -> float | None:
    """A trial's MPE from its labelling's replay: the family check's value
    rules, the value step and the score. None for a wrong topology, or
    where a value breaks a rule that `identify` would raise on."""
    if replay.refs is None or not labelling.values_hold():
        return None
    table = labelling.cut.values.tolist()
    try:
        values = _line_values(replay.plan, table)
    except InconsistentLevelSets:
        return None
    if not labelling.complete:
        values.append(_upstream(table))
    # The grids `identify` builds take finite values only.
    if not all(map(math.isfinite, values)):
        return None
    return _score([values[i] for i in replay.order], replay.refs)[0]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured sweep and aggregate error statistics.

    Each trial draws its estimate with `sample_estimate`, which gives
    what simulating and estimating the block plan's record would give, in
    distribution. Ground truth is the feeder itself in complete mode and
    its reduced grid in partial mode. Every pipeline error raised inside a
    trial marks it as a topology error; only exact topology matches
    contribute to the MPE. Each sweep value's plan is built once, outside
    the trials, so a plan defect raises ConfigError instead of failing
    every trial.

    A recovery's topology depends only on the estimate's labelling (the
    group each entry falls in), and its line resistances on the group
    values. So each trial cuts its estimate once, and a call learns each
    new labelling once (`_learn`): the family check, one recovery walk
    and value step, and the comparison with the truth, keeping the
    recovery plan and the truth's resistance of each matched line. A
    labelling that raises is not kept. Every accepted trial is scored by
    `_replay`: the value rules, the value step and the score, which count
    the trial correct exactly when `identify` and `compare_graphs` would.
    """
    as_instance(config, ExperimentConfig, ConfigError, "config")
    g = fileio.load_feeder(config.feeder_path)
    buses = config.probing_buses(g)
    delta = config.delta_map(buses)
    truth = g if config.mode == "complete" else reduce_grid(g, buses)

    replays: dict[bytes, _Replay] = {}
    rows = []
    for periods in config.periods:
        t0 = time.perf_counter()
        plan = ProbingPlan.blocks(buses, delta, periods)
        mpes = []
        for trial in range(config.trials):
            rng = np.random.default_rng((config.seed, periods, trial))
            try:
                estimate = sample_estimate(g, plan, config.noise,
                                           mode=config.mode, rng=rng)
                labelling = _label(estimate, config.r_min, config.mode)
                known = replays.get(labelling.key)
                if known is None:
                    known = replays[labelling.key] = _learn(
                        labelling, truth, plan.buses)
            except GridProbeError:
                continue
            mpe = _replay(known, labelling)
            if mpe is not None:
                mpes.append(mpe)
        correct = len(mpes)
        rows.append({
            "periods": periods,
            "error_pct": 100.0 * (config.trials - correct) / config.trials,
            "mpe_pct": float(np.mean(mpes)) if mpes else None,
            # Standard error of the MPE mean, for trend checks within
            # Monte Carlo bands. Needs at least two correct trials.
            "mpe_se": (float(np.std(mpes, ddof=1) / np.sqrt(len(mpes)))
                       if len(mpes) > 1 else None),
            "trials": config.trials,
            "seconds": time.perf_counter() - t0,
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
        "trial_seed_rule": "numpy default_rng((seed, periods, trial))",
        "noise_redraw": "non-probed injection deviations are redrawn every "
                        "period, not held fixed per trial",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    return ExperimentResult(mode=config.mode, rows=tuple(rows),
                            provenance=provenance)


def write_results(result: ExperimentResult, out_dir: str | os.PathLike) -> None:
    """Emit results.csv (with timing) and results.json (timing-free).

    The JSON file is byte-stable for a fixed config and seed; the CSV
    repeats the same statistics plus a wall-time column.
    """
    as_instance(result, ExperimentResult, ConfigError, "result")
    for row in result.rows:
        missing = sorted(set(_ROW_KEYS) - set(row))
        if missing:
            raise ConfigError(f"result row lacks {missing}")
    os.makedirs(as_path(out_dir, ConfigError, "out_dir"), exist_ok=True)
    with fileio._write_text(os.path.join(out_dir, "results.csv"),
                            newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T_m", "error_pct", "mpe_pct", "trials", "seconds"])
        for row in result.rows:
            mpe = "" if row["mpe_pct"] is None else repr(row["mpe_pct"])
            w.writerow([row["periods"], repr(row["error_pct"]), mpe,
                        row["trials"], f"{row['seconds']:.3f}"])
    payload = {
        "provenance": result.provenance,
        "results": [{k: row[k] for k in
                     ("periods", "error_pct", "mpe_pct", "mpe_se", "trials")}
                    for row in result.rows],
    }
    with fileio._write_text(os.path.join(out_dir, "results.json")) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
