"""The identification pipeline and the Monte Carlo sweeps built on it.

`identify` turns a resistance estimate into a recovered grid; the
`recover` command and every sweep trial call it. A sweep runs over a list
of per-bus probing durations and, for each, repeatedly draws the
resistance estimate of a probing campaign on a known feeder from its
window sums (`sample_estimate`), identifies the grid and scores it
against ground truth. Trials that raise any pipeline error count as
topology errors; per-trial seeds are derived from (seed, periods, trial)
so results do not depend on execution order.
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
from .errors import ConfigError, GridProbeError, as_float, as_int
from .feeder import FeederGraph
# `identify` calls group_estimate and sweeps call sample_estimate;
# perfbench/tracer.py still wraps the per-column stages and the record
# path here.
from .grouping import assemble_families, group_column_noisy, group_estimate
from .probing import (NoiseModel, ProbingPlan, ResistanceEstimate,
                      estimate_resistances, sample_estimate,
                      simulate_probing)
from .recovery import (RecoveryReport, compare_graphs, recover_full,
                       recover_partial)
from .reduction import reduce_grid

PROBING_POLICIES = ("all-buses", "all-leaves")


def _section(raw: Mapping, key: str) -> Mapping:
    value = raw.get(key, {})
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return value


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
        if not isinstance(self.feeder_path, (str, os.PathLike)):
            raise ConfigError(f"feeder_path must be a path, got "
                              f"{self.feeder_path!r}")
        if self.mode not in ("complete", "partial"):
            raise ConfigError(f"mode must be complete or partial, "
                              f"got {self.mode!r}")
        for key, least in (("probing", None), ("periods", 1)):
            value = getattr(self, key)
            if isinstance(value, str) and key == "probing":
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            object.__setattr__(self, key, tuple(
                as_int(v, ConfigError, key, least) for v in value))
        for key, least in (("trials", 1), ("seed", 0)):
            object.__setattr__(self, key, as_int(getattr(self, key),
                                                 ConfigError, key, least))
        if not isinstance(self.noise, NoiseModel):
            raise ConfigError(f"noise must be a NoiseModel, got {self.noise!r}")
        if not isinstance(self.loads_kw, Mapping):
            raise ConfigError(
                f"loads_kw must be a mapping, got {self.loads_kw!r}")
        object.__setattr__(self, "loads_kw", {
            as_int(b, ConfigError, "loads_kw bus"):
                as_float(kw, ConfigError, f"loads_kw value of bus {b}")
            for b, kw in self.loads_kw.items()})
        for key, optional in (("r_min", False), ("s_base_kva", False),
                              ("delta_multiple", False),
                              ("delta_default_kw", True),
                              ("delta_value_pu", True)):
            value = getattr(self, key)
            if not (optional and value is None):
                object.__setattr__(self, key, as_float(value, ConfigError, key))
        if isinstance(self.probing, str):
            if self.probing not in PROBING_POLICIES:
                raise ConfigError(f"unknown probing policy {self.probing!r}")
        elif not self.probing:
            raise ConfigError("explicit probing list is empty")
        elif len(set(self.probing)) != len(self.probing):
            raise ConfigError("explicit probing buses must be distinct")
        if not self.periods:
            raise ConfigError("periods sweep is empty")
        reals = [self.r_min, self.s_base_kva, self.delta_multiple,
                 *self.loads_kw.values()]
        reals += [v for v in (self.delta_default_kw, self.delta_value_pu)
                  if v is not None]
        if not all(math.isfinite(v) for v in reals):
            raise ConfigError("r_min, s_base_kva, delta and loads_kw values "
                              "must be finite")
        if self.r_min <= 0:
            raise ConfigError("r_min must be positive")
        if self.delta_policy not in ("rated", "fixed"):
            raise ConfigError(f"unknown delta policy {self.delta_policy!r}")
        if self.delta_policy == "fixed" and not (self.delta_value_pu or 0) > 0:
            raise ConfigError("fixed delta policy needs a positive value_pu")
        if self.delta_policy == "rated" and self.s_base_kva <= 0:
            raise ConfigError("s_base_kva must be positive")
        if self.delta_policy == "rated" and self.delta_multiple <= 0:
            raise ConfigError("delta multiple must be positive")

    @staticmethod
    def from_dict(raw: dict, base_dir: str = ".") -> "ExperimentConfig":
        """Build a config from a parsed YAML mapping.

        Relative feeder paths resolve against base_dir (normally the
        directory the config file came from).
        """
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a mapping, got {raw!r}")
        try:
            nd = _section(raw, "noise")
            dd = _section(raw, "delta")
            cfg = ExperimentConfig(
                feeder_path=os.path.join(base_dir, raw["feeder"]),
                mode=raw["mode"],
                probing=raw.get("probing", "all-leaves"),
                periods=raw["periods"],
                noise=NoiseModel(sigma_p=float(nd.get("sigma_p", 0.0)),
                                 sigma_q=float(nd.get("sigma_q", 0.0)),
                                 sigma_w=float(nd.get("sigma_w", 0.0))),
                r_min=float(raw["r_min"]),
                trials=raw.get("trials", 1000),
                seed=raw.get("seed", 0),
                s_base_kva=float(raw.get("s_base_kva", 1.0)),
                loads_kw=_section(raw, "loads_kw"),
                delta_policy=dd.get("policy", "rated"),
                delta_multiple=float(dd.get("multiple", 1.0)),
                delta_default_kw=(None if dd.get("default_kw") is None
                                  else float(dd["default_kw"])),
                delta_value_pu=(None if dd.get("value_pu") is None
                                else float(dd["value_pu"])),
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
    mode: str
    rows: tuple[dict, ...]  # one per sweep value, in sweep order
    provenance: dict

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
    """
    g = fileio.load_feeder(config.feeder_path)
    buses = config.probing_buses(g)
    delta = config.delta_map(buses)
    truth = g if config.mode == "complete" else reduce_grid(g, buses)

    rows = []
    for periods in config.periods:
        t0 = time.perf_counter()
        plan = ProbingPlan.blocks(buses, delta, periods)
        correct = 0
        mpes = []
        for trial in range(config.trials):
            rng = np.random.default_rng((config.seed, periods, trial))
            try:
                estimate = sample_estimate(g, plan, config.noise,
                                           mode=config.mode, rng=rng)
                report = identify(estimate, config.r_min, config.mode)
                outcome = compare_graphs(report.graph, truth, plan.buses)
            except GridProbeError:
                continue
            if outcome.topology_correct:
                correct += 1
                mpes.append(outcome.resistance_mpe)
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
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="",
              encoding="utf-8") as fh:
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
    with open(os.path.join(out_dir, "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
