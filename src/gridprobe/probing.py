"""Probing simulation and resistance-matrix estimation.

A probing campaign perturbs the active-power output of inverters one bus
at a time and records the resulting bus voltage deviations. Under the
linearized flow model the noiseless deviations are R_P @ D, where R_P
holds the probed columns of the bus resistance matrix and D is the
probing-injection matrix, so R_P is estimated by right-inverting D.
For a block plan that estimate reads only each window's sum, so
`sample_estimate` draws it directly without simulating every period.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NonpositiveRmin,
    RankDeficientProbing,
    UnknownProbingBus,
    as_buses,
    as_choice,
    as_float,
    as_float_array,
    as_instance,
    as_int,
)
from .feeder import (FeederGraph, bus_index, reactance_matrix,
                     resistance_matrix)

RANK_TOL = 1e-10

# Observation modes: every bus metered, or only the probing buses.
MODES = ("complete", "partial")
# The largest count numpy holds in an index or a byte size.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class NoiseModel:
    """Per-period deviation model for probing data.

    sigma_p / sigma_q: standard deviation of active/reactive injection
    deviations at non-actuated buses; sigma_w: voltage measurement noise.
    All in per unit, all i.i.d. zero-mean Gaussian across buses and periods.
    """

    sigma_p: float = 0.0
    sigma_q: float = 0.0
    sigma_w: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for key in ("sigma_p", "sigma_q", "sigma_w"):
            object.__setattr__(self, key, as_float(
                getattr(self, key), ConfigError, key,
                "finite and nonnegative"))
        if self.seed is not None:
            object.__setattr__(self, "seed",
                               as_int(self.seed, ConfigError, "seed", 0))

    @property
    def silent(self) -> bool:
        return self.sigma_p == self.sigma_q == self.sigma_w == 0.0


def noise_bound(noise: NoiseModel, rho_r: float, rho_x: float) -> float:
    """Deviation bound per voltage-difference entry.

    Combines the injection noise, amplified at worst by the spectral radii
    of the resistance and reactance matrices, with the measurement noise.
    """
    as_instance(noise, NoiseModel, ConfigError, "noise")
    return math.sqrt((noise.sigma_p * rho_r) ** 2
                     + (noise.sigma_q * rho_x) ** 2
                     + noise.sigma_w ** 2)


@dataclass(frozen=True)
class ProbingPlan:
    """Which buses probe, how hard, and for how many periods.

    Block plans actuate one bus at a time: bus i injects delta[i] for
    periods[i] consecutive periods while all other inverters hold. General
    plans supply an explicit injection matrix (one row per probing bus, one
    column per period) instead.
    """

    buses: tuple[int, ...]
    delta: tuple[float, ...] | None = None
    periods: tuple[int, ...] | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "buses", as_buses(self.buses, ConfigError,
                                                   "probing buses"))
        if self.matrix is None:
            if self.delta is None or self.periods is None:
                raise ConfigError("block plans need delta and periods")
            delta = tuple(as_instance(self.delta, Iterable, ConfigError,
                                      "delta"))
            periods = tuple(as_instance(self.periods, Iterable, ConfigError,
                                        "periods"))
            if len(delta) != len(self.buses) or len(periods) != len(self.buses):
                raise ConfigError("delta/periods must align with buses")
            object.__setattr__(self, "delta", tuple(
                as_float(d, ConfigError, "probing magnitude",
                         "positive and finite") for d in delta))
            object.__setattr__(self, "periods", tuple(
                as_int(t, ConfigError, "probing period", 1)
                for t in periods))
        else:
            # The plan keeps its own read-only copy.
            matrix = as_float_array(self.matrix, ConfigError,
                                    "injection matrix").copy()
            if matrix.ndim != 2 or matrix.shape[0] != len(self.buses):
                raise ConfigError("injection matrix needs one row per probing bus")
            if not np.isfinite(matrix).all():
                raise ConfigError("injection matrix entries must be finite")
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)

    @staticmethod
    def blocks(buses: Sequence[int], delta: Mapping[int, float] | Sequence[float],
               periods: int | Mapping[int, int] | Sequence[int]) -> "ProbingPlan":
        buses = as_buses(buses, ConfigError, "probing buses")

        def per_bus(table: Mapping, what: str) -> list:
            for b in buses:
                if b not in table:
                    raise ConfigError(f"probing bus {b} has no {what}")
            return [table[b] for b in buses]

        if isinstance(delta, Mapping):
            delta = per_bus(delta, "delta")
        if isinstance(periods, Mapping):
            periods = per_bus(periods, "period count")
        elif not isinstance(periods, Iterable):
            periods = [periods] * len(buses)
        return ProbingPlan(buses=buses, delta=delta, periods=periods)

    @staticmethod
    def general(buses: Sequence[int], matrix: np.ndarray) -> "ProbingPlan":
        return ProbingPlan(buses=buses, matrix=matrix)

    @property
    def is_block(self) -> bool:
        return self.matrix is None

    @property
    def total_periods(self) -> int:
        if self.matrix is not None:
            return self.matrix.shape[1]
        return sum(self.periods)

    def windows(self) -> list[tuple[int, int]]:
        """Per-bus [start, stop) period ranges of a block plan."""
        if not self.is_block:
            raise ConfigError("general plans have no per-bus windows")
        out = []
        t = 0
        for length in self.periods:
            out.append((t, t + length))
            t += length
        return out

    def injections(self) -> np.ndarray:
        """Dense probing-injection matrix, one row per bus."""
        if self.matrix is not None:
            return self.matrix
        m = np.zeros((len(self.buses), self.total_periods))
        for i, (a, b) in enumerate(self.windows()):
            m[i, a:b] = self.delta[i]
        return m


def design_plan(r_min: float, sigma: float,
                delta: Mapping[int, float]) -> ProbingPlan:
    """Size each bus's probing window so level-set recovery is reliable.

    Picks the smallest integer period count with delta * sqrt(T) at least
    16 * sigma / r_min, which confines estimate deviations within a quarter
    of the smallest resistance separating two level sets, with probability
    better than 99.99% per entry.
    """
    r_min = as_float(r_min, NonpositiveRmin, "r_min", "positive and finite")
    sigma = as_float(sigma, ConfigError, "sigma", "finite and nonnegative")
    buses = tuple(sorted(as_instance(delta, Mapping, ConfigError, "delta")))
    periods = []
    for b in buses:
        d = as_float(delta[b], ConfigError, f"probing magnitude for bus {b}",
                     "positive and finite")
        try:
            need = (16.0 * sigma / (r_min * d)) ** 2
            periods.append(max(1, math.ceil(need - 1e-12)))
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(f"probing window for bus {b} is too long to "
                              f"represent") from None
    return ProbingPlan.blocks(buses, delta, periods)


@dataclass(frozen=True)
class ProbingRecord:
    """Voltage-deviation measurements produced by one probing campaign."""

    mode: str
    row_nodes: tuple[int, ...]
    values: np.ndarray = field(repr=False)
    plan: ProbingPlan = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "mode", as_choice(self.mode, MODES,
                                                   ConfigError, "mode"))
        as_instance(self.plan, ProbingPlan, ConfigError, "plan")
        object.__setattr__(self, "row_nodes", as_buses(
            self.row_nodes, ConfigError, "record rows"))
        if self.seed is not None:
            object.__setattr__(self, "seed",
                               as_int(self.seed, ConfigError, "seed", 0))
        values = as_float_array(self.values, ConfigError, "measurement",
                                (len(self.row_nodes), self.plan.total_periods))
        if not np.isfinite(values).all():
            raise ConfigError("measurement values must be finite")
        object.__setattr__(self, "values", values)


def _layout(g: FeederGraph, plan: ProbingPlan, mode: str
            ) -> tuple[list[int], list[int], list[int], tuple[int, ...]]:
    """Positions in bus_order of a campaign's probing buses, reported rows
    and free (non-probing) buses, then the reported rows' buses; raises
    for an input of another type, a bus that cannot probe, a period count
    numpy cannot hold or an unknown mode."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    as_instance(plan, ProbingPlan, ConfigError, "plan")
    order = g.bus_order
    pos = {b: i for i, b in enumerate(order)}
    for b in plan.buses:
        if b not in pos:
            raise UnknownProbingBus(f"bus {b} cannot probe")
    for b, t in zip(plan.buses, plan.periods or ()):
        if t > _INT64_MAX:
            raise ConfigError(f"probing window for bus {b} is too long to "
                              f"represent")
    partial = as_choice(mode, MODES, ConfigError, "mode") == "partial"
    cols = [pos[b] for b in plan.buses]
    rows = cols if partial else list(range(len(order)))
    probing = set(cols)
    free = [i for i in range(len(order)) if i not in probing]
    return cols, rows, free, plan.buses if partial else order


def _add_noise(g: FeederGraph, rmat: np.ndarray, noise: NoiseModel,
               rows: list[int], free: list[int], out: np.ndarray,
               rng: np.random.Generator) -> None:
    """Add to `out` (reported rows x columns) the noise that reaches the
    reported rows: sigma_p·R[rows, free]·Z_p, sigma_q·X[rows, free]·Z_q and
    sigma_w·Z_w, i.i.d. standard normals with one column per column of
    `out`, drawn in that order. Nothing is drawn at free buses when every
    bus probes."""
    width = out.shape[1]
    if noise.sigma_p > 0 and free:
        shake = rng.standard_normal((len(free), width))
        out += noise.sigma_p * (rmat[np.ix_(rows, free)] @ shake)
    if noise.sigma_q > 0:
        # Raises for lines without reactance even when no bus is free.
        xmat = reactance_matrix(g).values
        if free:
            shake = rng.standard_normal((len(free), width))
            out += noise.sigma_q * (xmat[np.ix_(rows, free)] @ shake)
    if noise.sigma_w > 0:
        out += noise.sigma_w * rng.standard_normal(out.shape)


def simulate_probing(g: FeederGraph, plan: ProbingPlan, noise: NoiseModel,
                     mode: str = "complete",
                     rng: np.random.Generator | None = None) -> ProbingRecord:
    """Generate the voltage-deviation record of a probing campaign.

    Complete mode reports all non-substation buses; partial mode reports
    probing buses only. Only noise that reaches the reported rows is
    drawn, redrawn independently every period: injection deviations
    (sigma_p, sigma_q) at the non-probing buses, none when every bus
    probes, and measurement noise (sigma_w) on the reported rows alone.
    The record carries noise.seed, or no seed when an explicit rng drew
    the noise.
    """
    cols, rows, free, row_nodes = _layout(g, plan, mode)
    as_instance(noise, NoiseModel, ConfigError, "noise")
    if rng is not None:
        as_instance(rng, np.random.Generator, ConfigError, "rng")
    seed = noise.seed if rng is None else None
    if len(rows) * plan.total_periods > _INT64_MAX // 8:
        raise ConfigError(f"probing record of {len(rows)} rows by "
                          f"{plan.total_periods} periods is too long to "
                          f"represent")
    rmat = resistance_matrix(g).values
    if plan.is_block:
        # Each period has one nonzero injection, so this is bitwise the
        # product with the block injection matrix.
        v = np.repeat(rmat[np.ix_(rows, cols)] * np.array(plan.delta),
                      plan.periods, axis=1)
    else:
        v = (rmat[:, cols] @ plan.injections())[rows, :]

    if not noise.silent:
        if rng is None:
            rng = np.random.default_rng(noise.seed)
        _add_noise(g, rmat, noise, rows, free, v, rng)

    return ProbingRecord(mode=mode, row_nodes=row_nodes, values=v,
                         plan=plan, seed=seed)


@dataclass(frozen=True)
class ResistanceEstimate:
    """Estimated probed columns of the bus resistance matrix."""

    row_nodes: tuple[int, ...]
    col_nodes: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        for key in ("row_nodes", "col_nodes"):
            object.__setattr__(self, key, as_buses(
                getattr(self, key), ConfigError, f"estimate {key}"))
        object.__setattr__(self, "values", as_float_array(
            self.values, ConfigError, "estimate",
            (len(self.row_nodes), len(self.col_nodes))))

    def column(self, n: int) -> dict[int, float]:
        j = bus_index(self.col_nodes, n)
        return dict(zip(self.row_nodes, self.values[:, j].tolist()))


def estimate_resistances(record: ProbingRecord) -> ResistanceEstimate:
    """Recover probed resistance-matrix columns from a probing record.

    Block plans average each probing window and divide by its injection,
    which coincides with the right pseudo-inverse of the block injection
    matrix. General plans right-invert explicitly and refuse to proceed
    when the injection matrix is row-rank deficient.
    """
    plan = as_instance(record, ProbingRecord, ConfigError, "record").plan
    if plan.is_block:
        est = np.empty((len(record.row_nodes), len(plan.buses)))
        for j, (a, b) in enumerate(plan.windows()):
            est[:, j] = record.values[:, a:b].sum(axis=1) / (
                plan.delta[j] * plan.periods[j])
    else:
        dmat = plan.injections()
        if dmat.shape[1] < dmat.shape[0]:
            raise RankDeficientProbing(
                "fewer probing periods than probing buses")
        svals = np.linalg.svd(dmat, compute_uv=False)
        if svals[0] == 0 or svals[-1] <= RANK_TOL * svals[0]:
            raise RankDeficientProbing(
                "injection matrix is rank deficient; no right inverse")
        est = record.values @ np.linalg.pinv(dmat, rcond=RANK_TOL)
    return ResistanceEstimate(row_nodes=record.row_nodes,
                              col_nodes=plan.buses, values=est)


def sample_estimate(g: FeederGraph, plan: ProbingPlan, noise: NoiseModel,
                    mode: str = "complete",
                    rng: np.random.Generator | None = None
                    ) -> ResistanceEstimate:
    """Draw the estimate a block plan's record would give, from its window
    sums.

    `estimate_resistances(simulate_probing(g, plan, noise, mode, rng))`
    reads a block plan's record only through each window's sum. Over
    window j the noise reaching the reported rows is a sum of T_j i.i.d.
    draws through fixed propagation matrices, so its sum is √T_j times
    one such draw, and the estimate is, exactly in distribution,

        R[rows, cols] + (sigma_p·R[rows, free]·Z_p
                         + sigma_q·X[rows, free]·Z_q
                         + sigma_w·Z_w) / (delta_j·√T_j)

    with Z_p, Z_q of shape (free buses, probing buses) and Z_w of shape
    (reported rows, probing buses), drawn in that order. This costs one
    draw per window instead of one per period. It raises what
    `simulate_probing` raises; general plans have no windows and raise
    ConfigError.
    """
    cols, rows, free, row_nodes = _layout(g, plan, mode)
    as_instance(noise, NoiseModel, ConfigError, "noise")
    if rng is not None:
        as_instance(rng, np.random.Generator, ConfigError, "rng")
    if not plan.is_block:
        raise ConfigError("only block plans can be sampled from window "
                          "sums; simulate general plans with "
                          "simulate_probing")
    rmat = resistance_matrix(g).values
    est = rmat[np.ix_(rows, cols)]
    if not noise.silent:
        if rng is None:
            rng = np.random.default_rng(noise.seed)
        sums = np.zeros(est.shape)
        _add_noise(g, rmat, noise, rows, free, sums, rng)
        est = est + sums / (np.array(plan.delta) * np.sqrt(plan.periods))
    if not np.isfinite(est).all():
        raise ConfigError("measurement values must be finite")
    return ResistanceEstimate(row_nodes=row_nodes, col_nodes=plan.buses,
                              values=est)
