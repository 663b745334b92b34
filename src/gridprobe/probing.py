"""Probing simulation and resistance-matrix estimation.

A probing campaign perturbs the active-power output of inverters one bus
at a time and records the resulting bus voltage deviations. Under the
linearized flow model the noiseless deviations are R_P @ D, where R_P
holds the probed columns of the bus resistance matrix and D is the
probing-injection matrix, so R_P is estimated by right-inverting D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    NonpositiveRmin,
    RankDeficientProbing,
    UnknownProbingBus,
    as_float,
    as_int,
)
from .feeder import (FeederGraph, bus_index, reactance_matrix,
                     resistance_matrix)

RANK_TOL = 1e-10


def _float_array(values, what: str) -> np.ndarray:
    """values as a new float array; ConfigError if they are not numbers."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} entries must be numbers") from None


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
        if not all(isinstance(s, Real) and 0 <= s < math.inf
                   for s in (self.sigma_p, self.sigma_q, self.sigma_w)):
            raise ConfigError("noise deviations must be finite and "
                              "nonnegative")
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
        object.__setattr__(self, "buses", tuple(
            as_int(b, ConfigError, "probing bus") for b in self.buses))
        if len(set(self.buses)) != len(self.buses):
            raise ConfigError("probing buses must be distinct")
        if self.matrix is None:
            if self.delta is None or self.periods is None:
                raise ConfigError("block plans need delta and periods")
            if len(self.delta) != len(self.buses) or len(self.periods) != len(self.buses):
                raise ConfigError("delta/periods must align with buses")
            delta = tuple(as_float(d, ConfigError, "probing magnitude")
                          for d in self.delta)
            if not all(0 < d < math.inf for d in delta):
                raise ConfigError("probing magnitudes must be positive "
                                  "and finite")
            object.__setattr__(self, "delta", delta)
            object.__setattr__(self, "periods", tuple(
                as_int(t, ConfigError, "probing period", 1)
                for t in self.periods))
        else:
            matrix = _float_array(self.matrix, "injection matrix")
            if matrix.ndim != 2 or matrix.shape[0] != len(self.buses):
                raise ConfigError("injection matrix needs one row per probing bus")
            if not np.isfinite(matrix).all():
                raise ConfigError("injection matrix entries must be finite")
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)

    @staticmethod
    def blocks(buses: Sequence[int], delta: Mapping[int, float] | Sequence[float],
               periods: int | Mapping[int, int] | Sequence[int]) -> "ProbingPlan":
        buses = tuple(as_int(b, ConfigError, "probing bus") for b in buses)

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
        return ProbingPlan(buses=buses, delta=tuple(delta),
                           periods=tuple(periods))

    @staticmethod
    def general(buses: Sequence[int], matrix: np.ndarray) -> "ProbingPlan":
        return ProbingPlan(buses=tuple(buses), matrix=matrix)

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
    if not 0 < r_min < math.inf:
        raise NonpositiveRmin(f"r_min must be positive and finite, got {r_min}")
    if not 0 <= sigma < math.inf:
        raise ConfigError(f"sigma must be finite and nonnegative, got {sigma}")
    buses = tuple(sorted(delta))
    periods = []
    for b in buses:
        d = as_float(delta[b], ConfigError, f"probing magnitude for bus {b}")
        if not 0 < d < math.inf:
            raise ConfigError(f"probing magnitude for bus {b} must be "
                              f"positive and finite")
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
        if self.mode not in ("complete", "partial"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "row_nodes", tuple(
            as_int(n, ConfigError, "record row bus") for n in self.row_nodes))
        if len(set(self.row_nodes)) != len(self.row_nodes):
            raise ConfigError("record rows must be distinct buses")
        if self.seed is not None:
            object.__setattr__(self, "seed",
                               as_int(self.seed, ConfigError, "seed", 0))
        if self.values.shape != (len(self.row_nodes), self.plan.total_periods):
            raise ConfigError("measurement shape does not match plan")
        self.values.setflags(write=False)


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
    order = g.bus_order
    pos = {b: i for i, b in enumerate(order)}
    for b in plan.buses:
        if b not in pos:
            raise UnknownProbingBus(f"bus {b} cannot probe")
    if mode not in ("complete", "partial"):
        raise ConfigError(f"unknown mode {mode!r}")

    seed = noise.seed if rng is None else None
    rmat = resistance_matrix(g).values
    cols = [pos[b] for b in plan.buses]
    rows = cols if mode == "partial" else list(range(len(order)))
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
        t = plan.total_periods
        probing = set(cols)
        free = [i for i in range(len(order)) if i not in probing]
        if noise.sigma_p > 0 and free:
            shake = rng.standard_normal((len(free), t))
            v += noise.sigma_p * (rmat[np.ix_(rows, free)] @ shake)
        if noise.sigma_q > 0:
            # Raises for lines without reactance even when no bus is free.
            xmat = reactance_matrix(g).values
            if free:
                shake = rng.standard_normal((len(free), t))
                v += noise.sigma_q * (xmat[np.ix_(rows, free)] @ shake)
        if noise.sigma_w > 0:
            v += noise.sigma_w * rng.standard_normal(v.shape)

    row_nodes = plan.buses if mode == "partial" else order
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
            buses = tuple(as_int(n, ConfigError, "estimate bus")
                          for n in getattr(self, key))
            if len(set(buses)) != len(buses):
                raise ConfigError(f"estimate {key} must be distinct buses")
            object.__setattr__(self, key, buses)
        values = self.values
        if not (isinstance(values, np.ndarray) and values.dtype == float):
            values = _float_array(values, "estimate")
        if values.shape != (len(self.row_nodes), len(self.col_nodes)):
            raise ConfigError(
                f"estimate values have shape {values.shape}, not "
                f"{(len(self.row_nodes), len(self.col_nodes))} (rows x "
                f"columns)")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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
    plan = record.plan
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
