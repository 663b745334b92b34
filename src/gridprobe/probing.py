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
from collections.abc import Callable, Iterable, Mapping, Sequence
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
# The campaign reads the feeder's cached shared-path arrays directly;
# resistance_matrix and reactance_matrix are only perfbench/tracer.py's
# targets here.
from .feeder import (FeederGraph, _cached_matrix, _require_reactance,
                     bus_index, reactance_matrix, resistance_matrix)

RANK_TOL = 1e-10

# Observation modes: every bus metered, or only the probing buses.
MODES = ("complete", "partial")
# The largest count numpy holds in an index or a byte size.
_INT64_MAX = int(np.iinfo(np.int64).max)
# How many more reported rows than injection columns the noise factor may
# have. Each extra row costs every column a row of products but saves an
# injection normal. On a 2-core Xeon with OpenBLAS the factor drew faster
# up to about 40 extra rows and 1.1-1.6x slower at 48-260 extra rows
# (BENCH_sweep_draw.json, "factor_paths").
_FACTOR_EXTRA_ROWS = 32


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
    rho_r = as_float(rho_r, ConfigError, "rho_r", "finite and nonnegative")
    rho_x = as_float(rho_x, ConfigError, "rho_x", "finite and nonnegative")
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
    as_instance(delta, Mapping, ConfigError, "delta")
    buses = tuple(sorted(as_buses(delta, ConfigError, "probing buses")))
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
        object.__setattr__(self, "values", _finite(as_float_array(
            self.values, ConfigError, "measurement",
            (len(self.row_nodes), self.plan.total_periods))))


def _finite(values: np.ndarray) -> np.ndarray:
    """The one rule for measurements and the estimates drawn or read from
    them: every value finite, else ConfigError."""
    if not np.isfinite(values).all():
        raise ConfigError("measurement values must be finite")
    return values


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
    _check_windows(plan.buses, plan.periods or ())
    partial = as_choice(mode, MODES, ConfigError, "mode") == "partial"
    cols = [pos[b] for b in plan.buses]
    rows = cols if partial else list(range(len(order)))
    probing = set(cols)
    free = [i for i in range(len(order)) if i not in probing]
    return cols, rows, free, plan.buses if partial else order


def _check_windows(buses: Sequence[int], periods: Sequence[int]) -> None:
    """Raise ConfigError for a window longer than numpy can hold, the
    window of buses[j] lasting periods[j]."""
    for b, t in zip(buses, periods):
        if t > _INT64_MAX:
            raise ConfigError(f"probing window for bus {b} is too long to "
                              f"represent")


def _noise_factor(g: FeederGraph, rmat: np.ndarray, noise: NoiseModel,
                  rows: list[int], free: list[int]
                  ) -> tuple[np.ndarray | None, float]:
    """One period's noise at the reported rows as S·Z + w·W, for i.i.d.
    standard normals Z (a row per column of S) and W (a row per reported
    row): the pair (S, w). Its covariance is F·Fᵀ for F = [sigma_p·R[rows,
    free] | sigma_q·X[rows, free] | sigma_w·I] without its zero blocks.
    Unless the rows outnumber the injection columns (the blocks before
    sigma_w·I) by more than `_FACTOR_EXTRA_ROWS`, S = qr(Fᵀ, "r")ᵀ, lower
    triangular with one column per row (fewer without meter noise when
    the injection columns are fewer), and w = 0: it draws fewer normals.
    With more rows its rows x rows product costs more than the normals
    save, so S is the injection blocks themselves and w = sigma_w. S is
    None when no injection noise reaches the rows (no bus is free, or
    sigma_p = sigma_q = 0): the noise is sigma_w·W alone."""
    through = []
    if noise.sigma_q > 0:
        # Lines without reactance raise even when no bus is free.
        _require_reactance(g)
    # A factor too large for floats is caught by the record's finiteness
    # check.
    with np.errstate(over="ignore", invalid="ignore"):
        if noise.sigma_p > 0 and free:
            through.append(noise.sigma_p * rmat[rows][:, free])
        if noise.sigma_q > 0 and free:
            through.append(noise.sigma_q * _cached_matrix(
                g, "x", g._rho_x)[rows][:, free])
        if not through:
            return None, noise.sigma_w
        if len(rows) > len(through) * len(free) + _FACTOR_EXTRA_ROWS:
            return np.hstack(through), noise.sigma_w
        if noise.sigma_w > 0:
            through.append(noise.sigma_w * np.eye(len(rows)))
        return np.linalg.qr(np.hstack(through).T, mode="r").T, 0.0


def _add_noise(factor: np.ndarray | None, meter: float, out: np.ndarray,
               runs: Sequence[tuple[np.random.Generator, int]]) -> None:
    """Add to `out` (trials x reported rows x columns) one period's noise
    at the reported rows in each column of each trial, factor·Z +
    meter·W for the `_noise_factor` pair and i.i.d. standard normals Z
    and W. Each (generator, count) run draws the next `count` trials' Z
    and W, in trial order, in one call."""
    trials, height, width = out.shape
    depth = 0 if factor is None else factor.shape[1]
    if not depth and meter == 0:
        return
    shake = np.empty((trials, depth + (height if meter else 0), width))
    start = 0
    for rng, count in runs:
        rng.standard_normal(out=shake[start:start + count])
        start += count
    # Scaled in place: a record's noise is as large as the record. Noise
    # that overflows is caught by the record's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        if depth:
            out += np.matmul(factor, shake[:, :depth])
        if meter:
            shake = shake[:, depth:]
            shake *= meter
            out += shake


def simulate_probing(g: FeederGraph, plan: ProbingPlan, noise: NoiseModel,
                     mode: str = "complete",
                     rng: np.random.Generator | None = None) -> ProbingRecord:
    """Generate the voltage-deviation record of a probing campaign.

    Complete mode reports all non-substation buses; partial mode reports
    probing buses only. Only noise that reaches the reported rows is
    drawn, redrawn independently every period: injection deviations
    (sigma_p, sigma_q) at the non-probing buses, none when every bus
    probes, and measurement noise (sigma_w) on the reported rows alone;
    each period's sum of them is drawn as one Gaussian vector through a
    factor of its covariance (see `sample_estimate`). The record carries
    noise.seed, or no seed when an explicit rng drew the noise.
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
    rmat = _cached_matrix(g, "r", g._rho)
    if plan.is_block:
        # Each period has one nonzero injection, so this is bitwise the
        # product with the block injection matrix.
        v = np.repeat(rmat[rows][:, cols] * np.array(plan.delta),
                      plan.periods, axis=1)
    else:
        v = (rmat[:, cols] @ plan.injections())[rows, :]

    if not noise.silent:
        if rng is None:
            rng = np.random.default_rng(noise.seed)
        _add_noise(*_noise_factor(g, rmat, noise, rows, free), v[None],
                   [(rng, 1)])

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
    when the injection matrix is row-rank deficient. An estimate that is
    not finite, where a finite record's window sums or products overflow,
    raises ConfigError as a draw that overflows does.
    """
    plan = as_instance(record, ProbingRecord, ConfigError, "record").plan
    if plan.is_block:
        est = np.empty((len(record.row_nodes), len(plan.buses)))
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            est = record.values @ np.linalg.pinv(dmat, rcond=RANK_TOL)
    return ResistanceEstimate(row_nodes=record.row_nodes,
                              col_nodes=plan.buses, values=_finite(est))


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

        R[rows, cols] + S·Z / (delta_j·√T_j)

    where S·Sᵀ = F·Fᵀ for F = [sigma_p·R[rows, free] | sigma_q·X[rows,
    free] | sigma_w·I], the covariance of one period's noise at the
    reported rows: S = qr(Fᵀ, "r")ᵀ, with at most one column per
    reported row, and Z holds i.i.d. standard normals, one column per
    probing bus. Where the rows far outnumber the injection columns,
    `_noise_factor` keeps the injection blocks as S and adds sigma_w·W
    for a second block of normals W. Without injection noise (every bus
    probes, or sigma_p = sigma_q = 0) the estimate adds sigma_w·Z
    instead, as the record does. This costs one draw per window instead
    of one per period. It raises what `simulate_probing` raises; general
    plans have no windows and raise ConfigError.
    """
    draw, row_nodes = _sampler(g, plan, noise, mode)
    if rng is not None:
        as_instance(rng, np.random.Generator, ConfigError, "rng")
    elif not noise.silent:
        rng = np.random.default_rng(noise.seed)
    scales = np.array(plan.delta) * np.sqrt(plan.periods)
    return ResistanceEstimate(row_nodes=row_nodes, col_nodes=plan.buses,
                              values=draw([(rng, 1)], scales)[0])


def _sampler(g: FeederGraph, plan: ProbingPlan, noise: NoiseModel, mode: str
             ) -> tuple[Callable[..., np.ndarray], tuple[int, ...]]:
    """Check a block campaign and build its noise factor once; return
    draw(runs, scales) and the reported rows' buses. draw gives the
    estimates `sample_estimate` draws, stacked trials x reported rows x
    probing buses. Each (generator, count) run draws its next `count`
    trials in trial order; silent noise draws nothing and reads no
    generator, so its runs may hold None. Trial t divides its window sums
    by scales[t], its own plan's delta_j·√T_j, so one stack can hold plans
    that differ only in delta and periods. The trials of a run are bitwise
    what `sample_estimate` draws with its generator, one call per trial,
    each with its own plan. Each draw adds its noise to the block `_exact`
    gives."""
    cols, rows, free, row_nodes = _layout(g, plan, mode)
    rmat = _cached_matrix(g, "r", g._rho)
    exact = rmat[rows][:, cols]
    as_instance(noise, NoiseModel, ConfigError, "noise")
    if not plan.is_block:
        raise ConfigError("only block plans can be sampled from window "
                          "sums; simulate general plans with "
                          "simulate_probing")
    # Silent noise draws nothing, so it needs no factor.
    pair = None if noise.silent else _noise_factor(g, rmat, noise, rows,
                                                    free)

    def draw(runs: Sequence[tuple[np.random.Generator | None, int]],
             scales: np.ndarray) -> np.ndarray:
        sums = np.zeros((sum(count for _, count in runs), *exact.shape))
        if pair is not None:
            _add_noise(*pair, sums, runs)
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(exact + sums / scales[..., None, :])

    return draw, row_nodes


def _exact(g: FeederGraph, plan: ProbingPlan, mode: str
           ) -> tuple[np.ndarray, tuple[int, ...]]:
    """A campaign's noise-free estimate R[rows, cols], which may hold inf
    where a path resistance overflows, and the reported rows' buses.
    Raises what `_layout` raises. A block plan's noise-free draw is this
    block bit for bit: R >= 0 and x + 0.0 == x."""
    cols, rows, _, row_nodes = _layout(g, plan, mode)
    return _cached_matrix(g, "r", g._rho)[rows][:, cols], row_nodes
