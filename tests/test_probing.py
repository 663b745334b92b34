"""Probing simulation, plan design and resistance estimation."""

import math
import os

import numpy as np
import pytest

from gridprobe import (ConfigError, ExperimentConfig, FeederGraph,
                       NoiseModel, NonpositiveRmin, ProbingPlan,
                       RankDeficientProbing, UnknownProbingBus, build_feeder,
                       design_plan, estimate_resistances, fileio,
                       noise_bound, reactance_matrix, reduce_grid,
                       resistance_matrix, sample_estimate, simulate_probing)
from gridprobe import probing

from helpers import EIGHT_BUSES, STAR_BUSES, random_feeder

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                    "data")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def y_tree():
    return build_feeder(Y_EDGES)


# -- noise model and bound ----------------------------------------------------


def test_noise_model_validation():
    assert NoiseModel().silent
    assert not NoiseModel(sigma_w=1e-4).silent
    with pytest.raises(ConfigError):
        NoiseModel(sigma_p=-1e-6)


def test_noise_bound_combines_in_quadrature():
    noise = NoiseModel(sigma_p=3e-5, sigma_q=4e-5, sigma_w=1.2e-4)
    got = noise_bound(noise, rho_r=0.5, rho_x=0.25)
    want = math.sqrt((3e-5 * 0.5) ** 2 + (4e-5 * 0.25) ** 2 + 1.2e-4 ** 2)
    assert got == pytest.approx(want, rel=1e-12)


# -- plans --------------------------------------------------------------------


def test_block_plan_windows():
    plan = ProbingPlan.blocks([2, 3], {2: 0.1, 3: 0.2}, [3, 2])
    assert plan.is_block
    assert plan.total_periods == 5
    assert plan.windows() == [(0, 3), (3, 5)]
    inj = plan.injections()
    assert inj.shape == (2, 5)
    assert np.array_equal(inj[0], [0.1, 0.1, 0.1, 0.0, 0.0])
    assert np.array_equal(inj[1], [0.0, 0.0, 0.0, 0.2, 0.2])


@pytest.mark.parametrize("kwargs, message", [
    ({}, "block plans need delta and periods"),
    ({"delta": (0.1,)}, "block plans need delta and periods"),
    ({"delta": (0.1,), "periods": (1, 1)},
     "delta/periods must align with buses"),
    ({"delta": (0.1, 0.1, 0.1), "periods": (1, 1)},
     "delta/periods must align with buses"),
])
def test_block_plan_needs_aligned_delta_and_periods(kwargs, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ProbingPlan(buses=(1, 2), **kwargs)


def test_general_plan_has_no_windows():
    plan = ProbingPlan.general([1, 2], np.eye(2))
    with pytest.raises(ConfigError,
                       match="^general plans have no per-bus windows$"):
        plan.windows()


def test_block_plan_scalar_periods():
    plan = ProbingPlan.blocks([1, 2, 3], {1: 0.1, 2: 0.1, 3: 0.1}, 4)
    assert plan.periods == (4, 4, 4)
    assert plan.total_periods == 12


def test_design_plan_without_noise_is_one_period():
    plan = design_plan(0.01, 0.0, {1: 0.1, 2: 0.5})
    assert plan.periods == (1, 1)


def test_design_plan_scales_with_delta():
    # T grows as the inverse square of the probing magnitude
    sigma, r_min = 1e-4, 0.01
    plan = design_plan(r_min, sigma, {1: 0.1, 2: 0.05})
    need1 = (16 * sigma / (r_min * 0.1)) ** 2
    assert plan.periods[0] == math.ceil(need1)
    assert plan.periods[1] == math.ceil(4 * need1)


def test_design_plan_validation():
    with pytest.raises(NonpositiveRmin):
        design_plan(0.0, 1e-4, {1: 0.1})
    with pytest.raises(ConfigError):
        design_plan(0.01, -1e-4, {1: 0.1})
    with pytest.raises(ConfigError):
        design_plan(0.01, 1e-4, {1: 0.0})


def _bundled_design(config_name, probed_submatrix):
    g = fileio.load_feeder(os.path.join(DATA, "ieee37.csv"))
    raw = fileio.load_config(os.path.join(DATA, config_name))
    cfg = ExperimentConfig.from_dict(raw, base_dir=DATA)
    leaves = tuple(sorted(g.leaves))
    delta = {m: cfg.loads_kw[m] / cfg.s_base_kva for m in leaves}
    rmat, xmat = resistance_matrix(g), reactance_matrix(g)
    if probed_submatrix:
        rv = rmat.submatrix(leaves, leaves)
        xv = xmat.submatrix(leaves, leaves)
    else:
        rv, xv = rmat.values, xmat.values
    rho_r = float(np.linalg.eigvalsh(rv)[-1])
    rho_x = float(np.linalg.eigvalsh(xv)[-1])
    sigma = noise_bound(cfg.noise, rho_r, rho_x)
    return design_plan(cfg.r_min, sigma, delta)


def test_bundled_complete_design_needs_ninety_periods():
    plan = _bundled_design("table_complete.yaml", probed_submatrix=False)
    assert max(plan.periods) == 90


def test_bundled_partial_design_needs_thirtynine_periods():
    # partial data see only probed rows and columns, so the noise scale
    # comes from the probed submatrices and the separation floor is the
    # smallest reduced-grid line
    plan = _bundled_design("table_partial.yaml", probed_submatrix=True)
    assert max(plan.periods) == 39


# -- simulation ---------------------------------------------------------------


def test_noiseless_block_columns_are_scaled_columns():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], {2: 0.1, 3: 0.2}, [2, 3])
    rec = simulate_probing(g, plan, NoiseModel())
    assert rec.mode == "complete"
    assert rec.row_nodes == (1, 2, 3)
    rmat = resistance_matrix(g)
    col2 = 0.1 * rmat.values[:, 1]
    col3 = 0.2 * rmat.values[:, 2]
    for t in range(2):
        assert np.array_equal(rec.values[:, t], col2)
    for t in range(2, 5):
        assert np.array_equal(rec.values[:, t], col3)


def test_partial_mode_returns_probed_rows_only():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], {2: 0.1, 3: 0.1}, 2)
    rec = simulate_probing(g, plan, NoiseModel(), mode="partial")
    assert rec.mode == "partial"
    assert rec.row_nodes == (2, 3)
    assert rec.values.shape == (2, 4)


def test_unknown_probing_bus():
    g = y_tree()
    plan = ProbingPlan.blocks([0], {0: 0.1}, 1)
    with pytest.raises(UnknownProbingBus):
        simulate_probing(g, plan, NoiseModel())
    plan = ProbingPlan.blocks([9], {9: 0.1}, 1)
    with pytest.raises(UnknownProbingBus):
        simulate_probing(g, plan, NoiseModel())


def test_seeded_simulation_is_reproducible():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], {2: 0.1, 3: 0.1}, 5)
    noise = NoiseModel(sigma_p=1e-5, sigma_q=1e-5, sigma_w=1e-4, seed=42)
    a = simulate_probing(g, plan, noise)
    b = simulate_probing(g, plan, noise)
    assert np.array_equal(a.values, b.values)
    assert a.seed == 42


# -- estimation ---------------------------------------------------------------


def test_noiseless_estimate_is_exact():
    rng = np.random.default_rng(31)
    for _ in range(20):
        _, g = random_feeder(rng, max_buses=15)
        buses = sorted(g.leaves)
        delta = {m: float(rng.uniform(0.05, 0.5)) for m in buses}
        periods = [int(rng.integers(1, 4)) for _ in buses]
        plan = ProbingPlan.blocks(buses, delta, periods)
        rec = simulate_probing(g, plan, NoiseModel())
        est = estimate_resistances(rec)
        want = resistance_matrix(g).submatrix(list(g.bus_order), buses)
        assert np.allclose(est.values, want, rtol=1e-10, atol=1e-14)

        rec_p = simulate_probing(g, plan, NoiseModel(), mode="partial")
        est_p = estimate_resistances(rec_p)
        want_pp = resistance_matrix(g).submatrix(buses, buses)
        assert np.allclose(est_p.values, want_pp, rtol=1e-10, atol=1e-14)


def test_identity_injection_reads_columns_directly():
    g = y_tree()
    plan = ProbingPlan.general([2, 3], np.eye(2))
    rec = simulate_probing(g, plan, NoiseModel())
    est = estimate_resistances(rec)
    want = resistance_matrix(g).submatrix([1, 2, 3], [2, 3])
    assert np.allclose(est.values, want, rtol=1e-12)


def test_block_estimate_equals_pseudo_inverse():
    """On identical noisy data the window-mean shortcut and the explicit
    right inverse give the same matrix."""
    g = y_tree()
    buses = [2, 3]
    plan = ProbingPlan.blocks(buses, {2: 0.1, 3: 0.2}, [4, 3])
    noise = NoiseModel(sigma_p=1e-4, sigma_q=1e-4, sigma_w=1e-3, seed=5)
    rec = simulate_probing(g, plan, noise)
    general = ProbingPlan.general(buses, plan.injections())
    rec_g = type(rec)(mode=rec.mode, row_nodes=rec.row_nodes,
                      values=rec.values.copy(), plan=general, seed=rec.seed)
    a = estimate_resistances(rec).values
    b = estimate_resistances(rec_g).values
    assert np.allclose(a, b, rtol=1e-10, atol=1e-14)


def test_rank_deficient_injections_rejected():
    g = y_tree()
    # fewer periods than probing buses
    plan = ProbingPlan.general([2, 3], np.array([[0.1], [0.2]]))
    rec = simulate_probing(g, plan, NoiseModel())
    with pytest.raises(RankDeficientProbing):
        estimate_resistances(rec)
    # equal rows, square but singular
    plan = ProbingPlan.general([2, 3], np.array([[0.1, 0.1], [0.1, 0.1]]))
    rec = simulate_probing(g, plan, NoiseModel())
    with pytest.raises(RankDeficientProbing):
        estimate_resistances(rec)


def test_measurement_noise_covariance():
    """With only metering noise the residuals are white: the sample
    covariance over ten thousand periods stays inside three-sigma bands."""
    g = y_tree()
    sigma_w = 1e-3
    t = 10_000
    plan = ProbingPlan.blocks([2], {2: 0.1}, t)
    noise = NoiseModel(sigma_w=sigma_w, seed=77)
    rec = simulate_probing(g, plan, noise)
    clean = simulate_probing(g, plan, NoiseModel())
    resid = rec.values - clean.values
    cov = resid @ resid.T / t
    band = 3.0 * sigma_w ** 2 * math.sqrt(2.0 / t)
    for i in range(3):
        for j in range(3):
            want = sigma_w ** 2 if i == j else 0.0
            tol = band if i == j else band / math.sqrt(2.0)
            assert abs(cov[i, j] - want) < tol, (i, j)


def test_estimator_is_unbiased():
    """Monte Carlo mean of the estimate stays within three standard
    errors of the truth, entry by entry."""
    g = y_tree()
    buses = [2, 3]
    plan = ProbingPlan.blocks(buses, {2: 0.1, 3: 0.1}, 4)
    noise = NoiseModel(sigma_p=2e-4, sigma_q=2e-4, sigma_w=2e-3)
    trials = 2000
    stack = np.empty((trials, 3, 2))
    for i in range(trials):
        rng = np.random.default_rng((99, i))
        rec = simulate_probing(g, plan, noise, rng=rng)
        stack[i] = estimate_resistances(rec).values
    want = resistance_matrix(g).submatrix([1, 2, 3], buses)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(mean - want) <= 3.0 * se)


def test_record_shape_validation():
    plan = ProbingPlan.blocks([2], {2: 0.1}, 3)
    from gridprobe import ProbingRecord
    with pytest.raises(ConfigError):
        ProbingRecord(mode="complete", row_nodes=(1, 2, 3),
                      values=np.zeros((3, 2)), plan=plan)
    with pytest.raises(ConfigError):
        ProbingRecord(mode="sideways", row_nodes=(1,),
                      values=np.zeros((1, 3)), plan=plan)


def test_estimate_column_accessor():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], {2: 0.1, 3: 0.1}, 1)
    est = estimate_resistances(simulate_probing(g, plan, NoiseModel()))
    col = est.column(2)
    assert col == pytest.approx({1: 1.0, 2: 3.0, 3: 1.0}, rel=1e-12)


def test_record_seed_is_only_claimed_when_it_drew_the_data():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], [0.5, 0.5], 4)
    noise = NoiseModel(sigma_w=0.01, seed=5)
    assert simulate_probing(g, plan, noise).seed == 5
    rec = simulate_probing(g, plan, noise, rng=np.random.default_rng(1))
    assert rec.seed is None


def test_sampled_estimates_need_a_block_plan():
    plan = ProbingPlan.general([2, 3], np.eye(2))
    with pytest.raises(ConfigError, match="only block plans"):
        sample_estimate(y_tree(), plan, NoiseModel(sigma_w=0.01))


def test_draws_build_the_reactance_matrix_only_for_free_buses(monkeypatch):
    # With every bus probing no load noise is drawn, so the reactance
    # matrix is never read; it is built once a bus is free. The X array is
    # the tree's shared-path sums over its reactance path sums, so the
    # test watches those.
    built = []
    shared_path = FeederGraph._shared_path

    def watched(tree, buses, rho):
        if rho is tree._rho_x:
            built.append(tree)
        return shared_path(tree, buses, rho)

    monkeypatch.setattr(FeederGraph, "_shared_path", watched)
    g = build_feeder([(0, 1, 0.1, 0.1), (1, 2, 0.2, 0.1), (1, 3, 0.3, 0.1)])
    noise = NoiseModel(sigma_q=0.01, sigma_w=0.01, seed=3)
    every = ProbingPlan.blocks([1, 2, 3], [0.5] * 3, 4)
    sample_estimate(g, every, noise)
    simulate_probing(g, every, noise)
    assert built == []
    sample_estimate(g, ProbingPlan.blocks([2, 3], [0.5, 0.5], 4), noise)
    assert built == [g]


def test_sampled_estimates_follow_the_seed_or_the_rng():
    g = y_tree()
    plan = ProbingPlan.blocks([2, 3], [0.5, 0.5], 4)
    noise = NoiseModel(sigma_p=0.01, sigma_q=0.01, sigma_w=0.01, seed=5)
    a = sample_estimate(g, plan, noise, mode="partial")
    b = sample_estimate(g, plan, noise, mode="partial",
                        rng=np.random.default_rng(5))
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.row_nodes, a.col_nodes) == ((2, 3), (2, 3))


# -- the noise factor ---------------------------------------------------------

def covariance_and_factor(g, buses, noise, mode):
    """F·Fᵀ, the covariance of one period's noise at the reported rows,
    built source by source, and the draw's (factor, meter) pair."""
    cols, rows, free, _ = probing._layout(
        g, ProbingPlan.blocks(buses, [0.1] * len(buses), 1), mode)
    rmat = resistance_matrix(g).values
    r, x = rmat[np.ix_(rows, free)], reactance_matrix(g).values[
        np.ix_(rows, free)]
    cov = (noise.sigma_p ** 2 * r @ r.T + noise.sigma_q ** 2 * x @ x.T
           + noise.sigma_w ** 2 * np.eye(len(rows)))
    return cov, probing._noise_factor(g, rmat, noise, rows, free)


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_noise_factor_squares_to_the_covariance(mode):
    # Four of eight buses free, so eight injection columns, no fewer than
    # the rows: the factor has one column per reported row, is lower
    # triangular and carries the meter noise too.
    g = build_feeder(EIGHT_BUSES)
    cov, (factor, meter) = covariance_and_factor(
        g, [3, 5, 7, 8], NoiseModel(sigma_p=0.01, sigma_q=0.02,
                                    sigma_w=0.005), mode)
    rows = 8 if mode == "complete" else 4
    assert factor.shape == (rows, rows)
    assert meter == 0
    assert np.array_equal(factor, np.tril(factor))
    assert np.allclose(factor @ factor.T, cov, rtol=1e-12, atol=1e-18)


def test_noise_factor_without_meter_noise_keeps_the_load_rank():
    # Complete mode with one free bus and no meter noise: the eight rows'
    # noise has rank 2 (one load and one reactive deviation), and so many
    # columns has the factor.
    g = build_feeder(EIGHT_BUSES)
    buses = [b for b in g.bus_order if b != 4]
    cov, (factor, meter) = covariance_and_factor(
        g, buses, NoiseModel(sigma_p=0.01, sigma_q=0.02), "complete")
    assert factor.shape == (8, 2)
    assert meter == 0
    assert np.allclose(factor @ factor.T, cov, rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("mode", ["complete", "partial"])
def test_noise_factor_with_many_more_rows_keeps_the_injections(mode):
    # One free junction gives two injection columns against 37 or 36 rows,
    # more than _FACTOR_EXTRA_ROWS beyond them: a rows x rows factor would
    # cost more than the normals it saves, so the injection blocks are the
    # factor and meter noise is drawn apart.
    g = build_feeder(STAR_BUSES)
    buses = sorted(g.leaves)
    noise = NoiseModel(sigma_p=0.01, sigma_q=0.02, sigma_w=0.005)
    cov, (factor, meter) = covariance_and_factor(g, buses, noise, mode)
    rows = 37 if mode == "complete" else 36
    assert rows > 2 + probing._FACTOR_EXTRA_ROWS
    assert factor.shape == (rows, 2)
    assert meter == noise.sigma_w
    assert np.allclose(factor @ factor.T + meter ** 2 * np.eye(rows), cov,
                       rtol=1e-12, atol=1e-18)


@pytest.mark.parametrize("noise", [NoiseModel(sigma_w=0.005),
                                   NoiseModel(sigma_p=0.01, sigma_q=0.02,
                                              sigma_w=0.005)],
                         ids=["meter", "every-source"])
def test_draw_without_a_free_bus_is_scaled_meter_noise(noise):
    # With every bus probing no load noise reaches the rows, no factor is
    # built and the window sums are bitwise sigma_w·Z.
    g = build_feeder(EIGHT_BUSES)
    order = g.bus_order
    plan = ProbingPlan.blocks(order, [0.1 * (1 + b % 3) for b in order],
                              [2 + b % 4 for b in order])
    rmat = resistance_matrix(g).values
    assert probing._noise_factor(g, rmat, noise, list(range(8)),
                                 []) == (None, 0.005)
    got = sample_estimate(g, plan, noise, rng=np.random.default_rng(9))
    shake = np.random.default_rng(9).standard_normal((8, 8))
    shake *= 0.005
    want = rmat + shake / probing._scale(plan)
    assert got.values.tobytes() == want.tobytes()
