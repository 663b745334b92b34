"""Monte Carlo driver: config validation, scoring, determinism."""

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest

import gridprobe.experiments
import gridprobe.probing
from gridprobe import (ConfigError, ExperimentConfig, InconsistentLevelSets,
                       LabelMismatch, NonpositiveImpedance, ReducedGrid,
                       ResistanceEstimate, build_feeder, fileio,
                       resistance_matrix, run_experiment, write_results)
from gridprobe.experiments import _mpe_stats
from gridprobe.grouping import _label

Y_TEXT = ("from,to,r_pu,x_pu\n"
          "0,1,1.0,1.0\n"
          "1,2,2.0,1.0\n"
          "1,3,3.0,1.0\n")


def y_config(tmp_path, **over):
    (tmp_path / "y.csv").write_text(Y_TEXT)
    raw = {
        "feeder": "y.csv",
        "mode": "complete",
        "probing": "all-buses",
        "periods": [1, 2],
        "r_min": 0.5,
        "trials": 3,
        "seed": 1,
        "delta": {"policy": "fixed", "value_pu": 0.1},
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw, base_dir=str(tmp_path))


# -- config validation --------------------------------------------------------


def test_config_requires_feeder(tmp_path):
    with pytest.raises(ConfigError):
        y_config(tmp_path, feeder=None)


def test_config_rejects_unknown_mode(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        y_config(tmp_path, mode="sideways")


def test_config_rejects_empty_periods(tmp_path):
    with pytest.raises(ConfigError, match="periods"):
        y_config(tmp_path, periods=[])
    with pytest.raises(ConfigError, match="periods"):
        y_config(tmp_path, periods=[0])


def test_config_rejects_bad_trials(tmp_path):
    with pytest.raises(ConfigError, match="trials"):
        y_config(tmp_path, trials=0)


def test_config_rejects_bad_r_min(tmp_path):
    with pytest.raises(ConfigError, match="r_min"):
        y_config(tmp_path, r_min=-1.0)


def test_config_rejects_unknown_probing_policy(tmp_path):
    with pytest.raises(ConfigError, match="probing"):
        y_config(tmp_path, probing="some-buses")


def test_config_rejects_unknown_delta_policy(tmp_path):
    with pytest.raises(ConfigError, match="delta"):
        y_config(tmp_path, delta={"policy": "metered"})


def test_fixed_delta_needs_value(tmp_path):
    with pytest.raises(ConfigError, match="value_pu"):
        y_config(tmp_path, delta={"policy": "fixed"})


def test_complete_mode_needs_every_bus(tmp_path):
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    cfg = y_config(tmp_path, probing=[2, 3])
    with pytest.raises(ConfigError, match="every non-substation bus"):
        cfg.probing_buses(g)
    assert y_config(tmp_path, probing=[1, 2, 3]).probing_buses(g) == (1, 2, 3)


def test_partial_mode_rejects_all_buses(tmp_path):
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    cfg = y_config(tmp_path, mode="partial", probing="all-buses")
    with pytest.raises(ConfigError, match="partial"):
        cfg.probing_buses(g)
    assert y_config(tmp_path, mode="partial",
                    probing="all-leaves").probing_buses(g) == (2, 3)


def test_config_rejects_empty_probing_list(tmp_path):
    with pytest.raises(ConfigError, match="^explicit probing list is empty$"):
        y_config(tmp_path, mode="partial", probing=[])


def test_complete_mode_rejects_all_leaves(tmp_path):
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    cfg = y_config(tmp_path, probing="all-leaves")
    with pytest.raises(ConfigError, match="^complete mode probes every bus; "
                                          "set probing: all-buses$"):
        cfg.probing_buses(g)


def test_partial_mode_sorts_an_explicit_list(tmp_path):
    g = build_feeder([(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)])
    cfg = y_config(tmp_path, mode="partial", probing=[3, 2])
    assert cfg.probing == (3, 2)
    assert cfg.probing_buses(g) == (2, 3)


def test_rated_delta_map(tmp_path):
    cfg = y_config(tmp_path,
                   s_base_kva=1000.0,
                   loads_kw={1: 500.0, 2: 250.0},
                   delta={"policy": "rated", "multiple": 0.5,
                          "default_kw": 100.0})
    assert cfg.delta_map((1, 2, 3)) == pytest.approx(
        {1: 0.25, 2: 0.125, 3: 0.05})


def test_rated_delta_needs_some_load(tmp_path):
    cfg = y_config(tmp_path, delta={"policy": "rated"})
    with pytest.raises(ConfigError, match="no rated load"):
        cfg.delta_map((1,))


def test_rated_delta_names_a_load_that_is_not_positive(tmp_path):
    cfg = y_config(tmp_path, loads_kw={2: -630.0},
                   delta={"policy": "rated", "default_kw": 100.0})
    with pytest.raises(ConfigError, match="^bus 2 rated load -630.0 kW is "
                                          "not positive$"):
        cfg.delta_map((1, 2))


# -- runs ---------------------------------------------------------------------


def test_zero_noise_sweeps_are_perfect(tmp_path):
    for mode, probing in (("complete", "all-buses"),
                          ("partial", "all-leaves")):
        result = run_experiment(y_config(tmp_path, mode=mode,
                                         probing=probing))
        assert result.mode == mode
        for row in result.rows:
            assert row["error_pct"] == 0.0
            assert row["mpe_pct"] == pytest.approx(0.0, abs=1e-9)
            assert row["mpe_se"] == pytest.approx(0.0, abs=1e-9)
            assert row["trials"] == 3


def test_row_accessor(tmp_path):
    result = run_experiment(y_config(tmp_path))
    assert result.row(2)["periods"] == 2
    with pytest.raises(KeyError):
        result.row(17)


def test_single_trial_has_no_spread_estimate(tmp_path):
    result = run_experiment(y_config(tmp_path, trials=1, periods=[1]))
    row = result.rows[0]
    assert row["error_pct"] == 0.0
    assert row["mpe_pct"] == pytest.approx(0.0, abs=1e-9)
    assert row["mpe_se"] is None


def test_plan_defect_is_a_config_error_not_a_topology_error(tmp_path,
                                                           monkeypatch):
    """A plan depends only on T, so it is built once per sweep value,
    outside the trials; a defect there must not read as 100% error."""
    def broken_blocks(buses, delta, periods):
        raise ConfigError("broken plan")
    monkeypatch.setattr(gridprobe.experiments.ProbingPlan, "blocks",
                        staticmethod(broken_blocks))
    with pytest.raises(ConfigError, match="broken plan"):
        run_experiment(y_config(tmp_path))


def test_sweep_builds_its_noise_factor_once(tmp_path, monkeypatch):
    """The noise factor depends on the campaign only, so a sweep builds it
    once, however many chunks its trials take (one trial each here)."""
    built = []
    factor = gridprobe.probing._noise_factor
    monkeypatch.setattr(gridprobe.probing, "_noise_factor",
                        lambda *args: built.append(1) or factor(*args))
    monkeypatch.setattr(gridprobe.experiments, "_BLOCK", 1)
    run_experiment(y_config(tmp_path, mode="partial", probing="all-leaves",
                            noise={"sigma_p": 0.01, "sigma_q": 0.01,
                                   "sigma_w": 0.01}, trials=5))
    assert len(built) == 1


def test_sweep_stops_if_noise_free_data_cannot_identify_the_feeder(
        tmp_path):
    """Line (1, 2) is too small to change its path resistance in floating
    point, so even noise-free data put buses 1 and 2 in one group. Every
    trial is scored against that labelling, so the sweep raises its
    error instead of reading 100% error."""
    (tmp_path / "y.csv").write_text(Y_TEXT.replace("1,2,2.0", "1,2,1e-20"))
    cfg = ExperimentConfig.from_dict({
        "feeder": "y.csv", "mode": "complete", "probing": "all-buses",
        "periods": [1], "r_min": 0.5, "trials": 3,
        "delta": {"policy": "fixed", "value_pu": 0.1}},
        base_dir=str(tmp_path))
    with pytest.raises(InconsistentLevelSets, match="depth-1 buses"):
        run_experiment(cfg)


def test_sweep_stops_on_a_draw_that_overflows(tmp_path):
    """Meter noise this large overflows the draw to an infinite estimate,
    which is a data error, as simulating the record is, not a topology
    error."""
    cfg = y_config(tmp_path, noise={"sigma_w": 1e308})
    with pytest.raises(ConfigError, match="must be finite"):
        run_experiment(cfg)


def test_sweep_stops_on_a_path_resistance_that_overflows(tmp_path):
    """Two lines of 1e308 in series overflow bus 2's path resistance, so
    the noise-free estimate is not finite: the sweep raises the draw's
    data error, as `probe` does, not grouping's error for the entry."""
    (tmp_path / "big.csv").write_text("from,to,r_pu,x_pu\n0,1,1e308,1.0\n"
                                      "1,2,1e308,1.0\n1,3,1.0,1.0\n")
    with pytest.raises(ConfigError,
                       match="^measurement values must be finite$"):
        run_experiment(y_config(tmp_path, feeder="big.csv"))


Y_LINES = [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)]


@pytest.mark.parametrize("mode, lines, truth, message", [
    ("complete", Y_LINES, build_feeder([(0, 1, 1.0), (1, 2, 2.0),
                                        (2, 3, 3.0)]),
     r"recovered line \(1, 2\) matches no line of the truth"),
    ("complete", Y_LINES, build_feeder(Y_LINES + [(3, 4, 1.0)]),
     r"truth line \(3, 4\) matches no recovered line"),
    ("partial", [(0, 1, 1.0)], ReducedGrid(2, [], [2], [], 1.0),
     "recovered root 1 is not the truth's root 2"),
], ids=["chain", "extra line", "other root"])
def test_learning_against_another_truth_names_what_differs(mode, lines,
                                                           truth, message):
    """A truth the noise-free recovery does not match stops the sweep's
    set-up with a typed error naming the first part that differs."""
    g = build_feeder(lines)
    buses = g.bus_order
    values = resistance_matrix(g).values
    labelling = _label(ResistanceEstimate(buses, buses, values), None, mode)
    with pytest.raises(LabelMismatch, match=f"^{message}$"):
        gridprobe.experiments._learn(labelling, truth)


def test_sweep_refuses_a_later_period_count_numpy_cannot_hold(tmp_path):
    """Only the first sweep value's plan draws the noise-free estimate;
    every other plan's windows are checked before numpy sees them."""
    cfg = y_config(tmp_path, periods=[1, 2 ** 63])
    with pytest.raises(ConfigError, match="^probing window for bus 1 is too "
                                          "long to represent$"):
        run_experiment(cfg)


def test_sweep_names_the_first_probing_bus_of_a_window_too_long(tmp_path):
    """Every bus of a sweep value's plan shares its window, so the first
    probing bus, in plan order, is named."""
    cfg = y_config(tmp_path, mode="partial", probing=[3, 2],
                   periods=[4, 2 ** 64, 2 ** 63])
    with pytest.raises(ConfigError, match="^probing window for bus 2 is too "
                                          "long to represent$"):
        run_experiment(cfg)


@pytest.mark.parametrize("periods, error, message", [
    ([1, 2 ** 64], ConfigError,
     "^probing window for bus 1 is too long to represent$"),
    ([1, 2], NonpositiveImpedance,
     r"^line \(1,3\) has no reactance; reactance matrix undefined$"),
], ids=["window first", "reactance"])
def test_sweep_checks_every_window_before_it_reads_reactance(
        tmp_path, periods, error, message):
    """The sweep learns from the first sweep value's plan and checks every
    sweep value's windows before it builds the noise factor, which needs
    every line's reactance under sigma_q > 0: a window too long to
    represent is named before a line without reactance."""
    (tmp_path / "nox.csv").write_text(Y_TEXT.replace("1,3,3.0,1.0",
                                                     "1,3,3.0,"))
    cfg = y_config(tmp_path, feeder="nox.csv", periods=periods,
                   noise={"sigma_q": 0.01})
    with pytest.raises(error, match=message):
        run_experiment(cfg)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000])
def test_row_statistics_are_numpy_mean_and_std_bit_for_bit(n):
    """A row's MPE mean and standard error are what np.mean and np.std
    give: numpy sums pairwise in blocks, which these lengths cross, and a
    left-to-right sum rounds differently."""
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 3e2):
        for _ in range(5):
            x = rng.random(n) * scale
            mean, se = _mpe_stats(x)
            assert mean.hex() == float(np.mean(x)).hex()
            if n == 1:
                assert se is None
            else:
                assert se.hex() == float(np.std(x, ddof=1)
                                         / np.sqrt(n)).hex()


def test_row_statistics_need_one_and_two_trials():
    assert _mpe_stats(np.empty(0)) == (None, None)
    assert _mpe_stats(np.array([0.25])) == (0.25, None)
    assert _mpe_stats(np.array([0.0, 0.0])) == (0.0, 0.0)


def test_overwhelming_noise_breaks_recovery(tmp_path):
    cfg = y_config(tmp_path, trials=5, periods=[1],
                   noise={"sigma_w": 0.5})
    row = run_experiment(cfg).rows[0]
    assert row["error_pct"] > 0.0


def test_provenance_records_the_setup(tmp_path):
    result = run_experiment(y_config(tmp_path))
    prov = result.provenance
    assert prov["feeder"] == "y.csv"
    assert prov["mode"] == "complete"
    assert prov["probing_buses"] == [1, 2, 3]
    assert prov["delta_pu"] == {"1": 0.1, "2": 0.1, "3": 0.1}
    assert prov["periods_sweep"] == [1, 2]
    assert prov["r_min"] == 0.5
    assert prov["seed"] == 1
    assert "default_rng((seed, periods))" in prov["trial_seed_rule"]
    assert "redrawn every" in prov["noise_redraw"]


def test_output_comparison_says_what_differs_in_a_results_file(tmp_path):
    """tools/compare_outputs.py tells equal rows under a changed
    provenance, and rows that only gain keys, from changed rows."""
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", os.path.join(os.path.dirname(__file__), "..",
                                        "tools", "compare_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    result = run_experiment(y_config(tmp_path))
    write_results(result, tmp_path / "base")
    write_results(dataclasses.replace(result, provenance={
        **result.provenance, "seed": 2, "trial_seed_rule": "other"}),
        tmp_path / "head")
    base, head = (json.loads((tmp_path / tag / "results.json").read_text())
                  for tag in ("base", "head"))
    assert tool.results_diff(base, base) == (
        "results rows equal; provenance keys that differ: none")
    assert tool.results_diff(base, head) == (
        "results rows equal; provenance keys that differ: seed, "
        "trial_seed_rule")
    for row in head["results"]:
        row.update(margin=0.5, failures={})
    assert tool.results_diff(base, head) == (
        "results rows equal on the base's keys; new keys: failures, margin; "
        "provenance keys that differ: seed, trial_seed_rule")
    del head["provenance"]["numpy"]
    head["results"][0]["error_pct"] += 1.0
    assert tool.results_diff(base, head) == (
        "results rows differ; provenance keys that differ: numpy, seed, "
        "trial_seed_rule")
    # A row that loses a key differs, even if it gains another.
    head = json.loads((tmp_path / "head" / "results.json").read_text())
    head["results"][0]["margin"] = head["results"][0].pop("mpe_se")
    assert tool.results_diff(base, head).startswith("results rows differ;")


@pytest.mark.parametrize("edit, refused", [
    ("src/gridprobe/data/table.yaml", "src/gridprobe/data/table.yaml"),
    ("perfbench/run.py", "perfbench/run.py"),
    ("perfbench/extra.py", "perfbench/extra.py"),
    ("perfbench/out/run.json", None),
    ("src/gridprobe/feeder.py", None),
])
def test_pairs_harness_refuses_trees_whose_benchmark_inputs_differ(
        tmp_path, capsys, edit, refused):
    """tools/bench_pairs.py pairs two trees only when perfbench/ and the
    bundled data its workloads load are the same; run output and the
    package's code may differ."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(os.path.dirname(__file__), "..",
                                    "tools", "bench_pairs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    trees = []
    for side in ("base", "change"):
        tree = tmp_path / side
        for rel in ("BENCHMARK.json", "perfbench/run.py",
                    "src/gridprobe/data/table.yaml",
                    "src/gridprobe/feeder.py"):
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            (tree / rel).write_text("{}\n")
        trees.append(tree)
    path = trees[1] / edit
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("edited\n")
    if refused is None:
        assert tool.benchmark_difference(*trees) is None
        return
    with pytest.raises(SystemExit) as info:
        tool.main([str(t) for t in trees])
    assert info.value.code == 2
    assert refused in capsys.readouterr().err


def test_results_are_deterministic(tmp_path):
    cfg = y_config(tmp_path, noise={"sigma_w": 0.01, "sigma_p": 1e-4,
                                    "sigma_q": 1e-4})
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_results(a, dir_a)
    write_results(b, dir_b)
    # JSON output carries no timing, so reruns agree byte for byte
    assert (dir_a / "results.json").read_bytes() == \
        (dir_b / "results.json").read_bytes()
    # CSV repeats the statistics plus a wall-time column
    for la, lb in zip((dir_a / "results.csv").read_text().splitlines(),
                      (dir_b / "results.csv").read_text().splitlines()):
        assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]


def test_written_results_match_the_run(tmp_path):
    cfg = y_config(tmp_path)
    result = run_experiment(cfg)
    write_results(result, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "results.json").read_text())
    assert payload["provenance"]["seed"] == 1
    got = payload["results"]
    assert [r["periods"] for r in got] == [1, 2]
    for row, back in zip(result.rows, got):
        assert back["error_pct"] == row["error_pct"]
        assert back["mpe_pct"] == row["mpe_pct"]
        assert back["mpe_se"] == row["mpe_se"]
        assert set(back) == {"periods", "error_pct", "mpe_pct", "mpe_se",
                             "trials"}


def test_bundled_configs_parse(tmp_path):
    import os
    data = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                        "data")
    for name in ("table_complete.yaml", "table_partial.yaml"):
        raw = fileio.load_config(os.path.join(data, name))
        cfg = ExperimentConfig.from_dict(raw, base_dir=data)
        assert cfg.trials == 1000
        assert cfg.r_min > 0
        g = fileio.load_feeder(cfg.feeder_path)
        buses = cfg.probing_buses(g)
        delta = cfg.delta_map(buses)
        assert all(d > 0 for d in delta.values())
    assert ExperimentConfig.from_dict(
        fileio.load_config(os.path.join(data, "table_complete.yaml")),
        base_dir=data).periods == (1, 10, 20, 40, 90)
