"""Input boundaries: typed errors for non-finite and mistyped values.

Library constructors and the config reader must reject NaN, infinities,
fractional counts, bools as reals and wrongly shaped sections with a
GridProbeError, every public function and constructor a first argument
of another type, and the command line must turn those into exit code 1
with a JSON message.
"""

import copy
import inspect
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gridprobe
from gridprobe import (ColumnGrouping, ConfigError, ExperimentConfig,
                       ExperimentResult, FeederFormatError, FeederGraph,
                       GraphComparison, GridProbeError,
                       InconsistentLevelSets, LabelMismatch, LevelGroup,
                       LevelSetFamily,
                       NoiseModel, NonpositiveRmin, NonpositiveImpedance,
                       ProbingPlan, ProbingRecord, RecoveryReport,
                       ReducedGrid, ResistanceEstimate, ResistanceMatrix,
                       UnknownNode,
                       assemble_families, build_feeder, cli, compare_graphs,
                       design_plan, effective_resistance,
                       estimate_resistances, group_column_exact,
                       group_column_noisy, group_estimate,
                       grouping_diagnostics, identifiable_junctions, identify,
                       level_sets, load_config, load_feeder, load_record,
                       metered_level_sets, noise_bound, reactance_matrix,
                       recover_full, recover_partial,
                       reduce_grid, resistance_matrix, run_experiment,
                       sample_estimate, save_feeder, save_record,
                       save_report, simulate_probing, write_results)

NAN, INF = float("nan"), float("inf")
Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]

BASE_CFG = {
    "feeder": "y.csv",
    "mode": "complete",
    "probing": "all-buses",
    "periods": [3],
    "r_min": 0.5,
    "trials": 2,
    "seed": 11,
    "s_base_kva": 100.0,
    "loads_kw": {1: 5.0, 2: 5.0, 3: 5.0},
    "noise": {"sigma_p": 1e-4, "sigma_q": 1e-4, "sigma_w": 1e-4},
    "delta": {"policy": "rated", "multiple": 1.0, "default_kw": 5.0},
}


def write_y_feeder(tmp_path):
    (tmp_path / "y.csv").write_text("from,to,r_pu,x_pu\n0,1,1.0,1.0\n"
                                    "1,2,2.0,1.0\n1,3,3.0,1.0\n")


def run_montecarlo(tmp_path, capsys, raw):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    capsys.readouterr()
    code = cli.main(["montecarlo", "--config", str(cfg), "--out", str(out)])
    return code, capsys.readouterr().err, out


def with_key(path, value):
    raw = copy.deepcopy(BASE_CFG)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


# -- config reader ------------------------------------------------------------


def test_base_config_runs(tmp_path, capsys):
    code, err, out = run_montecarlo(tmp_path, capsys, BASE_CFG)
    assert code == 0, err
    assert (out / "results.json").exists()


@pytest.mark.parametrize("path, value", [
    (("noise",), [1, 2]),
    (("delta",), [1.0]),
    (("loads_kw",), [5.0, 5.0]),
    (("trials",), 2.5),
    (("trials",), True),
    (("periods",), [2.5]),
    (("periods",), "12"),
    (("seed",), -1),
    (("seed",), 1.5),
    (("noise", "sigma_p"), NAN),
    (("noise", "sigma_q"), INF),
    (("noise", "sigma_w"), NAN),
    (("r_min",), NAN),
    (("r_min",), INF),
    (("s_base_kva",), NAN),
    (("delta", "multiple"), NAN),
    (("delta", "multiple"), -1.0),
    (("delta", "default_kw"), NAN),
    (("loads_kw", 2), NAN),
    (("loads_kw", 3), INF),
    (("r_min",), True),
    (("noise", "sigma_w"), True),
    (("s_base_kva",), True),
])
def test_bad_config_value_exits_with_config_error(tmp_path, capsys, path,
                                                  value):
    code, err, out = run_montecarlo(tmp_path, capsys, with_key(path, value))
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert not (out / "results.json").exists()


def test_negative_probe_seed_exits_with_config_error(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(BASE_CFG))
    rec = tmp_path / "probe.rec"
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(cfg), "--seed", "-1",
                     "--out", str(rec)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not rec.exists()


@pytest.mark.parametrize("periods", ["0", "-1"])
def test_bad_probe_periods_exit_with_config_error(tmp_path, capsys, periods):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(BASE_CFG))
    rec = tmp_path / "probe.rec"
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(cfg), "--periods", periods,
                     "--out", str(rec)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not rec.exists()


@pytest.mark.parametrize("probing", [[2, 3, 3], [2, 3.5]])
def test_bad_probing_list_exits_with_config_error(tmp_path, capsys, probing):
    raw = with_key(("probing",), probing)
    raw["mode"] = "partial"
    code, err, _ = run_montecarlo(tmp_path, capsys, raw)
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("value_pu", [NAN, INF, -0.1])
def test_bad_fixed_delta_exits_with_config_error(tmp_path, capsys, value_pu):
    raw = with_key(("delta",), {"policy": "fixed", "value_pu": value_pu})
    code, err, _ = run_montecarlo(tmp_path, capsys, raw)
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize("raw", [[], "config", 3, None])
def test_config_must_be_a_mapping(raw):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.integers(), inner, max_size=3),
    max_leaves=8)


def overlay(top, noise, delta, loads, dropped):
    raw = copy.deepcopy(BASE_CFG)
    raw["noise"].update(noise)
    raw["delta"].update(delta)
    raw["loads_kw"].update(loads)
    raw.update(top)
    for key in dropped:
        raw.pop(key, None)
    return raw


near_valid_configs = st.builds(
    overlay,
    st.dictionaries(st.sampled_from(sorted(BASE_CFG)), json_values,
                    max_size=3),
    st.dictionaries(st.sampled_from(["sigma_p", "sigma_q", "sigma_w"]),
                    json_values, max_size=2),
    st.dictionaries(st.sampled_from(["policy", "multiple", "default_kw",
                                     "value_pu"]), json_values, max_size=2),
    st.dictionaries(json_values.filter(lambda v: isinstance(v, (int, str))),
                    json_values, max_size=2),
    st.sets(st.sampled_from(sorted(BASE_CFG)), max_size=2))


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(json_values, near_valid_configs))
def test_from_dict_returns_config_or_config_error(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg.trials, int) and cfg.trials >= 1
    assert all(isinstance(t, int) and t >= 1 for t in cfg.periods)
    reals = [cfg.r_min, cfg.s_base_kva, cfg.delta_multiple,
             cfg.noise.sigma_p, cfg.noise.sigma_q, cfg.noise.sigma_w,
             *cfg.loads_kw.values()]
    assert all(math.isfinite(v) for v in reals)


# -- library constructors -----------------------------------------------------


@pytest.mark.parametrize("field", ["sigma_p", "sigma_q", "sigma_w"])
@pytest.mark.parametrize("value", [NAN, INF, -1e-3])
def test_noise_model_rejects_nonfinite_sigmas(field, value):
    with pytest.raises(ConfigError):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0])
def test_probing_plan_rejects_bad_deltas(value):
    with pytest.raises(ConfigError):
        ProbingPlan.blocks([1, 2], [0.1, value], 3)


def test_probing_plan_rejects_nonfinite_periods_and_matrix():
    with pytest.raises(ConfigError):
        ProbingPlan(buses=(1,), delta=(0.1,), periods=(NAN,))
    with pytest.raises(ConfigError):
        ProbingPlan(buses=(1,), delta=(0.1,), periods=(INF,))
    with pytest.raises(ConfigError):
        ProbingPlan.general([1], np.array([[0.1, NAN]]))


@pytest.mark.parametrize("r_min", [NAN, INF, 0.0, -1.0])
def test_noisy_grouping_rejects_bad_r_min(r_min):
    with pytest.raises(NonpositiveRmin):
        group_column_noisy({1: 1.0}, 1, r_min=r_min)


def test_design_plan_rejects_nonfinite_inputs():
    for r_min in (NAN, INF):
        with pytest.raises(NonpositiveRmin):
            design_plan(r_min, 1e-3, {1: 0.1})
    for sigma in (NAN, INF):
        with pytest.raises(ConfigError):
            design_plan(0.5, sigma, {1: 0.1})
    for delta in (NAN, INF):
        with pytest.raises(ConfigError):
            design_plan(0.5, 1e-3, {1: delta})


# -- non-finite column entries -----------------------------------------------


@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize("group", [group_column_exact,
                                   lambda e, m: group_column_noisy(e, m, 0.5)])
def test_nonfinite_entry_names_column_and_bus(group, value):
    with pytest.raises(InconsistentLevelSets, match=r"column 2\b.*bus 3\b"):
        group({1: 1.0, 2: 3.0, 3: value}, 2)


@pytest.mark.parametrize("entries", [{1: "x", 2: 0.1}, {1: None}],
                         ids=repr)
def test_non_number_entry_names_column_and_bus(entries):
    with pytest.raises(InconsistentLevelSets,
                       match=r"column 1: entry of bus 1 .* not a number"):
        group_column_noisy(entries, 1, r_min=0.1)
    with pytest.raises(InconsistentLevelSets,
                       match="column owner 3 missing"):
        group_column_exact(entries, 3)


def test_nan_in_record_is_reported_by_recover(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(BASE_CFG))
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    lines = rec.read_text().splitlines()
    row = lines[2].split(",")  # bus 2's row; periods 0-2 probe bus 1
    row[0] = "nan"
    lines[2] = ",".join(row)
    rec.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["recover", str(rec), "--r-min", "0.5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FeederFormatError"
    assert "line 3" in err["message"] and "finite" in err["message"]


# -- float extremes -----------------------------------------------------------
#
# Finite inputs whose arithmetic overflows raise the typed error of the
# finiteness check after it, with no numpy warning on the way.

Y_PLAN = ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2)


@pytest.mark.parametrize("draw", [
    # `_add_noise` scales the meter noise past the largest float.
    lambda g: simulate_probing(g, Y_PLAN, NoiseModel(sigma_w=1.7e308),
                               rng=np.random.default_rng(0)),
    # `_sampler`'s draw divides a finite window sum by 0.1·√2.
    lambda g: sample_estimate(g, Y_PLAN, NoiseModel(sigma_w=1e308),
                              rng=np.random.default_rng(0)),
], ids=["simulate_probing", "sample_estimate"])
def test_noise_that_overflows_raises_config_error_without_a_warning(draw):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError,
                           match="^measurement values must be finite$"):
            draw(build_feeder(Y_EDGES))


@pytest.mark.parametrize("plan", [Y_PLAN, ProbingPlan.general(
    [1, 2, 3], Y_PLAN.injections())], ids=["block", "general"])
def test_window_sum_that_overflows_raises_config_error(plan, tmp_path,
                                                        capsys):
    # Two periods of 1.5e308 sum past the largest float: the estimate
    # raises what a draw that overflows raises, in the library and in
    # `gridprobe recover`.
    record = ProbingRecord("complete", (1, 2, 3), np.full((3, 6), 1.5e308),
                           plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError,
                           match="^measurement values must be finite$"):
            estimate_resistances(record)
        save_record(record, tmp_path / "big.rec")
        capsys.readouterr()
        assert cli.main(["recover", str(tmp_path / "big.rec")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": "measurement values must be finite"}


def test_infinite_estimate_is_named_by_identify():
    estimate = ResistanceEstimate((1, 2, 3), (1, 2, 3),
                                  np.full((3, 3), math.inf))
    with pytest.raises(InconsistentLevelSets,
                       match="^column 1: entry of bus 1 is inf, not "
                             "finite$"):
        identify(estimate, 0.5, "complete")


def probe_record(tmp_path):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(BASE_CFG))
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    return rec


def recover_with_header(tmp_path, capsys, key, edit):
    rec = probe_record(tmp_path)
    lines = rec.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = edit(header[key])
    lines[0] = json.dumps(header)
    rec.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["recover", str(rec), "--r-min", "0.5"])
    return code, json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("key, edit", [
    ("buses", lambda v: ["a"] + v[1:]),
    ("buses", lambda v: [1.5] + v[1:]),
    ("buses", lambda v: "123"),
    ("delta", lambda v: ["a"] + v[1:]),
    pytest.param("delta", lambda v: [True] + v[1:], id="delta-bool"),
    ("periods", lambda v: [2.5] + v[1:]),
    ("periods", lambda v: [INF] + v[1:]),
    ("matrix", lambda v: "abc"),
    ("matrix", lambda v: [[1.0, "a"]]),
    ("matrix", lambda v: [[1.0], [1.0, 2.0]]),
    ("row_nodes", lambda v: 7),
    pytest.param("delta", lambda v: v + [-7.0], id="delta-extra"),
    pytest.param("periods", lambda v: v + [v[0]], id="periods-extra"),
])
def test_malformed_record_header_is_a_format_error(tmp_path, capsys, key,
                                                   edit):
    code, err = recover_with_header(tmp_path, capsys, key, edit)
    assert code == 1
    assert err["error"] == "FeederFormatError"


@pytest.mark.parametrize("key, edit", [
    ("row_nodes", lambda v: [v[0], v[0]] + v[2:]),
    ("row_nodes", lambda v: ["a"] + v[1:]),
    ("row_nodes", lambda v: [True] + v[1:]),
    ("seed", lambda v: -1),
    ("seed", lambda v: 1.5),
    ("seed", lambda v: "7"),
    ("seed", lambda v: True),
])
def test_bad_record_rows_or_seed_are_config_errors(tmp_path, capsys, key,
                                                   edit):
    code, err = recover_with_header(tmp_path, capsys, key, edit)
    assert code == 1
    assert err["error"] == "ConfigError"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_nonfinite_record_value_names_the_line(tmp_path, capsys, value):
    rec = probe_record(tmp_path)
    lines = rec.read_text().splitlines()
    row = lines[3].split(",")
    row[-1] = value
    lines[3] = ",".join(row)
    rec.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["recover", str(rec), "--r-min", "0.5"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FeederFormatError"
    assert "line 4" in err["message"]


def test_record_rejects_duplicate_rows_and_bad_seeds():
    plan = ProbingPlan.blocks([1, 2], [0.1, 0.1], 1)
    values = np.zeros((2, 2))
    with pytest.raises(ConfigError, match="distinct"):
        ProbingRecord("partial", (1, 1), values, plan)
    for seed in (-1, "3", False):
        with pytest.raises(ConfigError, match="seed"):
            ProbingRecord("partial", (1, 2), values, plan, seed=seed)
    for seed in (2.0, np.int64(2)):
        record = ProbingRecord("partial", (1, 2), values, plan, seed=seed)
        assert record.seed == 2 and type(record.seed) is int


@pytest.mark.parametrize("r_min, sigma, delta", [
    (1e-300, 1.0, 1.0),     # the window length overflows
    (1e-200, 1.0, 1e-200),  # r_min * delta underflows to zero
    (0.5, 1e308, 1e-10),    # the window length is infinite
])
def test_design_plan_rejects_unrepresentable_windows(r_min, sigma, delta):
    with pytest.raises(ConfigError):
        design_plan(r_min, sigma, {1: delta})


@pytest.mark.parametrize("tol", [NAN, INF, -1e-9])
def test_assemble_rejects_bad_value_tol(tol):
    g = build_feeder(Y_EDGES)
    groupings = [group_column_exact(resistance_matrix(g).column(m), m)
                 for m in (1, 2, 3)]
    with pytest.raises(ConfigError, match="value_tol"):
        assemble_families(groupings, value_tol=tol)
    assert sorted(assemble_families(groupings, value_tol=0.0)) == [1, 2, 3]


# -- level-set families and groupings ----------------------------------------


def test_family_lookups_do_not_wrap():
    g = build_feeder(Y_EDGES)
    fam = metered_level_sets(g, 2, {2, 3})
    assert fam.at(1) == {3} and fam.at(2) == {2}
    for k in (0, -1, 3):
        with pytest.raises(KeyError):
            fam.at(k)
        with pytest.raises(KeyError):
            fam.value_at(k)
    full = level_sets(g, 2)
    with pytest.raises(KeyError):
        full.at(-1)
    with pytest.raises(KeyError):
        full.value_at(3)


def test_groupings_are_families():
    g = build_feeder(Y_EDGES)
    rmat = resistance_matrix(g)
    groupings = [group_column_exact(rmat.column(m), m) for m in (2, 3)]
    assert ColumnGrouping.nodes_at is LevelSetFamily.at
    for grp in groupings:
        assert isinstance(grp, LevelSetFamily)
        assert grp.mode == "complete" and not grp.metered
        assert [x.depth for x in grp.groups] == list(grp.depths)
        assert [x.nodes for x in grp.groups] == list(grp.sets)
        with pytest.raises(KeyError):
            grp.nodes_at(grp.depth + 1)
    families = assemble_families(groupings)
    for grp in groupings:
        assert families[grp.owner] is grp


def test_partial_groupings_get_the_probing_set():
    groupings = [
        group_column_noisy({2: 3.0, 3: 1.0}, 2, 0.5, mode="partial"),
        group_column_noisy({2: 1.0, 3: 4.0}, 3, 0.5, mode="partial"),
    ]
    assert all(grp.probing is None for grp in groupings)
    families = assemble_families(groupings)
    for grp in groupings:
        fam = families[grp.owner]
        assert fam.probing == {2, 3}
        assert fam.mode == "partial" and fam.start_depth == 1
        assert fam.sets == grp.sets and fam.values == grp.values
        assert fam.sorted_entries == grp.sorted_entries
        assert fam.threshold == grp.threshold == 0.25


# -- the integer rule ---------------------------------------------------------
#
# Every bus ID, period count, trial count and seed goes through one rule:
# an integral number becomes a plain int; a bool, a fractional or non-finite
# number, a string or None raises the entry point's typed error.

BAD_INTEGERS = [1.5, True, "3", None, NAN]
GOOD_INTEGERS = [(2.0, 2), (np.int64(4), 4), (2**70, 2**70)]


def member(items, k):
    """The one stored element equal to k."""
    (n,) = [n for n in items if n == k]
    return n


def y_feeder(k):
    """Bus 1 under the root, with leaves k and 3 below it."""
    return build_feeder([(0, 1, 1.0, 1.0), (1, k, 2.0, 1.0), (1, 3, 3.0, 1.0)])


CONFIG_ARGS = dict(feeder_path="y.csv", mode="partial", probing=(2, 3),
                   periods=(3,), noise=NoiseModel(), r_min=0.5, trials=2,
                   seed=11, s_base_kva=100.0, loads_kw={2: 5.0, 3: 5.0})
PLAN = ProbingPlan.blocks([1], [0.1], 1)

# name -> (typed error, stored value when v is put where the integer k goes)
INTEGER_SITES = {
    "FeederGraph": (UnknownNode, lambda v, k: member(build_feeder(
        [(0, 1, 1.0), (1, v, 2.0), (1, 3, 3.0)]).nodes, k)),
    "ReducedGrid root": (UnknownNode, lambda v, k: ReducedGrid(
        v, [(k, 3, 1.0)], probing=[3], internal=[k],
        root_upstream_r=1.0).root),
    "ReducedGrid probing": (UnknownNode, lambda v, k: member(ReducedGrid(
        1, [(1, k, 2.0), (1, 3, 3.0)], probing=[v, 3], internal=[1],
        root_upstream_r=1.0).probing, k)),
    "ReducedGrid internal": (UnknownNode, lambda v, k: member(ReducedGrid(
        1, [(1, k, 2.0), (k, 3, 3.0)], probing=[3], internal=[1, v],
        root_upstream_r=1.0).internal, k)),
    "reduce_grid": (UnknownNode, lambda v, k: member(
        reduce_grid(y_feeder(k), [v, 3]).probing, k)),
    "metered_level_sets": (UnknownNode, lambda v, k: member(
        metered_level_sets(y_feeder(k), 3, [v, 3]).probing, k)),
    "ProbingPlan buses": (ConfigError, lambda v, k: ProbingPlan(
        buses=(v,), delta=(0.1,), periods=(1,)).buses[0]),
    "ProbingPlan periods": (ConfigError, lambda v, k: ProbingPlan(
        buses=(1,), delta=(0.1,), periods=(v,)).periods[0]),
    "ProbingPlan.blocks buses": (ConfigError, lambda v, k: ProbingPlan.blocks(
        [v], {k: 0.1}, 1).buses[0]),
    "ProbingPlan.blocks periods": (ConfigError, lambda v, k: ProbingPlan
                                   .blocks([1], [0.1], [v]).periods[0]),
    "ProbingPlan.blocks period": (ConfigError, lambda v, k: ProbingPlan
                                  .blocks([1], [0.1], v).periods[0]),
    "ProbingPlan.general": (ConfigError, lambda v, k: ProbingPlan.general(
        [v], np.eye(1)).buses[0]),
    "NoiseModel seed": (ConfigError, lambda v, k: NoiseModel(seed=v).seed),
    "ProbingRecord rows": (ConfigError, lambda v, k: ProbingRecord(
        "partial", (v,), np.zeros((1, 1)), PLAN).row_nodes[0]),
    "ProbingRecord seed": (ConfigError, lambda v, k: ProbingRecord(
        "partial", (1,), np.zeros((1, 1)), PLAN, seed=v).seed),
    "grouping entry key": (InconsistentLevelSets, lambda v, k: member(
        group_column_exact({v: 1.0, 3: 2.0}, 3, mode="partial").sets[0], k)),
    "grouping owner": (InconsistentLevelSets, lambda v, k: group_column_noisy(
        {v: 2.0, 3: 1.0}, v, 0.5, mode="partial").owner),
    "ExperimentConfig trials": (ConfigError, lambda v, k: ExperimentConfig(
        **{**CONFIG_ARGS, "trials": v}).trials),
    "ExperimentConfig seed": (ConfigError, lambda v, k: ExperimentConfig(
        **{**CONFIG_ARGS, "seed": v}).seed),
    "ExperimentConfig periods": (ConfigError, lambda v, k: ExperimentConfig(
        **{**CONFIG_ARGS, "periods": [v]}).periods[0]),
    "ExperimentConfig probing": (ConfigError, lambda v, k: member(
        ExperimentConfig(**{**CONFIG_ARGS, "probing": [v, 3]}).probing, k)),
    "ExperimentConfig loads_kw": (ConfigError, lambda v, k: member(
        ExperimentConfig(**{**CONFIG_ARGS, "loads_kw": {v: 5.0}}).loads_kw,
        k)),
    "ResistanceEstimate rows": (ConfigError, lambda v, k: member(
        ResistanceEstimate((v, 3), (3,), np.zeros((2, 1))).row_nodes, k)),
    "ResistanceEstimate columns": (ConfigError, lambda v, k: member(
        ResistanceEstimate((3,), (v, 3), np.zeros((1, 2))).col_nodes, k)),
    "LevelSetFamily owner": (ConfigError, lambda v, k: LevelSetFamily(
        v, 0, (frozenset({0, k}),), (0.0,), False).owner),
    "LevelSetFamily start_depth": (ConfigError, lambda v, k: LevelSetFamily(
        1, v, (frozenset({1}),), (1.0,), True).start_depth),
    "LevelGroup depth": (ConfigError, lambda v, k: LevelGroup(
        v, frozenset({1}), 0.0).depth),
}
SEED_SITES = {"NoiseModel seed", "ProbingRecord seed"}  # None: no seed


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_rule_rejects(site, value):
    error, build = INTEGER_SITES[site]
    if value is None and site in SEED_SITES:
        assert build(value, 2) is None
        return
    with pytest.raises(error, match="is not an integer"):
        build(value, 2)


@pytest.mark.parametrize("value, k", GOOD_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_rule_accepts(site, value, k):
    stored = INTEGER_SITES[site][1](value, k)
    assert stored == k and type(stored) is int


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("key", ["trials", "seed", "periods", "probing",
                                 "loads_kw"])
def test_integer_rule_in_configs_exits_1(tmp_path, capsys, key, value):
    raw = copy.deepcopy(BASE_CFG)
    raw.update(mode="partial", probing=[2, 3])
    if key in ("periods", "probing"):
        raw[key] = [value] + raw[key][1:]
    elif key == "loads_kw":
        raw[key] = {value: 5.0}
    else:
        raw[key] = value
    code, err, out = run_montecarlo(tmp_path, capsys, raw)
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("key, error, value", [
    (key, error, value)
    for key, error in [("buses", "FeederFormatError"),
                       ("periods", "FeederFormatError"),
                       ("row_nodes", "ConfigError"), ("seed", "ConfigError")]
    for value in BAD_INTEGERS
    if (key, value) != ("seed", None)])  # a record without a seed is valid
def test_integer_rule_in_record_headers_exits_1(tmp_path, capsys, key, error,
                                                value):
    edit = (lambda v: value) if key == "seed" else (lambda v: [value] + v[1:])
    code, err = recover_with_header(tmp_path, capsys, key, edit)
    assert code == 1
    assert err["error"] == error
    assert "is not an integer" in err["message"]


def test_record_header_reads_integral_floats_as_ints(tmp_path):
    rec = probe_record(tmp_path)
    lines = rec.read_text().splitlines()
    header = json.loads(lines[0])
    before = load_record(rec)
    for key in ("buses", "periods", "row_nodes"):
        header[key] = [float(v) for v in header[key]]
    header["seed"] = float(header["seed"])
    rec.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    after = load_record(rec)
    for a, b in [(after.plan.buses, before.plan.buses),
                 (after.plan.periods, before.plan.periods),
                 (after.row_nodes, before.row_nodes),
                 ((after.seed,), (before.seed,))]:
        assert a == b and all(type(n) is int for n in a)
    assert np.array_equal(after.values, before.values)


def test_integer_rule_rejects_numpy_bools():
    with pytest.raises(UnknownNode):
        build_feeder([(0, np.True_, 1.0)])


TWO_SETS = (frozenset({0}), frozenset({1}))
GROUPING = {"owner": 1, "start_depth": 0, "sets": TWO_SETS,
            "values": (0.0, 1.0), "metered": False}
REPRODUCTIONS = [
    (UnknownNode, lambda: build_feeder([(0, True, 1.0), (True, 2, 1.0)])),
    (ConfigError, lambda: ProbingPlan.blocks([1.5], [0.1], [2.5])),
    (ConfigError, lambda: ProbingPlan.blocks([1], [0.1], [2.5])),
    (ConfigError, lambda: ProbingPlan.general([1.5], np.eye(1))),
    (UnknownNode, lambda: reduce_grid(y_feeder(2), [2.7, 3])),
    (UnknownNode, lambda: metered_level_sets(y_feeder(2), 2, [2.7, 3])),
    (UnknownNode, lambda: ReducedGrid(1, [(1, 2, 1.0)], probing=[1.9],
                                      internal=[], root_upstream_r=0.0)),
    (InconsistentLevelSets, lambda: group_column_noisy(
        {1.5: 0.2, 2: 0.3}, 2, 0.05, mode="partial")),
    (InconsistentLevelSets, lambda: group_column_noisy(
        {True: 0.2, 2: 0.3}, 2, 0.05, mode="partial")),
    (ConfigError, lambda: design_plan(0.1, 0.0, {1.5: 0.1, 2: 0.1})),
    (ConfigError, lambda: ExperimentConfig(**{**CONFIG_ARGS, "trials": 2.5})),
    (ConfigError, lambda: ExperimentConfig(**{**CONFIG_ARGS, "seed": 1.5})),
    (ConfigError, lambda: ExperimentConfig(**{**CONFIG_ARGS, "trials": True})),
    (ConfigError, lambda: ExperimentConfig(**{**CONFIG_ARGS,
                                              "loads_kw": [1, 2]})),
    (ConfigError, lambda: ExperimentConfig(**{**CONFIG_ARGS, "noise": None})),
    (ConfigError, lambda: NoiseModel(seed=1.5)),
    (ConfigError, lambda: NoiseModel(seed=True)),
    (ConfigError, lambda: ExperimentConfig.from_dict(
        {**BASE_CFG, "trials": "3"})),
    # Thresholds that are not numbers, on the path `identify` takes.
    (NonpositiveRmin, lambda: group_column_noisy({1: 0.2}, 1, "a")),
    (ConfigError, lambda: assemble_families(
        [group_column_exact({1: 0.2}, 1)], value_tol="a")),
    (ConfigError, lambda: NoiseModel(sigma_p="a")),
    (ConfigError, lambda: NoiseModel(sigma_w=None)),
    (NonpositiveRmin, lambda: identify(
        estimate_resistances(simulate_probing(
            y_feeder(2), ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2),
            NoiseModel())), "a", "complete")),
    # Constructors that hold arrays.
    (ConfigError, lambda: ResistanceMatrix((1,), np.eye(2))),
    (ConfigError, lambda: ResistanceMatrix((1,), [["a"]])),
    (ConfigError, lambda: ProbingRecord("complete", (1,), [[NAN]], PLAN)),
    (ConfigError, lambda: ProbingRecord("complete", (1,), np.array([[-INF]]),
                                        PLAN)),
    (ConfigError, lambda: ProbingRecord("complete", (1,), [["a"]], PLAN)),
    (ConfigError, lambda: LevelSetFamily(1, 0, (frozenset({1}),), (),
                                         metered=False)),
    # A matrix's node order is a bus list too.
    (ConfigError, lambda: ResistanceMatrix((1, 1), np.eye(2))),
    (ConfigError, lambda: ResistanceMatrix(("a",), np.eye(1))),
    # Family keys are checked before either recovery uses them.
    (InconsistentLevelSets, lambda: recover_full(
        {"a": level_sets(y_feeder(2), 2)})),
    (InconsistentLevelSets, lambda: recover_partial(
        {"a": metered_level_sets(y_feeder(2), 2, [2, 3])})),
    # Containers of another shape.
    (ConfigError, lambda: FeederGraph([5])),
    (ConfigError, lambda: FeederGraph([(0, 1)])),
    (ConfigError, lambda: ReducedGrid(1, 5, probing=[1], internal=[],
                                      root_upstream_r=0.0)),
    (ConfigError, lambda: LevelSetFamily(5, 0, 5, 5, False)),
    (ConfigError, lambda: ProbingPlan(buses=[1], delta=5, periods=[1])),
    (ConfigError, lambda: ProbingPlan(buses=[1], delta=[0.1], periods=5)),
    (ConfigError, lambda: ProbingPlan.blocks([1], 5, 1)),
    # Level-set families hold sets and numbers, checked when built.
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, TWO_SETS, ("a", "b"), False)})),
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, TWO_SETS, (0.0, 10**400), False)})),
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, TWO_SETS, (0.0, True), False)})),
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, (5, 6), (0.0, 1.0), False)})),
    (ConfigError, lambda: assemble_families([LevelSetFamily(
        1, 1, (5, 6), (0.0, 1.0), True)])),
    # Family fields keep their checked types.
    (ConfigError, lambda: LevelSetFamily(True, 0, TWO_SETS, (0.0, 1.0),
                                         False)),
    (ConfigError, lambda: recover_partial({1: LevelSetFamily(
        1, 1.5, TWO_SETS, (0.0, 1.0), True)})),
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, TWO_SETS, (0.0, 1.0), 0)})),
    (ConfigError, lambda: LevelSetFamily(1, 1, TWO_SETS, (0.0, 1.0), "yes")),
    (ConfigError, lambda: LevelSetFamily(1, 1, TWO_SETS, (0.0, 1.0), True,
                                         probing=5)),
    (ConfigError, lambda: LevelSetFamily(1, 1, TWO_SETS, (0.0, 1.0), True,
                                         probing=[1, "a"])),
    (ConfigError, lambda: LevelSetFamily(1, 1, TWO_SETS, (0.0, 1.0), True,
                                         probing=[1, 1])),
    # Level-set members are bus IDs under the integer rule.
    (ConfigError, lambda: assemble_families([LevelSetFamily(
        1, 0, (frozenset({0}), frozenset({1, "a"})), (0.0, 1.0), False)])),
    (ConfigError, lambda: recover_full({1: LevelSetFamily(
        1, 0, (frozenset({0}), frozenset({True})), (0.0, 1.0), False)})),
    (ConfigError, lambda: LevelSetFamily(1, 0, ({0}, {1.5}), (0.0, 1.0),
                                         False)),
    # A grouping's sorted entries are (bus ID, real) pairs and its
    # threshold is None or positive and finite.
    (ConfigError, lambda: grouping_diagnostics(ColumnGrouping(
        **GROUPING, sorted_entries=5))),
    (ConfigError, lambda: ColumnGrouping(**GROUPING,
                                         sorted_entries=((1, "x"),))),
    (ConfigError, lambda: ColumnGrouping(**GROUPING,
                                         sorted_entries=((1.5, 1.0),))),
    (ConfigError, lambda: ColumnGrouping(**GROUPING, sorted_entries=(1, 2))),
    (ConfigError, lambda: ColumnGrouping(**GROUPING, threshold="a")),
    (ConfigError, lambda: ColumnGrouping(**GROUPING, threshold=NAN)),
    (ConfigError, lambda: ColumnGrouping(**GROUPING, threshold=True)),
    (ConfigError, lambda: ColumnGrouping(**GROUPING, threshold=0.0)),
    # An r_min that halves to zero gives no gap rule.
    (NonpositiveRmin, lambda: group_column_noisy({1: 0.2}, 1, 5e-324)),
    # Spectral radii are finite and nonnegative reals.
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), "a", 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), None, 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), NAN, 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), INF, 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), -1.0, 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_p=1.0), True, 1.0)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_q=1.0), 1.0, "a")),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_q=1.0), 1.0, NAN)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_q=1.0), 1.0, -INF)),
    (ConfigError, lambda: noise_bound(NoiseModel(sigma_q=1.0), 1.0, True)),
    # Probing magnitudes are keyed by bus IDs, checked before sorting.
    (ConfigError, lambda: design_plan(0.1, 0.01, {1: 0.1, "a": 0.2})),
    (ConfigError, lambda: design_plan(0.1, 0.01, {None: 0.1, 1: 0.1})),
]


@pytest.mark.parametrize("error, call", REPRODUCTIONS)
def test_truncating_inputs_raise_typed_errors(error, call):
    with pytest.raises(error):
        call()


def test_family_fields_keep_their_checked_types():
    # An integral float owner or start depth is stored as an int, a numpy
    # bool as a bool and a probing list as a frozenset, so the family
    # recovers as the one built from those.
    loose = LevelSetFamily(1.0, 1.0, (frozenset({1}),), [1.0], np.True_,
                           probing=[1.0])
    plain = LevelSetFamily(1, 1, (frozenset({1}),), (1.0,), True,
                           probing=frozenset({1}))
    assert loose == plain
    assert [type(v) for v in (loose.owner, loose.start_depth, loose.metered,
                              loose.probing)] == [int, int, bool, frozenset]
    assert recover_partial({1: loose}) == recover_partial({1: plain})


def test_family_members_and_grouping_entries_keep_their_checked_types():
    # Numpy and integral-float bus IDs are stored as ints, numpy reals as
    # floats and lists as tuples, so the grouping equals the one built
    # from those.
    loose = ColumnGrouping(1, 0, (frozenset({np.int64(0)}), {1.0}),
                           (0.0, 1.0), False,
                           sorted_entries=[[0, np.float64(0.0)],
                                           (np.int32(1), 1)],
                           threshold=np.float64(0.25))
    plain = ColumnGrouping(**GROUPING, sorted_entries=((0, 0.0), (1, 1.0)),
                           threshold=0.25)
    assert loose == plain
    assert {type(n) for s in loose.sets for n in s} == {int}
    assert [tuple(map(type, e)) for e in loose.sorted_entries] == [
        (int, float)] * 2
    assert type(loose.threshold) is float
    assert grouping_diagnostics(loose) == grouping_diagnostics(plain)


def test_family_of_plain_sets_recovers_as_frozensets():
    g = y_feeder(2)
    for recover, family in ((recover_full, lambda m: level_sets(g, m)),
                            (recover_partial, lambda m: metered_level_sets(
                                g, m, [2, 3]))):
        frozen = {m: family(m) for m in (2, 3)}
        plain = {m: LevelSetFamily(f.owner, f.start_depth,
                                   [set(s) for s in f.sets], list(f.values),
                                   f.metered, f.probing)
                 for m, f in frozen.items()}
        assert all(type(s) is frozenset and type(v) is float
                   for f in plain.values() for s, v in zip(f.sets, f.values))
        assert recover(plain) == recover(frozen)
        assert assemble_families(plain.values()) == \
            assemble_families(frozen.values())


@pytest.mark.parametrize("path", [None, 5, b"y.csv", ["y.csv"]])
def test_config_feeder_path_must_be_a_path(path):
    with pytest.raises(ConfigError,
                       match="feeder_path must be a str or PathLike, got "):
        ExperimentConfig(**{**CONFIG_ARGS, "feeder_path": path})


def test_config_feeder_path_may_be_a_path_object(tmp_path):
    path = tmp_path / "y.csv"
    cfg = ExperimentConfig(**{**CONFIG_ARGS, "feeder_path": path})
    assert cfg.feeder_path == path


@pytest.mark.parametrize("call", [
    lambda: identify("x", 0.1, "complete"),
    lambda: identify(None, None, "partial"),
    lambda: group_estimate(np.eye(2), 0.1, "complete"),
    lambda: assemble_families([1]),
    lambda: assemble_families([group_column_exact({1: 0.2}, 1), "x"]),
    lambda: recover_full([1]),
    lambda: recover_full({1: 2}),
    lambda: recover_partial({1: "x"}),
    lambda: estimate_resistances("x"),
    lambda: simulate_probing("x", PLAN, NoiseModel()),
    lambda: simulate_probing(y_feeder(2), "x", NoiseModel()),
    lambda: simulate_probing(y_feeder(2), PLAN, None),
    lambda: sample_estimate(y_feeder(2), PLAN, None),
    lambda: compare_graphs("x", y_feeder(2), [1]),
    # An rng that is not a Generator, with or without noise to draw.
    lambda: simulate_probing(y_feeder(2), PLAN, NoiseModel(), rng=5),
    lambda: simulate_probing(y_feeder(2), PLAN, NoiseModel(sigma_w=1e-3),
                             rng=5),
    lambda: sample_estimate(y_feeder(2), PLAN, NoiseModel(), rng=5),
    lambda: sample_estimate(y_feeder(2), PLAN, NoiseModel(sigma_w=1e-3),
                            rng=5),
    lambda: compare_graphs(y_feeder(2), "x", [1]),
    lambda: reduce_grid("x", [1]),
    lambda: ProbingRecord("complete", (1,), [[1.0]], plan=None),
    lambda: design_plan(0.1, 0.1, [0.1]),
])
def test_stages_reject_inputs_of_another_type(call):
    with pytest.raises(ConfigError, match="must be a (ResistanceEstimate|"
                                          "LevelSetFamily|Mapping|FeederGraph|"
                                          "ProbingPlan|ProbingRecord|"
                                          "NoiseModel|Generator), got "):
        call()


def test_recover_partial_checks_family_keys_before_using_them():
    full = level_sets(y_feeder(2), 2)
    metered = metered_level_sets(y_feeder(2), 2, [2, 3])
    # Each recovery first checks that a family is indexed for its data.
    for recover, family in ((recover_full, metered),
                            (recover_partial, full)):
        with pytest.raises(InconsistentLevelSets, match="indexed"):
            recover({2: family})
    with pytest.raises(InconsistentLevelSets,
                       match="^family keyed a owned by 2$"):
        recover_partial({"a": metered})


# -- bus lists ----------------------------------------------------------------
#
# Every list of bus IDs goes through one rule: any iterable but a string,
# each entry an integer by the integer rule, no bus twice.

# value -> the rule's message for it
NOT_BUS_LISTS = [(5, "must be a list of bus IDs, got 5"),
                 ("12", "must be a list of bus IDs, got '12'"),
                 ([2, 2], r"must be distinct, got \[2, 2\]")]

# name -> (typed error, build with v where the bus list goes)
BUS_LIST_SITES = {
    "ProbingPlan": (ConfigError, lambda v: ProbingPlan(
        buses=v, delta=(0.1, 0.1), periods=(1, 1))),
    "ProbingPlan.blocks": (ConfigError, lambda v: ProbingPlan.blocks(
        v, [0.1, 0.1], 1)),
    "ProbingPlan.general": (ConfigError, lambda v: ProbingPlan.general(
        v, np.eye(2))),
    "ProbingRecord rows": (ConfigError, lambda v: ProbingRecord(
        "partial", v, np.zeros((2, 1)), PLAN)),
    "ResistanceEstimate rows": (ConfigError, lambda v: ResistanceEstimate(
        v, (3,), np.zeros((2, 1)))),
    "ResistanceEstimate columns": (ConfigError, lambda v: ResistanceEstimate(
        (3,), v, np.zeros((1, 2)))),
    "ResistanceMatrix": (ConfigError, lambda v: ResistanceMatrix(
        v, np.eye(2))),
    "ExperimentConfig probing": (ConfigError, lambda v: ExperimentConfig(
        **{**CONFIG_ARGS, "probing": v})),
    "ReducedGrid probing": (UnknownNode, lambda v: ReducedGrid(
        1, [(1, 2, 1.0), (1, 3, 1.0)], probing=v, internal=[1],
        root_upstream_r=0.0)),
    "ReducedGrid internal": (UnknownNode, lambda v: ReducedGrid(
        1, [(1, 2, 1.0)], probing=[2], internal=v, root_upstream_r=0.0)),
    "reduce_grid": (UnknownNode, lambda v: reduce_grid(y_feeder(2), v)),
    "identifiable_junctions": (UnknownNode, lambda v: identifiable_junctions(
        y_feeder(2), v)),
    "metered_level_sets": (UnknownNode, lambda v: metered_level_sets(
        y_feeder(2), 2, v)),
    "compare_graphs": (LabelMismatch, lambda v: compare_graphs(
        y_feeder(2), y_feeder(2), v)),
}


@pytest.mark.parametrize("value, message", NOT_BUS_LISTS,
                         ids=[repr(v) for v, _ in NOT_BUS_LISTS])
@pytest.mark.parametrize("site", sorted(BUS_LIST_SITES))
def test_bus_list_rule_rejects(site, value, message):
    error, build = BUS_LIST_SITES[site]
    if site == "ExperimentConfig probing" and isinstance(value, str):
        # A config's probing string names a policy, not a bus list.
        message = "^unknown probing policy '12'$"
    with pytest.raises(error, match=message):
        build(value)


@pytest.mark.parametrize("value, message", NOT_BUS_LISTS,
                         ids=[repr(v) for v, _ in NOT_BUS_LISTS])
def test_bus_list_rule_in_record_headers_exits_1(tmp_path, capsys, value,
                                                 message):
    code, err = recover_with_header(tmp_path, capsys, "buses",
                                    lambda v: value)
    assert code == 1
    assert err["error"] == "FeederFormatError"
    assert re.search(message, err["message"])


def test_bus_lists_accept_any_iterable_and_store_ints():
    plan = ProbingPlan.blocks(np.array([1, 2]), [0.1, 0.1], 1)
    assert plan.buses == (1, 2) and all(type(b) is int for b in plan.buses)
    grid = reduce_grid(y_feeder(2), (b for b in [2.0, 3]))
    assert grid.probing == {2, 3}
    assert identifiable_junctions(y_feeder(2), [2, 3.0]) == {1}


@pytest.mark.parametrize("probing, message", [
    ([2, 9], "bus 9 is not in the feeder"),
    ([0, 2, 3], "the substation cannot be a probing bus"),
    ([2.5, 3], "probing buses: bus 2.5 is not an integer")])
def test_junctions_take_only_the_feeder_s_probing_buses(probing, message):
    # As reduce_grid does: a list of the feeder's non-substation buses.
    with pytest.raises(UnknownNode, match=message):
        identifiable_junctions(y_feeder(2), probing)


def test_repeated_bus_in_reduce_exits_1_without_traceback(capsys):
    feeder = os.path.join(os.path.dirname(__file__), "..", "src",
                          "gridprobe", "data", "ieee37.csv")
    assert cli.main(["reduce", "--probing", "2,2", feeder]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"] == "UnknownNode"
    assert "distinct" in err["message"]
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("call", [
    lambda: ProbingPlan.blocks([2], {1: 0.1}, 1),
    lambda: ProbingPlan.blocks([2], [0.1], {1: 3}),
])
def test_plan_mapping_without_a_bus_names_it(call):
    with pytest.raises(ConfigError, match="probing bus 2 "):
        call()


# A bool hashes and compares equal to bus 0 or bus 1, which both trees hold.
TREE_LOOKUPS = {
    "depth": lambda g, m: g.depth(m),
    "parent": lambda g, m: g.parent(m),
    "children": lambda g, m: g.children(m),
    "ancestors": lambda g, m: g.ancestors(m),
    "ancestor_at": lambda g, m: g.ancestor_at(m, g.ROOT_DEPTH),
    "descendants": lambda g, m: g.descendants(m),
    "path_r": lambda g, m: g.path_r(m),
    "path_x": lambda g, m: g.path_x(m),
    "level_sets": lambda g, m: level_sets(g, m),
    "lca": lambda g, m: g.lca(m, 2),
    "lca_right": lambda g, m: g.lca(2, m),
    "line_r": lambda g, m: g.line_r(m, int(m) + 1),
    "line_x": lambda g, m: g.line_x(m, int(m) + 1),
}


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("lookup", TREE_LOOKUPS.values(), ids=TREE_LOOKUPS)
def test_tree_lookups_reject_bools(lookup, flag):
    grid = ReducedGrid(0, [(0, 1, 1.0), (1, 2, 1.0)], probing=[1, 2],
                       internal=[], root_upstream_r=0.0)
    for g in (y_feeder(2), grid):
        lookup(g, int(flag))
        with pytest.raises(UnknownNode):
            lookup(g, flag)


@pytest.mark.parametrize("call", [
    lambda g: g.lca(9, 2),
    lambda g: g.lca(2, 9),
    lambda g: g.line_r(9, 2),
    lambda g: g.line_r(2, 1),
    lambda g: g.line_r(0, True),
    lambda g: g.line_x(1, np.int64(9)),
    lambda g: g.line_x(0, np.True_),
    # A list is no bus, and a depth is an integer.
    lambda g: g.lca([1], 2),
    lambda g: g.line_r([1], 2),
    lambda g: level_sets(g, [1]),
    lambda g: g.ancestor_at(1, "x"),
])
def test_line_and_lca_lookups_raise_unknown_node(call):
    g = y_feeder(2)
    assert g.line_r(np.int64(1), np.int64(2)) == 2.0
    with pytest.raises(UnknownNode):
        call(g)


# -- resistance estimates -----------------------------------------------------


# Bus 1 is a row and column of both matrices; a bool compares equal to it.
MATRIX_LOOKUPS = {
    "entry": lambda r, e, n: r.entry(n, 2),
    "entry_right": lambda r, e, n: r.entry(2, n),
    "column": lambda r, e, n: r.column(n),
    "submatrix rows": lambda r, e, n: r.submatrix([n], [2]),
    "submatrix cols": lambda r, e, n: r.submatrix([2], [n]),
    "estimate column": lambda r, e, n: e.column(n),
}


@pytest.mark.parametrize("bus", [9, np.int64(9), "a", True, np.True_],
                         ids=repr)
@pytest.mark.parametrize("lookup", MATRIX_LOOKUPS.values(), ids=MATRIX_LOOKUPS)
def test_matrix_lookups_raise_unknown_node(lookup, bus):
    rmat = resistance_matrix(y_feeder(2))
    est = ResistanceEstimate((1, 2), (1, 2), np.eye(2))
    lookup(rmat, est, 1)
    with pytest.raises(UnknownNode, match="not in the matrix"):
        lookup(rmat, est, bus)


@pytest.mark.parametrize("rows, cols, values", [
    # one row short: `column` would zip the two rows with one value
    ((1, 2), (1,), np.array([[0.1]])),
    ((1,), (1,), np.array([0.1])),
    ((1, 2), (1,), np.zeros((2, 2))),
    ((1, 1), (1,), np.zeros((2, 1))),
    ((1, 2), (2, 2), np.zeros((2, 2))),
    ((1,), (1,), [["a"]]),
    ((1,), (1,), [[0.1, 0.2], [0.3]]),
])
def test_estimate_rejects_bad_shapes_buses_and_values(rows, cols, values):
    with pytest.raises(ConfigError):
        ResistanceEstimate(rows, cols, values)


def test_estimate_converts_values_and_identifies_from_lists():
    g = y_feeder(2)
    est = estimate_resistances(simulate_probing(
        g, ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2), NoiseModel()))
    listed = ResistanceEstimate(est.row_nodes, est.col_nodes,
                                est.values.tolist())
    assert listed.values.dtype == float and not listed.values.flags.writeable
    assert np.array_equal(listed.values, est.values)
    assert identify(listed, None, "complete").graph.edges == \
        identify(est, None, "complete").graph.edges


# -- probing plans ------------------------------------------------------------


def test_general_plan_constructor_converts_the_matrix():
    plan = ProbingPlan(buses=(1,), matrix=[[1.0, 2]])
    assert isinstance(plan.matrix, np.ndarray) and plan.matrix.dtype == float
    assert not plan.matrix.flags.writeable
    assert plan.total_periods == 2
    assert np.array_equal(ProbingPlan.general([1], [[1.0, 2]]).matrix,
                          plan.matrix)
    for matrix in ([["a"]], [[1.0], [2.0, 3.0]], [[None]]):
        with pytest.raises(ConfigError):
            ProbingPlan(buses=(1,), matrix=matrix)


# -- real-number inputs -------------------------------------------------------

# name -> (typed error, build with v where a real number goes)
REAL_SITES = {
    "ExperimentConfig loads_kw": (ConfigError, lambda v: ExperimentConfig(
        **{**CONFIG_ARGS, "loads_kw": {2: v, 3: 5.0}})),
    "ExperimentConfig r_min": (ConfigError, lambda v: ExperimentConfig(
        **{**CONFIG_ARGS, "r_min": v})),
    "ExperimentConfig s_base_kva": (ConfigError, lambda v: ExperimentConfig(
        **{**CONFIG_ARGS, "s_base_kva": v})),
    "ExperimentConfig delta_multiple": (ConfigError, lambda v:
                                        ExperimentConfig(**{
                                            **CONFIG_ARGS,
                                            "delta_multiple": v})),
    "ExperimentConfig delta_default_kw": (ConfigError, lambda v:
                                          ExperimentConfig(**{
                                              **CONFIG_ARGS,
                                              "delta_default_kw": v})),
    "ExperimentConfig delta_value_pu": (ConfigError, lambda v:
                                        ExperimentConfig(**{
                                            **CONFIG_ARGS,
                                            "delta_policy": "fixed",
                                            "delta_value_pu": v})),
    "group_column_exact entry": (InconsistentLevelSets, lambda v:
                                 group_column_exact({1: v, 2: 0.1}, 1)),
    "group_column_noisy entry": (InconsistentLevelSets, lambda v:
                                 group_column_noisy({1: 0.1, 2: v}, 2, 0.1)),
    "ProbingPlan delta": (ConfigError, lambda v: ProbingPlan(
        buses=(1,), delta=(v,), periods=(1,))),
    "ProbingPlan.blocks delta": (ConfigError, lambda v: ProbingPlan.blocks(
        [1], [v], 1)),
    "ProbingPlan.blocks delta map": (ConfigError, lambda v: ProbingPlan
                                     .blocks([1], {1: v}, 1)),
    "design_plan delta": (ConfigError, lambda v: design_plan(
        0.5, 1e-3, {1: v})),
    "build_feeder r": (NonpositiveImpedance, lambda v: build_feeder(
        [(0, 1, v, None)])),
    "build_feeder x": (NonpositiveImpedance, lambda v: build_feeder(
        [(0, 1, 1.0, v)])),
    "NoiseModel sigma_p": (ConfigError, lambda v: NoiseModel(sigma_p=v)),
    "NoiseModel sigma_q": (ConfigError, lambda v: NoiseModel(sigma_q=v)),
    "NoiseModel sigma_w": (ConfigError, lambda v: NoiseModel(sigma_w=v)),
    "group_column_noisy r_min": (NonpositiveRmin, lambda v:
                                 group_column_noisy({1: 5.0}, 1, v)),
    # One 5.0 line: any r_min up to 10 recovers it.
    "identify r_min": (NonpositiveRmin, lambda v: identify(
        ResistanceEstimate((1,), (1,), [[5.0]]), v, "complete")),
    "assemble_families value_tol": (ConfigError, lambda v: assemble_families(
        [group_column_exact({1: 0.2}, 1)], value_tol=v)),
    "design_plan r_min": (NonpositiveRmin, lambda v: design_plan(
        v, 1e-3, {1: 0.1})),
    "design_plan sigma": (ConfigError, lambda v: design_plan(
        0.5, v, {1: 0.1})),
    "ReducedGrid root_upstream_r": (ConfigError, lambda v: ReducedGrid(
        1, [(1, 2, 1.0)], probing=[2], internal=[], root_upstream_r=v)),
}


class Opaque:
    """A plain object whose repr, unlike object()'s, holds no memory
    address, so the test ids it appears in are the same in every run."""

    def __repr__(self):
        return "<object object at 0x...>"


NOT_NUMBERS = ["abc", [0.1], {1: 0.1}, Opaque(), 10**400, True, np.True_]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_non_number_inputs_raise_typed_errors(site, value):
    error, build = REAL_SITES[site]
    with pytest.raises(error, match="not a number"):
        build(value)


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_sites_accept_integers_as_floats(site):
    REAL_SITES[site][1](2)


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_sites_accept_numeric_strings(site):
    REAL_SITES[site][1]("2")


@pytest.mark.parametrize("call, message", [
    (lambda: group_column_noisy({1: 0.2}, 1, -1), "r_min must be positive "
                                                  "and finite, got -1"),
    (lambda: design_plan("0", 0.0, {1: 0.1}), "r_min must be positive and "
                                               "finite, got 0"),
    (lambda: NoiseModel(sigma_w=-1e-3), "sigma_w must be finite and "
                                        "nonnegative, got -0.001"),
    (lambda: assemble_families([group_column_exact({1: 0.2}, 1)],
                               value_tol=INF),
     "value_tol must be finite and nonnegative, got inf"),
    (lambda: build_feeder([(0, 1, 0.0)]), r"line \(0,1\) r must be "
                                         r"positive and finite, got 0.0"),
    (lambda: ExperimentConfig(**{**CONFIG_ARGS, "s_base_kva": "-1"}),
     "s_base_kva must be positive and finite, got -1"),
])
def test_out_of_range_reals_name_the_range_and_the_value(call, message):
    with pytest.raises(GridProbeError, match=f"^{message}$"):
        call()


def test_upstream_resistance_is_finite_but_may_be_negative():
    # A recovered upstream is a noisy mean, so only its finiteness is
    # checked.
    grid = ReducedGrid(1, [(1, 2, 1.0)], probing=[2], internal=[],
                       root_upstream_r=np.float64(-0.25))
    assert type(grid.root_upstream_r) is float
    assert grid.root_upstream_r == -0.25
    for value in (NAN, INF, -INF):
        with pytest.raises(ConfigError, match="root_upstream_r must be "
                                              "finite"):
            ReducedGrid(1, [(1, 2, 1.0)], probing=[2], internal=[],
                        root_upstream_r=value)


def test_array_constructors_convert_lists_to_read_only_floats():
    rmat = ResistanceMatrix((1, 2), [[1, 1], [1, 3]])
    record = ProbingRecord("complete", (1,), [[2]], PLAN)
    for values in (rmat.values, record.values):
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert not values.flags.writeable
    assert rmat.entry(2, 2) == 3.0 and record.values[0, 0] == 2.0
    # A float array is kept as it is.
    values = np.eye(2)
    assert ResistanceMatrix((1, 2), values).values is values


def test_yaml_exponents_without_a_dot_read_as_numbers(tmp_path, capsys):
    # PyYAML reads 1e-3 and 1e-4 as strings; the real rule reads them as
    # the numbers they spell.
    raw = with_key(("r_min",), 0.001)
    raw["noise"]["sigma_w"] = 0.0001
    text = yaml.safe_dump(raw)
    spelled = (text.replace("r_min: 0.001", "r_min: 1e-3")
               .replace("sigma_w: 0.0001", "sigma_w: 1e-4"))
    assert spelled.count("e-") == text.count("e-") + 2
    assert yaml.safe_load(spelled)["r_min"] == "1e-3"
    write_y_feeder(tmp_path)
    outputs = []
    for name, body in (("plain", text), ("spelled", spelled)):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(body)
        out = tmp_path / name
        assert cli.main(["montecarlo", "--config", str(cfg),
                         "--out", str(out)]) == 0
        outputs.append((out / "results.json").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# -- named settings -----------------------------------------------------------
#
# Every observation mode, delta policy and probing policy goes through one
# rule: a string equal to one of the names the setting takes; anything else
# raises `unknown <what> ..` with the entry point's typed error.

NOT_CHOICES = ["sideways", None, ["complete"]]
MODES = ("complete", "partial")
Y3_ESTIMATE = ResistanceEstimate((1, 2, 3), (1, 2, 3), [[1.0, 1.0, 1.0],
                                                        [1.0, 3.0, 1.0],
                                                        [1.0, 1.0, 4.0]])

# name -> (typed error, what the message calls it, the names it takes,
#          build with v as the name)
CHOICE_SITES = {
    "ExperimentConfig mode": (ConfigError, "mode", MODES,
                              lambda v: ExperimentConfig(
                                  **{**CONFIG_ARGS, "mode": v})),
    "ExperimentConfig delta policy": (
        ConfigError, "delta policy", ("rated", "fixed"),
        lambda v: ExperimentConfig(**{**CONFIG_ARGS, "delta_policy": v,
                                      "delta_value_pu": 0.1})),
    "ExperimentConfig probing policy": (
        ConfigError, "probing policy", ("all-buses", "all-leaves"),
        lambda v: ExperimentConfig(**{**CONFIG_ARGS, "probing": v})),
    "ProbingRecord": (ConfigError, "mode", MODES, lambda v: ProbingRecord(
        v, (1,), [[1.0]], PLAN)),
    "simulate_probing": (ConfigError, "mode", MODES,
                         lambda v: simulate_probing(y_feeder(2), PLAN,
                                                    NoiseModel(), mode=v)),
    "sample_estimate": (ConfigError, "mode", MODES,
                        lambda v: sample_estimate(y_feeder(2), PLAN,
                                                  NoiseModel(), mode=v)),
    "group_estimate": (InconsistentLevelSets, "mode", MODES,
                       lambda v: group_estimate(Y3_ESTIMATE, None, v)),
    "group_column_exact": (InconsistentLevelSets, "mode", MODES,
                           lambda v: group_column_exact({1: 1.0}, 1, v)),
    "group_column_noisy": (InconsistentLevelSets, "mode", MODES,
                           lambda v: group_column_noisy({1: 1.0}, 1, 0.5, v)),
    "identify": (InconsistentLevelSets, "mode", MODES,
                 lambda v: identify(Y3_ESTIMATE, 0.5, v)),
    "RecoveryReport": (ConfigError, "mode", MODES,
                       lambda v: RecoveryReport(v, y_feeder(2), {1, 2, 3})),
    "ExperimentResult": (ConfigError, "mode", MODES,
                         lambda v: ExperimentResult(v, (), {})),
}


@pytest.mark.parametrize("value", NOT_CHOICES, ids=repr)
@pytest.mark.parametrize("site", sorted(CHOICE_SITES))
def test_choice_rule_rejects(site, value):
    error, what, _, build = CHOICE_SITES[site]
    message = f"unknown {what} {value!r}"
    if site == "ExperimentConfig probing policy" and not isinstance(value,
                                                                    str):
        # A config's probing that is not a string is a bus list.
        message = ("probing must be a list of bus IDs, got None"
                   if value is None else
                   "probing: bus 'complete' is not an integer")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(value)


@pytest.mark.parametrize("site", sorted(CHOICE_SITES))
def test_choice_rule_accepts_each_name(site):
    _, _, names, build = CHOICE_SITES[site]
    for name in names:
        build(name)


def test_choice_rule_stores_plain_strings():
    cfg = ExperimentConfig(**{**CONFIG_ARGS, "mode": np.str_("partial"),
                              "probing": np.str_("all-leaves"),
                              "delta_policy": np.str_("rated")})
    for stored in (cfg.mode, cfg.probing, cfg.delta_policy):
        assert type(stored) is str


def test_config_mode_check_keeps_its_place():
    # The mode is still checked before the probing list and the scales.
    with pytest.raises(ConfigError, match="^unknown mode 'x'$"):
        ExperimentConfig(**{**CONFIG_ARGS, "mode": "x", "probing": 5,
                            "r_min": -1.0})
    # ..and the probing policy after them.
    with pytest.raises(ConfigError, match="^r_min must be positive"):
        ExperimentConfig(**{**CONFIG_ARGS, "probing": "x", "r_min": -1.0})


# -- paths --------------------------------------------------------------------
#
# Every file the package reads or writes is named by a str or an
# os.PathLike. An integer is not a path: `open` would read it as a file
# descriptor and close the caller's descriptor afterwards.

def y_report():
    plan = ProbingPlan.blocks([1, 2, 3], [0.1] * 3, 2)
    record = simulate_probing(y_feeder(2), plan, NoiseModel())
    return record, identify(estimate_resistances(record), None, "complete")


READERS = {"load_feeder": load_feeder, "load_record": load_record,
           "load_config": load_config}
# name -> (writer, build what it writes)
WRITERS = {
    "save_feeder": (save_feeder, lambda: y_feeder(2)),
    "save_record": (save_record, lambda: y_report()[0]),
    "save_report": (save_report, lambda: y_report()[1]),
    "write_results": (write_results,
                      lambda: ExperimentResult("complete", (), {})),
}


def write_or_read(name, path):
    if name in READERS:
        return READERS[name](path)
    write, build = WRITERS[name]
    return write(build(), path)


@pytest.mark.parametrize("name", sorted(READERS) + sorted(WRITERS))
def test_file_functions_reject_descriptors(name):
    r, w = os.pipe()
    os.set_blocking(r, False)  # a reader that reads fails, not hangs
    try:
        with pytest.raises(ConfigError,
                           match="must be a str or PathLike, got "):
            write_or_read(name, r if name in READERS else w)
        os.fstat(r), os.fstat(w)  # both ends still open
        with pytest.raises(BlockingIOError):  # and nothing written
            os.read(r, 1)
    finally:
        os.close(r)
        os.close(w)


@pytest.mark.parametrize("path", [b"y.csv", 1.5, None])
@pytest.mark.parametrize("name", sorted(READERS) + sorted(WRITERS))
def test_file_functions_reject_other_paths(name, path):
    with pytest.raises(ConfigError, match="must be a str or PathLike, got "):
        write_or_read(name, path)


def test_file_functions_take_path_objects(tmp_path):
    record, report = y_report()
    save_feeder(y_feeder(2), tmp_path / "y.csv")
    assert load_feeder(tmp_path / "y.csv") == y_feeder(2)
    save_record(record, tmp_path / "y.rec")
    assert load_record(tmp_path / "y.rec").plan == record.plan
    save_report(report, tmp_path / "report")
    assert load_feeder(tmp_path / "report" / "recovered.csv").nodes == {
        0, 1, 2, 3}
    write_results(ExperimentResult("complete", (), {}), tmp_path / "sweep")
    assert json.loads((tmp_path / "sweep" / "results.json").read_text()) == {
        "provenance": {}, "results": []}
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(BASE_CFG))
    assert load_config(tmp_path / "cfg.yaml") == BASE_CFG


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_check_their_object_before_touching_files(tmp_path, name):
    write, _ = WRITERS[name]
    target = tmp_path / "out"
    file_writer = name in ("save_feeder", "save_record")
    if file_writer:
        target.write_text("keep\n")
    with pytest.raises(ConfigError, match="must be an? "
                                          "(FeederGraph|ProbingRecord|"
                                          "RecoveryReport|ExperimentResult), "
                                          "got 5$"):
        write(5, target)
    if file_writer:
        assert target.read_text() == "keep\n"
    else:  # the output directory is not created
        assert not target.exists()


@pytest.mark.parametrize("comment", [5, b"note", ["note"]])
def test_save_feeder_checks_its_comment_before_touching_files(tmp_path,
                                                              comment):
    target = tmp_path / "out"
    target.write_text("keep\n")
    with pytest.raises(ConfigError, match="^comment must be a str, got "):
        save_feeder(y_feeder(2), target, comment=comment)
    assert target.read_text() == "keep\n"


def test_design_plan_names_a_bus_key_that_is_not_an_integer():
    with pytest.raises(ConfigError, match="^probing buses: bus 'a' is not "
                                          "an integer$"):
        design_plan(0.1, 0.01, {1: 0.1, "a": 0.2})


def test_run_experiment_checks_its_config():
    with pytest.raises(ConfigError,
                       match="^config must be an ExperimentConfig, got 5$"):
        run_experiment(5)


# -- reports ------------------------------------------------------------------
#
# A recovery report and a sweep result check their fields when made, so
# the writers never put a mode, a graph or a row they cannot read on disk.

ROW = {"periods": 3, "error_pct": 0.0, "mpe_pct": 1.0, "mpe_se": None,
       "trials": 2, "seconds": 0.1}


@pytest.mark.parametrize("fields, message", [
    (dict(graph=5), "graph must be a FeederGraph, got 5"),
    (dict(probing=[1, 1]), "probing must be distinct, got [1, 1]"),
    (dict(probing="123"), "probing must be a list of bus IDs, got '123'"),
    (dict(line_support=5), "line_support must be a Mapping, got 5"),
])
def test_recovery_report_checks_its_fields(fields, message):
    args = {"mode": "complete", "graph": y_feeder(2), "probing": {1, 2, 3},
            **fields}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RecoveryReport(**args)


def test_recovery_report_stores_a_frozen_probing_set():
    report = RecoveryReport("complete", y_feeder(2), [3, 1, 2])
    assert report.probing == frozenset({1, 2, 3})
    assert type(report.probing) is frozenset


@pytest.mark.parametrize("fields, message", [
    (dict(rows=5), "rows must be a list or tuple, got 5"),
    (dict(rows=(5,)), "row must be a Mapping, got 5"),
    (dict(provenance=[]), "provenance must be a Mapping, got []"),
])
def test_experiment_result_checks_its_fields(fields, message):
    args = {"mode": "complete", "rows": (ROW,), "provenance": {}, **fields}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentResult(**args)


def test_write_results_checks_every_row_before_writing(tmp_path):
    short = {k: v for k, v in ROW.items() if k != "mpe_pct"}
    result = ExperimentResult("complete", [ROW, short], {})
    assert result.rows == (ROW, short)
    with pytest.raises(ConfigError,
                       match=r"^result row lacks \['mpe_pct'\]$"):
        write_results(result, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("fields, message", [
    (dict(seconds="x"), "row seconds 'x' is not a number"),
    (dict(seconds=-0.5), "row seconds must be finite and nonnegative, "
                         "got -0.5"),
    (dict(seconds=NAN), "row seconds must be finite and nonnegative, "
                        "got nan"),
    (dict(periods=2.5), "row periods 2.5 is not an integer"),
    (dict(trials="2"), "row trials '2' is not an integer"),
    (dict(error_pct=INF), "row error_pct must be finite, got inf"),
    (dict(error_pct=None), "row error_pct None is not a number"),
    (dict(mpe_pct=NAN), "row mpe_pct must be finite, got nan"),
    (dict(mpe_se=[1.0]), "row mpe_se [1.0] is not a number"),
])
def test_write_results_leaves_both_files_on_a_bad_row(tmp_path, fields,
                                                      message):
    out = tmp_path / "sweep"
    write_results(ExperimentResult("complete", (ROW,), {}), out)
    before = {name: (out / name).read_bytes()
              for name in ("results.csv", "results.json")}
    result = ExperimentResult("complete", (ROW, {**ROW, **fields}), {})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        write_results(result, out)
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("provenance", [{"seed": np.int64(1)},
                                        {"seed": {1, 2}}, {1: 0, "a": 0}])
def test_write_results_leaves_both_files_on_a_provenance_not_json(
        tmp_path, provenance):
    out = tmp_path / "sweep"
    write_results(ExperimentResult("complete", (ROW,), {"seed": 1}), out)
    before = {name: (out / name).read_bytes()
              for name in ("results.csv", "results.json")}
    with pytest.raises(ConfigError, match="^provenance cannot be written "
                                          "as JSON: "):
        write_results(ExperimentResult("complete", (ROW,), provenance), out)
    assert {name: (out / name).read_bytes() for name in before} == before


def test_write_results_writes_numpy_scalars_as_python_values(tmp_path):
    row = {"periods": 3, "error_pct": 50.0, "mpe_pct": 1.25, "mpe_se": 0.5,
           "trials": 2, "seconds": 0.1}
    numpy_row = {"periods": np.int64(3), "error_pct": np.float64(50.0),
                 "mpe_pct": np.float64(1.25), "mpe_se": np.float32(0.5),
                 "trials": np.int32(2), "seconds": np.float64(0.1)}
    for name, rows in (("python", (row, ROW)), ("numpy", (numpy_row, ROW))):
        write_results(ExperimentResult("complete", rows, {}), tmp_path / name)
    for name in ("results.csv", "results.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == \
            (tmp_path / "python" / name).read_bytes()


# -- first arguments ----------------------------------------------------------
#
# Every public function and constructor raises a GridProbeError, never a
# raw Python error, when its first argument is of another type: 5, and "x"
# where a string is not a valid first argument.

# name -> call with v as the first argument and valid other arguments
FIRST_ARGUMENTS = {
    "ColumnGrouping": lambda v: ColumnGrouping(
        v, 0, (frozenset({0, 1}),), (0.0,), False),
    "ExperimentConfig": lambda v: ExperimentConfig(
        **{**CONFIG_ARGS, "feeder_path": v}),
    "ExperimentResult": lambda v: ExperimentResult(v, (ROW,), {}),
    "FeederGraph": FeederGraph,
    "GraphComparison": lambda v: GraphComparison(v, None, None, None),
    "LevelGroup": lambda v: LevelGroup(v, frozenset({1}), 0.0),
    "LevelSetFamily": lambda v: LevelSetFamily(
        v, 0, (frozenset({0, 1}),), (0.0,), False),
    "NoiseModel": NoiseModel,
    "ProbingPlan": lambda v: ProbingPlan(v, (0.1,), (1,)),
    "ProbingRecord": lambda v: ProbingRecord(v, (1,), [[1.0]], PLAN),
    "RecoveryReport": lambda v: RecoveryReport(v, y_feeder(2), {1, 2, 3}),
    "ReducedGrid": lambda v: ReducedGrid(v, [(v, 2, 1.0)], probing=[2],
                                         internal=[v], root_upstream_r=0.0),
    "ResistanceEstimate": lambda v: ResistanceEstimate(v, (1,), [[1.0]]),
    "ResistanceMatrix": lambda v: ResistanceMatrix(v, [[1.0]]),
    "assemble_families": assemble_families,
    "build_feeder": build_feeder,
    "compare_graphs": lambda v: compare_graphs(v, y_feeder(2), [1, 2, 3]),
    "design_plan": lambda v: design_plan(v, 1e-3, {1: 0.1}),
    "effective_resistance": lambda v: effective_resistance(v, 1, 2),
    "estimate_resistances": estimate_resistances,
    "group_column_exact": lambda v: group_column_exact(v, 1),
    "group_column_noisy": lambda v: group_column_noisy(v, 1, 0.1),
    "group_estimate": lambda v: group_estimate(v, 0.1, "complete"),
    "grouping_diagnostics": grouping_diagnostics,
    "identifiable_junctions": lambda v: identifiable_junctions(
        v, frozenset({2, 3})),
    "identify": lambda v: identify(v, 0.1, "complete"),
    "level_sets": lambda v: level_sets(v, 1),
    "load_config": load_config,
    "load_feeder": load_feeder,
    "load_record": load_record,
    "metered_level_sets": lambda v: metered_level_sets(v, 2, [2, 3]),
    "noise_bound": lambda v: noise_bound(v, 1.0, 1.0),
    "reactance_matrix": reactance_matrix,
    "recover_full": recover_full,
    "recover_partial": recover_partial,
    "reduce_grid": lambda v: reduce_grid(v, [2, 3]),
    "resistance_matrix": resistance_matrix,
    "run_experiment": run_experiment,
    "sample_estimate": lambda v: sample_estimate(v, PLAN, NoiseModel()),
    "save_feeder": lambda v: save_feeder(v, "y.csv"),
    "save_record": lambda v: save_record(v, "y.rec"),
    "save_report": lambda v: save_report(v, "report"),
    "simulate_probing": lambda v: simulate_probing(v, PLAN, NoiseModel()),
    "write_results": lambda v: write_results(v, "sweep"),
}
# First arguments that may be an integer (a bus, a depth or a real) or a
# string (a path).
TAKES_5 = {"ColumnGrouping", "LevelGroup", "LevelSetFamily", "NoiseModel",
           "ReducedGrid", "design_plan"}
TAKES_X = {"ExperimentConfig", "load_config", "load_feeder", "load_record"}


def test_first_argument_table_covers_every_public_callable():
    public = {name for name in gridprobe.__all__
              if callable(getattr(gridprobe, name))
              and not (inspect.isclass(getattr(gridprobe, name))
                       and issubclass(getattr(gridprobe, name), Exception))}
    assert public == set(FIRST_ARGUMENTS)


def test_first_argument_calls_take_a_valid_first_argument(tmp_path,
                                                          monkeypatch):
    # So each call below fails on its first argument alone.
    monkeypatch.chdir(tmp_path)
    record, report = y_report()
    estimate = estimate_resistances(record)
    grouping = group_column_exact({1: 0.2}, 1)
    save_feeder(y_feeder(2), "y.csv")
    save_record(record, "y.rec")
    (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(BASE_CFG))
    valid = {
        "ExperimentConfig": "y.csv", "ExperimentResult": "complete",
        "FeederGraph": Y_EDGES, "GraphComparison": True,
        "ProbingPlan": (1,), "ProbingRecord": "complete",
        "RecoveryReport": "complete", "ResistanceEstimate": (1,),
        "ResistanceMatrix": (1,), "assemble_families": [grouping],
        "build_feeder": Y_EDGES, "estimate_resistances": record,
        "group_column_exact": {1: 0.2}, "group_column_noisy": {1: 0.2},
        "group_estimate": estimate, "grouping_diagnostics": grouping,
        "identify": estimate, "load_config": "cfg.yaml",
        "load_feeder": "y.csv", "load_record": "y.rec",
        "noise_bound": NoiseModel(), "recover_full": {1: grouping},
        "recover_partial": {2: metered_level_sets(y_feeder(2), 2, [2])},
        "run_experiment": ExperimentConfig(**CONFIG_ARGS),
        "save_record": record, "save_report": report,
        "write_results": ExperimentResult("complete", (ROW,), {}),
        **{name: 5 for name in TAKES_5},
    }
    for name, call in FIRST_ARGUMENTS.items():
        call(valid.get(name, y_feeder(2)))


@pytest.mark.parametrize("name, value", [
    (name, value) for name in sorted(FIRST_ARGUMENTS) for value in (5, "x")
    if name not in (TAKES_5 if value == 5 else TAKES_X)])
def test_first_argument_of_another_type_raises_typed_error(
        tmp_path, monkeypatch, name, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(GridProbeError):
        FIRST_ARGUMENTS[name](value)
    assert not os.listdir(tmp_path)
