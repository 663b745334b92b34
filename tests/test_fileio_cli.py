"""File format round trips and the command line surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from gridprobe import (ConfigError, FeederFormatError, NoiseModel,
                       NonpositiveImpedance, ProbingPlan, build_feeder, cli,
                       fileio, recover_full, recover_partial, recovery,
                       reduce_grid, simulate_probing)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gridprobe",
                    "data")
IEEE37 = os.path.join(DATA, "ieee37.csv")

Y_EDGES = [(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)]


def write_y_feeder(tmp_path, x_on_line_2=True):
    path = tmp_path / "y.csv"
    x2 = "0.7" if x_on_line_2 else ""
    path.write_text("from,to,r_pu,x_pu\n"
                    "0,1,1.0,1.0\n"
                    f"1,2,2.0,{x2}\n"
                    "1,3,3.0,1.0\n")
    return str(path)


# -- feeder files -------------------------------------------------------------


def test_feeder_round_trip(tmp_path):
    g = build_feeder(Y_EDGES)
    out = tmp_path / "y.csv"
    fileio.save_feeder(g, out, comment="three buses\nplus substation")
    text = out.read_text()
    assert text.startswith("# three buses\n# plus substation\n")
    g2 = fileio.load_feeder(out)
    assert g2.edges == g.edges


def test_feeder_round_trip_missing_x(tmp_path):
    g = fileio.load_feeder(write_y_feeder(tmp_path, x_on_line_2=False))
    assert g.line_x(1, 2) is None
    out = tmp_path / "copy.csv"
    fileio.save_feeder(g, out)
    assert fileio.load_feeder(out).edges == g.edges


def test_feeder_reports_bad_header(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("a,b,c\n0,1,1.0\n")
    with pytest.raises(FeederFormatError, match="line 1"):
        fileio.load_feeder(p)


def test_feeder_reports_bad_field_count(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("from,to,r_pu,x_pu\n0,1\n")
    with pytest.raises(FeederFormatError, match="line 2"):
        fileio.load_feeder(p)


def test_feeder_reports_bad_number(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("from,to,r_pu,x_pu\n# fine\n0,1,zap,\n")
    with pytest.raises(FeederFormatError, match="line 3"):
        fileio.load_feeder(p)


@pytest.mark.parametrize("line, message", [
    # A field that fails to parse is named without its spaces.
    ("0, 1x,0.1", "line 2: invalid literal for int() with base 10: '1x'"),
    ("0,1, 0.1 z ,", "line 2: could not convert string to float: '0.1 z'"),
    ("0,1,0.1,  x  ", "line 2: could not convert string to float: 'x'"),
    # The first bad field of a line is named.
    (" 1x , 2y ,zap", "line 2: invalid literal for int() with base 10: '1x'"),
])
def test_feeder_names_the_bad_field_stripped(tmp_path, line, message):
    p = tmp_path / "f.csv"
    p.write_text(f"from,to,r_pu,x_pu\n{line}\n")
    with pytest.raises(FeederFormatError) as info:
        fileio.load_feeder(p)
    assert str(info.value) == f"{p}: {message}"


def test_feeder_fields_may_carry_spaces(tmp_path):
    p = tmp_path / "f.csv"
    # str.strip drops \x1c-\x1f too, which int and float refuse.
    p.write_text("from, to, r_pu, x_pu\n 0 , 1 , 1.0 , 1.0 \n1,2,2.0,  \n"
                 "1 ,3\t,\x1f3.0\x1c\n")
    g = fileio.load_feeder(p)
    assert g.edges == ((0, 1, 1.0, 1.0), (1, 2, 2.0, None),
                       (1, 3, 3.0, None))


def test_feeder_reports_the_reader_error_before_the_tree_error(tmp_path):
    """Lines are parsed before the tree is built: a bad number on a later
    line wins over a repeated child on an earlier one, and a repeated
    child wins over a nonpositive impedance only where it comes later."""
    p = tmp_path / "f.csv"
    p.write_text("from,to,r_pu,x_pu\n0,1,1.0,\n0,1,1.0,\n1,2,zap,\n")
    with pytest.raises(FeederFormatError, match="line 4"):
        fileio.load_feeder(p)
    p.write_text("from,to,r_pu,x_pu\n0,1,1.0,\n0,1,1.0,\n1,2,0.0,\n")
    with pytest.raises(NonpositiveImpedance, match=r"line \(1,2\) r"):
        fileio.load_feeder(p)


def test_feeder_requires_header(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("# only a comment\n")
    with pytest.raises(FeederFormatError, match="missing header"):
        fileio.load_feeder(p)


def test_feeder_requires_edges(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("from,to,r_pu,x_pu\n")
    with pytest.raises(FeederFormatError, match="no edges"):
        fileio.load_feeder(p)


def test_reduced_grid_file_names_root_and_upstream(tmp_path):
    g = build_feeder(Y_EDGES)
    rg = reduce_grid(g, {2, 3})
    out = tmp_path / "reduced.csv"
    fileio.save_feeder(rg, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# reduced grid, root 1, upstream resistance 1.0"
    assert lines[1] == "from,to,r_pu,x_pu"
    assert sorted(lines[2:]) == ["1,2,2.0,", "1,3,3.0,"]


# -- probing records ----------------------------------------------------------


def test_block_record_round_trip(tmp_path):
    g = build_feeder(Y_EDGES)
    plan = ProbingPlan.blocks(g.bus_order, {1: 0.1, 2: 0.2, 3: 0.3}, [2, 3, 4])
    noise = NoiseModel(sigma_p=1e-3, sigma_q=1e-3, sigma_w=1e-4, seed=5)
    record = simulate_probing(g, plan, noise)
    path = tmp_path / "rec.json"
    fileio.save_record(record, path)
    back = fileio.load_record(path)
    assert back.mode == record.mode
    assert back.row_nodes == record.row_nodes
    assert back.seed == record.seed
    assert back.plan.buses == plan.buses
    assert back.plan.periods == plan.periods
    assert back.plan.delta == pytest.approx(plan.delta)
    assert np.array_equal(back.values, record.values)


def test_general_record_round_trip(tmp_path):
    g = build_feeder(Y_EDGES)
    # one row per probed bus, one column per period
    mat = np.array([[0.1, 0.0, 0.1, 0.0],
                    [0.0, 0.2, 0.1, 0.0],
                    [0.05, 0.0, 0.1, 0.3]])
    plan = ProbingPlan.general(g.bus_order, mat)
    record = simulate_probing(g, plan, NoiseModel(), mode="partial")
    path = tmp_path / "rec.json"
    fileio.save_record(record, path)
    back = fileio.load_record(path)
    assert back.mode == "partial"
    assert np.array_equal(back.plan.matrix, mat)
    assert np.array_equal(back.values, record.values)


def test_load_record_rejects_non_json(tmp_path):
    p = tmp_path / "rec.json"
    p.write_text("not json\n")
    with pytest.raises(FeederFormatError, match="line 1"):
        fileio.load_record(p)


def test_load_record_rejects_other_kinds(tmp_path):
    p = tmp_path / "rec.json"
    p.write_text('{"kind": "shopping-list"}\n')
    with pytest.raises(FeederFormatError, match="not a probing record"):
        fileio.load_record(p)


def test_load_record_rejects_bad_rows(tmp_path):
    p = tmp_path / "rec.json"
    p.write_text('{"kind": "probing-record", "mode": "complete", '
                 '"row_nodes": [1], "buses": [1], "delta": [0.1], '
                 '"periods": [1], "matrix": null, "seed": null}\n'
                 '0.1,oops\n')
    with pytest.raises(FeederFormatError, match="line 2"):
        fileio.load_record(p)


def test_ragged_record_is_a_format_error(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG)
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    lines = rec.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]
    rec.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with pytest.raises(FeederFormatError, match="line 4"):
        fileio.load_record(rec)
    assert cli.main(["recover", str(rec)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FeederFormatError"
    assert "line 4" in err["message"]


# -- recovery reports ---------------------------------------------------------


def full_families(g):
    from gridprobe import assemble_families, group_column_exact, \
        resistance_matrix
    rmat = resistance_matrix(g)
    return assemble_families(
        [group_column_exact(rmat.column(m), m) for m in sorted(g.leaves)])


def test_save_full_report(tmp_path):
    g = build_feeder(Y_EDGES)
    report = recover_full(full_families(g))
    fileio.save_report(report, tmp_path / "out")
    g2 = fileio.load_feeder(tmp_path / "out" / "recovered.csv")
    assert [(u, v) for u, v, _, _ in g2.edges] == [(0, 1), (1, 2), (1, 3)]
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["mode"] == "complete"
    assert meta["probing"] == [2, 3]
    assert meta["line_support"] == {"0-1": 2, "1-2": 1, "1-3": 1}


def test_save_partial_report(tmp_path):
    from gridprobe import (assemble_families, group_column_exact,
                           resistance_matrix)
    g = build_feeder(Y_EDGES)
    rmat = resistance_matrix(g)
    families = assemble_families([
        group_column_exact({n: rmat.entry(n, m) for n in (2, 3)}, m,
                           mode="partial") for m in (2, 3)])
    report = recover_partial(families)
    fileio.save_report(report, tmp_path / "out")
    meta = json.loads((tmp_path / "out" / "report.json").read_text())
    assert meta["mode"] == "partial"
    assert meta["root"] == 4
    assert meta["internal_nodes"] == [4]
    assert meta["root_upstream_r"] == pytest.approx(1.0)


# -- configs ------------------------------------------------------------------


def test_load_config_reads_yaml(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("mode: complete\nperiods: [1, 2]\n")
    assert fileio.load_config(p) == {"mode": "complete", "periods": [1, 2]}


def test_load_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        fileio.load_config(p)


def test_load_config_rejects_non_mapping(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        fileio.load_config(p)


# -- command line -------------------------------------------------------------


COMPLETE_CFG = """\
feeder: y.csv
mode: complete
probing: all-buses
periods: [3]
r_min: 0.5
trials: 2
seed: 11
delta:
  policy: fixed
  value_pu: 0.1
"""

PARTIAL_CFG = """\
feeder: y.csv
mode: partial
probing: all-leaves
periods: [2]
r_min: 0.5
trials: 2
seed: 3
delta:
  policy: fixed
  value_pu: 0.1
"""


def test_cli_validate(capsys):
    assert cli.main(["validate", IEEE37]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["buses"] == 37
    assert out["edges"] == 36
    assert len(out["leaves"]) == 14
    assert out["r_min"] == pytest.approx(0.0014)
    assert out["has_reactances"] is True


def test_cli_validate_missing_file(capsys):
    assert cli.main(["validate", "/no/such/file.csv"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "OSError"


def test_cli_validate_broken_feeder(tmp_path, capsys):
    p = tmp_path / "f.csv"
    p.write_text("from,to,r_pu,x_pu\n0,1,1.0,\n5,6,1.0,\n")
    assert cli.main(["validate", str(p)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "Disconnected"


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["reduce", IEEE37])
    assert exc.value.code == 2


def test_cli_reduce_stdout(capsys):
    assert cli.main(["reduce", IEEE37, "--all-leaves"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# root 3, upstream resistance ")
    assert len(lines) == 26
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_cli_reduce_to_file(tmp_path, capsys):
    out = tmp_path / "reduced.csv"
    assert cli.main(["reduce", IEEE37, "--all-leaves", "--out",
                     str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# reduced from ")
    assert sum(not l.startswith("#") for l in lines) == 26  # header + 25


def test_cli_reduce_rejects_bad_bus_list(capsys):
    assert cli.main(["reduce", IEEE37, "--probing", "1,zap"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_cli_probe_then_recover(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG)
    rec = tmp_path / "probe.rec"

    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    head = json.loads(capsys.readouterr().out)
    assert head == {"out": str(rec), "mode": "complete", "buses": 3,
                    "periods_per_bus": 3}

    out_dir = tmp_path / "recovered"
    assert cli.main(["recover", str(rec), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    g2 = fileio.load_feeder(out_dir / "recovered.csv")
    assert [(u, v) for u, v, _, _ in g2.edges] == [(0, 1), (1, 2), (1, 3)]
    assert [r for _, _, r, _ in g2.edges] == pytest.approx([1.0, 2.0, 3.0],
                                                           rel=1e-12)


def test_cli_probe_periods_override(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG)
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--periods", "7",
                     "--out", str(rec)]) == 0
    head = json.loads(capsys.readouterr().out)
    assert head["periods_per_bus"] == 7
    assert fileio.load_record(rec).plan.periods == (7, 7, 7)


def test_cli_recover_partial_with_threshold(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(PARTIAL_CFG)
    rec = tmp_path / "probe.rec"
    assert cli.main(["probe", "--config", str(cfg), "--out", str(rec)]) == 0
    capsys.readouterr()

    out_dir = tmp_path / "recovered"
    assert cli.main(["recover", str(rec), "--r-min", "0.5", "--out",
                     str(out_dir)]) == 0
    capsys.readouterr()
    meta = json.loads((out_dir / "report.json").read_text())
    assert meta["mode"] == "partial"
    assert meta["root"] == 4
    assert meta["root_upstream_r"] == pytest.approx(1.0)


def test_cli_recover_prints_edges(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG)
    rec = tmp_path / "probe.rec"
    cli.main(["probe", "--config", str(cfg), "--out", str(rec)])
    capsys.readouterr()
    assert cli.main(["recover", str(rec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split(",")[:2] for l in lines] == [["0", "1"], ["1", "2"],
                                                 ["1", "3"]]


def test_cli_montecarlo(tmp_path, capsys):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG.replace("periods: [3]", "periods: [1, 2]"))
    out_dir = tmp_path / "mc"
    assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                     str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T_m,error_pct,mpe_pct"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.0000,")

    payload = json.loads((out_dir / "results.json").read_text())
    assert [r["periods"] for r in payload["results"]] == [1, 2]
    assert all(r["error_pct"] == 0.0 for r in payload["results"])
    assert payload["provenance"]["trials"] == 2
    csv_lines = (out_dir / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "T_m,error_pct,mpe_pct,trials,seconds"
    assert len(csv_lines) == 3


def test_cli_montecarlo_overrides(tmp_path):
    write_y_feeder(tmp_path)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(COMPLETE_CFG)
    out_dir = tmp_path / "mc"
    assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                     str(out_dir), "--trials", "3", "--seed", "99"]) == 0
    payload = json.loads((out_dir / "results.json").read_text())
    assert payload["provenance"]["trials"] == 3
    assert payload["provenance"]["seed"] == 99


def test_cli_montecarlo_fails_on_a_draw_error_like_probe(tmp_path, capsys):
    # Load noise at the unprobed bus 1 needs every line's reactance. A
    # sweep must stop with probe's error, not count every trial wrong.
    write_y_feeder(tmp_path, x_on_line_2=False)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(PARTIAL_CFG + "noise:\n  sigma_q: 0.001\n")
    errors = []
    for command in ("probe", "montecarlo"):
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(tmp_path / command)]) == 1
        errors.append(json.loads(capsys.readouterr().err))
    assert errors[0]["error"] == "NonpositiveImpedance"
    assert errors[1] == errors[0]
    assert not (tmp_path / "montecarlo").exists()


def test_cli_montecarlo_fails_on_a_draw_that_overflows(tmp_path, capsys):
    # The bundled complete sweep with meter noise that overflows: both
    # commands stop on the non-finite data with one error; neither
    # reports an error rate.
    raw = fileio.load_config(os.path.join(DATA, "table_complete.yaml"))
    raw.update(feeder=os.path.abspath(IEEE37), noise={"sigma_w": 1e308},
               trials=2)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    for command in ("probe", "montecarlo"):
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(tmp_path / command)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError", err
        assert "finite" in err["message"], err
    assert not (tmp_path / "montecarlo").exists()


@pytest.mark.parametrize("command, periods", [
    ("probe", 10**20),  # a count above what numpy holds
    ("probe", 10**15),  # counts numpy holds, a record it cannot size
    ("montecarlo", 10**20),
])
def test_cli_refuses_period_counts_numpy_cannot_hold(tmp_path, capsys,
                                                      command, periods):
    # The bundled complete sweep: each command stops with one JSON error
    # before numpy sees the count or sizes the record.
    raw = fileio.load_config(os.path.join(DATA, "table_complete.yaml"))
    raw.update(feeder=os.path.abspath(IEEE37), trials=2)
    argv = [command, "--out", str(tmp_path / command)]
    if command == "probe":
        argv += ["--periods", str(periods)]
    else:
        raw.update(periods=[periods])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError", err
    assert "too long to represent" in err["message"], err


BIG = 2 ** 70


def test_bus_ids_beyond_int64_run_every_command(tmp_path, capsys,
                                                monkeypatch):
    # Leaves BIG and BIG + 1 send grouping's bus arrays to numpy objects.
    # Junction 2 and pass-through bus 4 are not probed in partial mode, so
    # its recovery names junctions 1 and 2 afresh, above every probing ID.
    # `recover` and `montecarlo` read their plans off the owner hierarchy:
    # the set walk over level sets never runs.
    def set_walk(*args):
        raise AssertionError("the set walk ran")

    monkeypatch.setattr(recovery, "_walk", set_walk)
    feeder = tmp_path / "big.csv"
    feeder.write_text("from,to,r_pu,x_pu\n0,1,0.5,0.2\n1,2,0.4,0.3\n"
                      f"2,{BIG},0.3,0.1\n2,3,0.6,0.2\n1,4,0.7,0.4\n"
                      f"4,{BIG + 1},0.2,0.1\n")
    assert cli.main(["validate", str(feeder)]) == 0
    assert json.loads(capsys.readouterr().out)["leaves"] == [3, BIG, BIG + 1]
    assert cli.main(["reduce", str(feeder), "--all-leaves"]) == 0
    head, *lines = capsys.readouterr().out.splitlines()
    assert head == "# root 1, upstream resistance 0.5"
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        "1,2", "2,3", f"2,{BIG}", f"1,{BIG + 1}"]
    for mode, probing in (("complete", "all-buses"),
                          ("partial", "all-leaves")):
        cfg = tmp_path / f"{mode}.yaml"
        cfg.write_text(yaml.safe_dump({
            "feeder": feeder.name, "mode": mode, "probing": probing,
            "periods": [4, 9], "r_min": 0.2, "trials": 5, "seed": 1,
            "noise": {"sigma_w": 1e-5},
            "delta": {"policy": "fixed", "value_pu": 0.1}}))
        rec, rep = tmp_path / f"{mode}.rec", tmp_path / f"{mode}-rep"
        assert cli.main(["probe", "--config", str(cfg), "--out",
                         str(rec)]) == 0
        assert cli.main(["recover", str(rec), "--r-min", "0.2", "--out",
                         str(rep)]) == 0
        meta = json.loads((rep / "report.json").read_text())
        if mode == "partial":
            assert meta["probing"] == [3, BIG, BIG + 1]
            assert meta["internal_nodes"] == [BIG + 2, BIG + 3]
            assert meta["root"] == BIG + 2
        else:
            assert len(meta["line_support"]) == 6
        out = tmp_path / f"{mode}-mc"
        assert cli.main(["montecarlo", "--config", str(cfg), "--out",
                         str(out)]) == 0
        results = json.loads((out / "results.json").read_text())["results"]
        assert [r["error_pct"] for r in results] == [0.0, 0.0]
    capsys.readouterr()


def test_console_script_matches_module():
    proc = subprocess.run([sys.executable, "-c",
                           "from gridprobe.cli import main; "
                           "raise SystemExit(main(['validate', %r]))"
                           % IEEE37],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["buses"] == 37
