"""Command-line entry points.

Subcommands mirror the pipeline stages: validate a feeder file, reduce a
feeder to its probed equivalent, simulate a probing record, recover a
grid from a record, and run Monte Carlo sweeps. Data errors exit 1 with
a JSON message on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import fileio
from .errors import ConfigError, GridProbeError
from .experiments import (ExperimentConfig, identify, run_experiment,
                          write_results)
# perfbench/tracer.py wraps these stage names here; `identify` calls none
# of the grouping and recovery ones.
from .grouping import assemble_families, group_column_noisy
from .probing import ProbingPlan, estimate_resistances, simulate_probing
from .recovery import recover_full, recover_partial
from .reduction import reduce_grid


def _parse_bus_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(b) for b in text.replace(" ", "").split(",") if b)
    except ValueError:
        raise ConfigError(f"bad bus list {text!r}") from None


def _cmd_validate(args) -> int:
    g = fileio.load_feeder(args.feeder)
    print(json.dumps({
        "buses": len(g.nodes),
        "edges": len(g.edges),
        "leaves": sorted(g.leaves),
        "depth": g.tree_depth,
        "r_min": min(r for _, _, r, _ in g.edges),
        "has_reactances": all(x is not None for _, _, _, x in g.edges),
    }, sort_keys=True))
    return 0


def _cmd_reduce(args) -> int:
    g = fileio.load_feeder(args.feeder)
    probing = (sorted(g.leaves) if args.all_leaves
               else _parse_bus_list(args.probing))
    rg = reduce_grid(g, probing)
    if args.out:
        fileio.save_feeder(rg, args.out,
                           comment=f"reduced from {args.feeder}, probing "
                                   f"{','.join(map(str, probing))}")
    else:
        print(f"# root {rg.root}, upstream resistance {rg.root_upstream_r!r}")
        for u, v, r in rg.edges:
            print(f"{u},{v},{r!r}")
    return 0


def _load_config(path: str, **overrides) -> ExperimentConfig:
    """Read a YAML config, replacing each key whose override is not None."""
    raw = fileio.load_config(path)
    raw.update((k, v) for k, v in overrides.items() if v is not None)
    return ExperimentConfig.from_dict(raw, base_dir=os.path.dirname(path)
                                      or ".")


def _cmd_probe(args) -> int:
    cfg = _load_config(args.config, seed=args.seed)
    g = fileio.load_feeder(cfg.feeder_path)
    buses = cfg.probing_buses(g)
    delta = cfg.delta_map(buses)
    periods = max(cfg.periods) if args.periods is None else args.periods
    plan = ProbingPlan.blocks(buses, delta, periods)
    noise = dataclasses.replace(cfg.noise, seed=cfg.seed)
    record = simulate_probing(g, plan, noise, mode=cfg.mode)
    fileio.save_record(record, args.out)
    print(json.dumps({"out": args.out, "mode": cfg.mode,
                      "buses": len(buses), "periods_per_bus": periods}))
    return 0


def _cmd_recover(args) -> int:
    record = fileio.load_record(args.record)
    report = identify(estimate_resistances(record), args.r_min, record.mode)
    if args.out:
        fileio.save_report(report, args.out)
        print(json.dumps({"out": args.out, "mode": report.mode,
                          "edges": len(report.graph.edges)}))
    else:
        for u, v, r, *_ in report.graph.edges:
            print(f"{u},{v},{r!r}")
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_config(args.config, trials=args.trials, seed=args.seed)
    result = run_experiment(cfg)
    write_results(result, args.out)
    print("T_m,error_pct,mpe_pct")
    for row in result.rows:
        mpe = "" if row["mpe_pct"] is None else f"{row['mpe_pct']:.4f}"
        print(f"{row['periods']},{row['error_pct']:.4f},{mpe}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridprobe",
        description="Identify feeder topology and line resistances from "
                    "inverter probing data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a feeder file")
    p.add_argument("feeder")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reduce", help="reduce a feeder to its probed grid")
    p.add_argument("feeder")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--probing", help="comma-separated bus ids")
    group.add_argument("--all-leaves", action="store_true")
    p.add_argument("--out", help="output feeder CSV path")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("probe", help="simulate probing, write a record")
    p.add_argument("--config", required=True)
    p.add_argument("--periods", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("recover", help="recover a grid from a record")
    p.add_argument("record")
    p.add_argument("--r-min", type=float, dest="r_min",
                   help="noisy grouping threshold; omit for exact grouping")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("montecarlo", help="run a Monte Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GridProbeError, OSError) as exc:
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
