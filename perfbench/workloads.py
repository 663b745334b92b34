"""The benchmark's workloads: two Monte Carlo sweeps and a record corpus.

Every workload is a closed loop with one caller in one process. Set-up
(package import, config and feeder load, grid reduction, corpus
generation) is done `SETUP_REPS` times before the first timed call and
reported as its median; `recover_records` writes one shard of its corpus
in each set-up. Inputs derive from the workload seed only.

An untraced run (`trace=False`) reports the end-to-end metrics. A traced
run calls the same entry points twice per operation, once with the
tracer installed and once without, checks that both give the same
results, and reports per-layer self times normalised per trial (sweeps)
or per record (`recover_records`).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibration import SpeedGauge, Stopwatch
from tracer import Tracer

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "src" / "gridprobe" / "data"
OUT = HERE / "out"

# Trials per sweep value in one run_experiment call (one operation).
# Each call sweeps all five durations, so a run holds cheap rejected
# trials at short T and full recoveries at long T in fixed proportion.
SWEEPS = {
    "sweep_complete": ("table_complete.yaml", 2),
    "sweep_partial": ("table_partial.yaml", 4),
}
# Round i of a run with workload seed s uses config seed s * STRIDE + i.
ROUND_SEED_STRIDE = 100_000
SETUP_REPS = {"sweep_complete": 7, "sweep_partial": 7, "recover_records": 3}

# recover_records corpus: uniform-attachment feeders with 20 to 100
# buses. Lines take the (r, x) pairs of the bundled feeder's lines, buses
# the probing magnitudes of the bundled complete sweep (rated load over
# s_base_kva), each dealt from shuffled whole passes over the bundled
# values (see `dealt`); the noise is that sweep's.
RECORD_BUSES = (20, 100)
RECORD_CONFIG = "table_complete.yaml"
# Corpus size per second of --seconds; 4/s gives 100 records at 25 s,
# enough for a p90 with ten samples beyond it.
RECORDS_PER_SECOND = 4

WORKLOADS = ("sweep_complete", "sweep_partial", "recover_records")

END_TO_END = {
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "topology_ok_pct": "%",
    "resistance_mpe_pct": "%",
}

# Per-layer self times: (metric, span name). All are ms per trial or per
# record.
LAYER_TIMES = (
    ("probing.simulate_ms", "probing.simulate"),
    ("probing.estimate_ms", "probing.estimate"),
    ("feeder.shared_path_ms", "feeder.shared_path"),
    ("grouping.group_ms", "grouping.group"),
    ("grouping.assemble_ms", "grouping.assemble"),
    ("recovery.recover_ms", "recovery.recover"),
    ("recovery.compare_ms", "recovery.compare"),
    ("reduction.reduce_ms", "reduction.reduce"),
    ("fileio.load_feeder_ms", "fileio.load_feeder"),
    ("fileio.load_record_ms", "fileio.load_record"),
    ("fileio.save_report_ms", "fileio.save_report"),
    ("fileio.save_record_ms", "fileio.save_record"),
    ("experiments.self_ms", "experiments.run"),
    ("cli.self_ms", "cli.main"),
)
PER_LAYER = {
    **{metric: "ms" for metric, _ in LAYER_TIMES},
    "feeder.shared_path_calls": "count",
    "grouping.entries": "count",
    "grouping.assemble_reject_pct": "%",
    "recovery.recover_reject_pct": "%",
    "fileio.record_mb": "MB",
    "trace.overhead_pct": "%",
}

# Sweep rows the traced and untraced runs must agree on exactly.
AGREEMENT_KEYS = ("error_pct", "mpe_pct", "mpe_se")
# Criteria 4 and 5: topology error at the longest duration.
TOP_T_ERROR_MAX_PCT = 1.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    # Timed operations and set-ups, as finished stopwatches.
    ops: list[Stopwatch] = field(default_factory=list)
    setups: list[Stopwatch] = field(default_factory=list)
    units_done: int = 0  # trials (sweeps) or records
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, ok, detail))
        if not ok:
            self.failed += 1

    def op_failed(self, index: int, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {index}: {why}")


def import_gridprobe():
    """Import the package afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "gridprobe" or m.startswith("gridprobe.")]:
        del sys.modules[name]
    gp = importlib.import_module("gridprobe")
    importlib.import_module("gridprobe.cli")
    return gp


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- Monte Carlo sweeps -------------------------------------------------------


def sweep_setup(config_name: str):
    """Everything run_experiment needs before its first trial."""
    gp = import_gridprobe()
    raw = gp.load_config(DATA / config_name)
    cfg = gp.ExperimentConfig.from_dict(raw, base_dir=str(DATA))
    g = gp.load_feeder(cfg.feeder_path)
    buses = cfg.probing_buses(g)
    cfg.delta_map(buses)
    if cfg.mode == "partial":
        gp.reduce_grid(g, buses)
    return gp, raw


def row_problem(res, cfg) -> str | None:
    """Why one run_experiment result is malformed, or None."""
    periods = [r["periods"] for r in res.rows]
    if periods != list(cfg.periods):
        return f"rows cover periods {periods}, config has {list(cfg.periods)}"
    for r in res.rows:
        if r["trials"] != cfg.trials:
            return f"T={r['periods']}: {r['trials']} trials, want {cfg.trials}"
        err, mpe, se = r["error_pct"], r["mpe_pct"], r["mpe_se"]
        if not 0.0 <= err <= 100.0:
            return f"T={r['periods']}: error_pct {err}"
        correct = cfg.trials * (100.0 - err) / 100.0
        if abs(correct - round(correct)) > 1e-6:
            return f"T={r['periods']}: error_pct {err} is no whole trial count"
        correct = round(correct)
        if (mpe is None) != (correct == 0):
            return f"T={r['periods']}: mpe_pct {mpe} with {correct} correct"
        if mpe is not None and not (math.isfinite(mpe) and mpe >= 0.0):
            return f"T={r['periods']}: mpe_pct {mpe}"
        if (se is None) != (correct < 2):
            return f"T={r['periods']}: mpe_se {se} with {correct} correct"
    return None


def sweep_checks(out: Outcome, tally: dict[int, list]) -> None:
    """Criterion 4/5 bound at the longest T, and errors falling with T.

    A step to the next T may rise only within three standard errors of
    the difference of two binomial rates, so Monte Carlo noise between
    two near-zero rates does not fail a run.
    """
    periods = sorted(tally)
    err = {t: 100.0 * (n - c) / n for t, (n, c, _) in tally.items()}
    top = periods[-1]
    out.check("top_t_error", err[top] <= TOP_T_ERROR_MAX_PCT,
              f"T={top}: {err[top]:.3f}% over {tally[top][0]} trials "
              f"(bound {TOP_T_ERROR_MAX_PCT}%)")
    rises = []
    for a, b in zip(periods, periods[1:]):
        (na, ca, _), (nb, cb, _) = tally[a], tally[b]
        p = ((na - ca) + (nb - cb)) / (na + nb)
        se = 100.0 * math.sqrt(p * (1 - p) * (1 / na + 1 / nb))
        if err[b] - err[a] > 3 * se:
            rises.append(f"T={a}->{b}: {err[a]:.2f}% -> {err[b]:.2f}%")
    falls = not rises and err[periods[0]] > err[top]
    out.check("error_falls_with_t", falls,
              "; ".join(rises) or " > ".join(f"{err[t]:.2f}" for t in periods))


def run_sweep(name: str, seed: int, seconds: float, tracer: Tracer | None,
              out: Outcome) -> None:
    config_name, trials = SWEEPS[name]
    for _ in range(SETUP_REPS[name]):
        watch = Stopwatch(out.gauge)
        gp, raw = watch.run(sweep_setup, config_name)
        out.setups.append(watch)

    tally: dict[int, list] = {}  # T -> [trials, correct, sum of mpe * correct]
    traced_s = untraced_s = 0.0
    agree = True
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        cfg = gp.ExperimentConfig.from_dict(
            {**raw, "trials": trials, "seed": seed * ROUND_SEED_STRIDE + i},
            base_dir=str(DATA))
        if tracer is not None:
            tracer.install()
            traced_watch = Stopwatch(None)
            try:
                traced = traced_watch.run(gp.run_experiment, cfg)
            except Exception:
                traced = None  # counted against trace_agreement below
            finally:
                tracer.uninstall()
            traced_s += traced_watch.raw
        out.attempted += 1
        if tracer is not None and traced is None:
            agree = False
        watch = Stopwatch(out.gauge)
        try:
            res = watch.run(gp.run_experiment, cfg)
        except Exception:
            out.op_failed(i, traceback.format_exc(limit=3))
            i += 1
            continue
        untraced_s += watch.raw
        out.ops.append(watch)
        problem = row_problem(res, cfg)
        if problem:
            out.op_failed(i, problem)
        else:
            out.units_done += trials * len(res.rows)
            for r in res.rows:
                correct = round(trials * (100.0 - r["error_pct"]) / 100.0)
                row = tally.setdefault(r["periods"], [0, 0, 0.0])
                row[0] += trials
                row[1] += correct
                row[2] += (r["mpe_pct"] or 0.0) * correct
        if tracer is not None and traced is not None:
            pick = [[r[k] for k in AGREEMENT_KEYS] for r in traced.rows]
            if pick != [[r[k] for k in AGREEMENT_KEYS] for r in res.rows]:
                agree = False
        i += 1

    if tally:
        sweep_checks(out, tally)
        n_all = sum(n for n, _, _ in tally.values())
        c_all = sum(c for _, c, _ in tally.values())
        _, c_top, mpe_top = tally[max(tally)]
        out.metrics["topology_ok_pct"] = 100.0 * c_all / n_all
        out.metrics["resistance_mpe_pct"] = (mpe_top / c_top if c_top
                                             else float("nan"))
        out.details["per_t"] = {
            str(t): {"trials": n, "error_pct": 100.0 * (n - c) / n,
                     "mpe_pct": (m / c if c else None)}
            for t, (n, c, m) in sorted(tally.items())}
    else:
        out.check("sweep_rows", False, "no well-formed sweep result")
    if tracer is not None:
        out.check("trace_agreement", agree,
                  "traced and untraced sweep rows "
                  + ("are identical" if agree else "differ"))
        out.details.update(traced_s=traced_s, untraced_s=untraced_s)


# -- recover_records ----------------------------------------------------------


@dataclass(frozen=True)
class Record:
    path: Path
    edges: tuple  # the truth feeder's (parent, child, r, x) lines
    r_min: float


@dataclass(frozen=True)
class CorpusInputs:
    noise: object  # NoiseModel
    lines: list[tuple[float, float]]  # (r, x) of each bundled feeder line
    deltas: list[float]  # probing magnitude of each bundled feeder bus


def corpus_inputs(gp) -> CorpusInputs:
    """The bundled complete sweep's noise, line impedances and magnitudes."""
    raw = gp.load_config(DATA / RECORD_CONFIG)
    cfg = gp.ExperimentConfig.from_dict(raw, base_dir=str(DATA))
    g = gp.load_feeder(cfg.feeder_path)
    return CorpusInputs(
        noise=cfg.noise,
        lines=sorted((r, x) for _, _, r, x in g.edges),
        deltas=sorted(cfg.delta_map(cfg.probing_buses(g)).values()))


def dealt(rng, values: list, n: int) -> list:
    """n of `values`, dealt from shuffled whole passes over them.

    Every len(values) consecutive draws use each value once, so a feeder
    as large as the bundled one has its whole line and load mix, r_min
    included. Independent draws would leave r_min, which sets the
    design duration as 1/r_min^2, to chance, and the corpus's latency
    percentiles would vary with the seed far more than with the program.
    """
    passes = -(-n // len(values))
    return [values[j] for _ in range(passes)
            for j in rng.permutation(len(values))][:n]


def random_feeder(gp, rng, buses: int, lines):
    """Uniform attachment: each new bus hangs off a uniformly chosen
    existing bus; bus IDs are a random permutation of 1..buses. Line
    (r, x) pairs are dealt from `lines`."""
    attached = [0]
    edges = []
    impedances = dealt(rng, lines, buses)
    for b, (r, x) in zip(rng.permutation(np.arange(1, buses + 1)),
                         impedances):
        parent = attached[int(rng.integers(len(attached)))]
        edges.append((parent, int(b), r, x))
        attached.append(int(b))
    return gp.build_feeder(edges)


def make_record(gp, rng, inputs: CorpusInputs, buses: int,
                path: Path) -> Record:
    """Simulate one complete-mode record at the design_plan duration.

    The duration of each bus follows the design rule for the feeder's
    own r_min and worst-case noise scale.
    """
    g = random_feeder(gp, rng, buses, inputs.lines)
    r_min = min(r for _, _, r, _ in g.edges)
    rho_r = float(np.linalg.eigvalsh(gp.resistance_matrix(g).values)[-1])
    rho_x = float(np.linalg.eigvalsh(gp.reactance_matrix(g).values)[-1])
    delta = dict(zip(g.bus_order,
                     dealt(rng, inputs.deltas, len(g.bus_order))))
    plan = gp.design_plan(r_min, gp.noise_bound(inputs.noise, rho_r, rho_x),
                          delta)
    record = gp.simulate_probing(g, plan, inputs.noise, mode="complete",
                                 rng=rng)
    gp.fileio.save_record(record, path)
    return Record(path, tuple(g.edges), r_min)


def recover_once(gp, rec: Record, out_dir: Path,
                 watch: Stopwatch) -> str | None:
    """One `gridprobe recover` call, timed on `watch`; why it failed."""
    argv = ["recover", str(rec.path), "--r-min", repr(rec.r_min),
            "--out", str(out_dir)]
    try:
        code = watch.run(gp.cli.main, argv)
    except Exception:
        return traceback.format_exc(limit=3)
    return None if code == 0 else f"exit code {code}"


def score_record(gp, rec: Record, out_dir: Path):
    """Load recovered.csv back and compare it with the truth feeder."""
    truth = gp.build_feeder(rec.edges)
    meta = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if meta.get("mode") != "complete" or meta.get("probing") != list(
            truth.bus_order):
        return None, "report.json does not describe a complete recovery"
    got = gp.load_feeder(out_dir / "recovered.csv")
    cmp = gp.compare_graphs(got, truth, truth.bus_order)
    if not cmp.topology_correct:
        return cmp, "wrong topology"
    return cmp, None


def same_outputs(a: Path, b: Path) -> bool:
    files = ("recovered.csv", "report.json")
    if not all((d / f).is_file() for d in (a, b) for f in files):
        return False
    return all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


def run_records(seed: int, seconds: float, tracer: Tracer | None,
                out: Outcome) -> None:
    work = OUT / "recover_records"
    corpus = fresh_dir(work / "corpus")
    shards = SETUP_REPS["recover_records"]
    count = max(shards, round(RECORDS_PER_SECOND * seconds))
    rng = np.random.default_rng(seed)
    # Bus counts evenly cover the range in every corpus, and every shard
    # takes every shards-th of them, so all set-ups have the same size mix.
    sizes = np.linspace(*RECORD_BUSES, num=count).round().astype(int)
    records: list[Record] = []
    for k in range(shards):
        watch = Stopwatch(out.gauge)
        gp = watch.run(import_gridprobe)
        if tracer is not None:
            tracer.install()
        inputs = watch.run(corpus_inputs, gp)
        for buses in rng.permutation(sizes[k::shards]):
            if tracer is not None:
                tracer.trial = len(records)
            path = corpus / f"record-{len(records):04d}.csv"
            records.append(watch.run(make_record, gp, rng, inputs,
                                     int(buses), path))
        if tracer is not None:
            tracer.uninstall()
        out.setups.append(watch)
    shapes = {tuple(sorted(r.edges)) for r in records}
    out.check("distinct_inputs", len(shapes) == len(records),
              f"{len(shapes)} distinct feeders in {len(records)} records")
    sizes = [r.path.stat().st_size for r in records]
    out.details["record_mb_mean"] = statistics.fmean(sizes) / 1e6
    out.details["buses"] = [len(r.edges) for r in records]

    results = fresh_dir(work / "recovered")
    traced_s = untraced_s = 0.0
    agree = True
    ok = 0
    mpes = []
    if tracer is not None:
        tracer.install()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for i, rec in enumerate(records):
            if tracer is not None:
                tracer.trial = i
                traced_dir = results / f"{i:04d}-traced"
                traced = Stopwatch(None)
                traced_why = recover_once(gp, rec, traced_dir, traced)
                traced_s += traced.raw
                tracer.uninstall()
            out_dir = results / f"{i:04d}"
            out.attempted += 1
            watch = Stopwatch(out.gauge)
            why = recover_once(gp, rec, out_dir, watch)
            untraced_s += watch.raw
            if tracer is not None:
                agree = (agree and traced_why is None
                         and same_outputs(traced_dir, out_dir))
                tracer.install()
            if why is not None:
                out.op_failed(i, why)
                continue
            out.ops.append(watch)
            out.units_done += 1
            cmp, why = score_record(gp, rec, out_dir)
            if why is not None:
                out.op_failed(i, why)
                continue
            ok += 1
            mpes.append(cmp.resistance_mpe)
    # The records run to hundreds of MB; keep only the recovered outputs.
    shutil.rmtree(corpus)
    if tracer is not None:
        tracer.uninstall()
        out.check("trace_agreement", agree,
                  "traced and untraced recover outputs "
                  + ("are identical" if agree else "differ"))
        out.details.update(traced_s=traced_s, untraced_s=untraced_s)
    out.metrics["topology_ok_pct"] = 100.0 * ok / len(records)
    out.metrics["resistance_mpe_pct"] = (statistics.fmean(mpes) if mpes
                                         else float("nan"))


# -- metrics ------------------------------------------------------------------


def timings(out: Outcome, calibrated: bool) -> dict[str, float]:
    pick = (lambda w: w.calibrated) if calibrated else (lambda w: w.raw)
    ms = [1000.0 * pick(w) for w in out.ops] or [float("nan")]
    busy = sum(pick(w) for w in out.ops)
    return {
        "throughput_per_s": out.units_done / busy if busy else float("nan"),
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "setup_s": statistics.median(pick(w) for w in out.setups),
    }


def end_to_end(out: Outcome) -> dict[str, float]:
    """User-visible metrics, durations calibrated (see calibration.py)."""
    out.details["uncalibrated"] = timings(out, calibrated=False)
    return {
        **timings(out, calibrated=True),
        "peak_rss_mb": peak_rss_mb(),
        "topology_ok_pct": out.metrics.get("topology_ok_pct", float("nan")),
        "resistance_mpe_pct": out.metrics.get("resistance_mpe_pct",
                                              float("nan")),
    }


def per_layer(out: Outcome, tracer: Tracer, units: int) -> dict[str, float]:
    """Self times and counts per trial or record, from the traced passes."""
    totals = tracer.totals()
    units = max(units, 1)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def rejected_pct(span, stage):
        raised = sum(n for key, n in tracer.failures.items()
                     if key.startswith(stage + ":"))
        return 100.0 * raised / calls(span) if calls(span) else 0.0

    scale = out.gauge.mean_factor() / 1e6 / units
    values = {metric: totals.get(span, {}).get("self_ns", 0) * scale
              for metric, span in LAYER_TIMES}
    values.update({
        "feeder.shared_path_calls": calls("feeder.shared_path") / units,
        "grouping.entries": tracer.entries / units,
        "grouping.assemble_reject_pct": rejected_pct("grouping.assemble",
                                                     "assemble"),
        "recovery.recover_reject_pct": rejected_pct("recovery.recover",
                                                    "recover"),
        "fileio.record_mb": out.details.get("record_mb_mean", 0.0),
        "trace.overhead_pct": 100.0 * (out.details["traced_s"]
                                       / out.details["untraced_s"] - 1.0),
    })
    return values


def run(name: str, seed: int, seconds: float,
        trace: bool) -> tuple[Outcome, dict, Tracer | None]:
    """Run one workload; return its outcome, metrics and tracer."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    work = fresh_dir(OUT / name)
    out = Outcome()
    tracer = None
    if trace:
        tracer = Tracer(trial_start=None if name == "recover_records"
                        else "probing.simulate")
    if name == "recover_records":
        run_records(seed, seconds, tracer, out)
    else:
        run_sweep(name, seed, seconds, tracer, out)
    if tracer is None:
        metrics = end_to_end(out)
    else:
        units = tracer.trial + 1 if name != "recover_records" else len(
            out.details["buses"])
        metrics = per_layer(out, tracer, units)
        tracer.write(work / "spans.jsonl")
        out.details["failures"] = dict(sorted(tracer.failures.items()))
        out.details["traced_units"] = units
    out.details["gauge_ms"] = out.gauge.samples
    for metric, value in metrics.items():
        if not math.isfinite(value):
            out.check(f"metric_{metric}", False, f"{metric} is {value}")
    return out, metrics, tracer
