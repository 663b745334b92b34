"""Benchmark command for gridprobe.

    python3 perfbench/run.py --workload sweep_complete --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/. With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run. `--workload all` runs
every workload, each in a fresh process, one after another.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full result, provenance
included, is also written to perfbench/out/<workload>/. The command exits
1 when an output check fails and 2 when there is no gridprobe source to
benchmark.
"""

import os

# Cap BLAS and OpenMP threads before numpy is first imported, so timings
# measure the program rather than the thread scheduler.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# A child workload of `--workload all` that runs longer than this is
# stopped and counted as failed.
CHILD_TIMEOUT_S = 900


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    out, metrics, tracer = workloads.run(args.workload, args.seed,
                                         args.seconds, bool(args.trace))
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct = out.failed == 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    full = {"workload": args.workload, "seconds": args.seconds,
            "provenance": provenance(args.seed, args.trace),
            "result": result,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in out.checks],
            "errors": out.errors,
            "ops": len(out.ops), "units": out.units_done,
            "setup_seconds": [{"raw": w.raw, "calibrated": w.calibrated}
                              for w in out.setups],
            "details": out.details}
    path = (workloads.OUT / args.workload
            / "result.json")
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {out.attempted}  units {out.units_done}  "
          f"failed {out.failed} "
          f"({100.0 * out.failed / max(out.attempted, 1):.2f}%)")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:14.6g} {unit}")
    for name, ok, detail in out.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'}  {detail}")
    for line in out.errors:
        print(f"  error {line}")
    if tracer is not None:
        print(f"  failures by stage {json.dumps(out.details['failures'])}")
    print(f"  provenance {json.dumps(full['provenance'])}")
    print(f"  full result {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"workload {name} timed out after {CHILD_TIMEOUT_S} s")
            results[name] = None
            continue
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
    good = [r for r in results.values() if r is not None]
    summary = {
        "correct": len(good) == len(results) and all(r["correct"]
                                                     for r in good),
        "attempted": sum(r["attempted"] for r in good),
        "failed": sum(r["failed"] for r in good),
        "workloads": results,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gridprobe" / "__init__.py").is_file():
        print(f"perfbench: no gridprobe package under {SRC}; run from the "
              f"root of a gridprobe source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
