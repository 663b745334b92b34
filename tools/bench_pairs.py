"""Run the benchmark on two gridprobe source trees in alternating pairs.

    python tools/bench_pairs.py BASE CHANGE [--seed 1] [--pairs 10] \
        [--seconds 25] [--control] [--out pairs.json]

BASE and CHANGE are source checkouts, each with BENCHMARK.json and
perfbench/. The harness refuses to run (exit 2) unless the benchmark's
inputs are the same in both: perfbench/ and the bundled configs and
feeder its workloads read (src/gridprobe/data/) must hold the same files,
byte for byte. Run output (perfbench/out/) and bytecode caches are left
out of the comparison.

For each workload of BENCHMARK.json and each of `--pairs` seeds, starting
at `--seed`, it runs

    python3 perfbench/run.py --workload NAME --seed SEED \
        --seconds SECONDS --trace 0

once in each tree, from that tree's root, one run at a time. The side
that runs first alternates from pair to pair, BASE first on the first
seed. For every end-to-end metric of BENCHMARK.json it then reports each
side's median and quartiles (numpy linear interpolation), how many pairs
each side won (a tie counts for neither), the median gap (CHANGE minus
BASE), BASE's quartile spread, and `change_worse_by`: the relative change
of the median in the metric's worse direction, beside its bound.

`--control` adds a null-edit control: a copy of BASE with one trailing
comment line appended to src/gridprobe/grouping.py is paired against
BASE the same way, on the next `--pairs` seeds, and reported in the same
form. A null edit runs the same code, so its pairs show how far the
layout of the files alone moves each metric.

Progress goes to standard error, the summary table to standard output,
and the full result (every run included) to `--out` as JSON, rewritten
after each workload's set of pairs. Exits 1 if a run fails or reports a
failed check, 0 otherwise.
"""

import argparse
import filecmp
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The module a null edit appends its comment to.
CONTROL_MODULE = "src/gridprobe/grouping.py"
# The directories whose files decide what the benchmark measures: its
# own code, and the bundled configs and feeder its workloads load.
BENCHMARK_INPUTS = ("perfbench", "src/gridprobe/data")
# Left out of the comparison: what running the benchmark writes into the
# tree.
RUN_LEFTOVERS = {"out", "__pycache__"}


def fail(message: str) -> None:
    print(f"bench_pairs: {message}", file=sys.stderr)
    raise SystemExit(2)


def benchmark_files(tree: Path) -> dict[str, Path]:
    """The files of tree's BENCHMARK_INPUTS by path relative to tree, run
    output left out."""
    files = {}
    for top in BENCHMARK_INPUTS:
        for dirpath, dirnames, filenames in os.walk(tree / top):
            dirnames[:] = [d for d in dirnames if d not in RUN_LEFTOVERS]
            for name in filenames:
                path = Path(dirpath) / name
                files[path.relative_to(tree).as_posix()] = path
    return files


def benchmark_difference(base: Path, change: Path) -> str | None:
    """Why the two trees' benchmark inputs differ, or None."""
    a, b = benchmark_files(base), benchmark_files(change)
    only = sorted(set(a) ^ set(b))
    if only:
        return f"{only[0]} is in one tree only"
    for rel in sorted(a):
        if not filecmp.cmp(a[rel], b[rel], shallow=False):
            return f"{rel} differs"
    return None


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "exit": done.returncode, "metrics": {}}
    return {"correct": bool(result["correct"]) and done.returncode == 0,
            "exit": done.returncode, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_pairs(sides: dict[str, Path], workload: str, seeds: list[int],
              seconds: float) -> dict:
    """Alternating runs of the two sides, the first side first on the
    first seed; {seed: {side: run}}."""
    names = list(sides)
    runs = {}
    for i, seed in enumerate(seeds):
        pair = {}
        for side in names if i % 2 == 0 else names[::-1]:
            run = pair[side] = run_once(sides[side], workload, seed, seconds)
            shown = run["metrics"].get("throughput_per_s", float("nan"))
            print(f"{workload} seed {seed} {side}: "
                  f"throughput {shown:.6g} /s"
                  + ("" if run["correct"] else "  FAILED"),
                  file=sys.stderr, flush=True)
        runs[seed] = {side: pair[side] for side in names}
    return runs


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def summary(runs: dict, names: list[str], metrics: list[dict]) -> dict:
    """Each end-to-end metric's quartiles per side, wins, gaps and
    `<second side>_worse_by`, over the pairs both sides finished."""
    first, second = names
    done = [r for r in runs.values()
            if all(set(r[n]["metrics"]) >= {m["name"] for m in metrics}
                   for n in names)]
    out = {"pairs": len(done),
           "correct": all(r[n]["correct"] for r in runs.values()
                          for n in names),
           "failed": {n: sum(r[n].get("failed", 0) for r in runs.values())
                      for n in names},
           "attempted": {n: sum(r[n].get("attempted", 0)
                                for r in runs.values()) for n in names}}
    if not done:
        return out
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        a = [r[first]["metrics"][name] for r in done]
        b = [r[second]["metrics"][name] for r in done]
        qa, qb = quartiles(a), quartiles(b)
        base = qa["median"]
        worse = (sign * (base - qb["median"]) / abs(base) if base
                 else 0.0)
        out[name] = {
            first: qa, second: qb,
            "wins": {first: sum(sign * (x - y) > 0 for x, y in zip(a, b)),
                     second: sum(sign * (y - x) > 0 for x, y in zip(a, b))},
            "median_gap": qb["median"] - base,
            f"{first}_quartile_spread": qa["q3"] - qa["q1"],
            f"{second}_worse_by": worse,
            "bound": m["bound"],
        }
    return out


def table(title: str, names: list[str], summ: dict) -> str:
    first, second = names
    lines = [f"{title}: {summ['pairs']} pairs, failed ops "
             f"{summ['failed'][first]} / {summ['failed'][second]}",
             f"  {'metric':20s} {first + ' median':>16s} "
             f"{second + ' median':>16s} {'wins':>7s} "
             f"{'worse by':>9s} {'bound':>6s}"]
    for name, s in summ.items():
        if not isinstance(s, dict) or "bound" not in s:
            continue
        lines.append(
            f"  {name:20s} {s[first]['median']:16.6g} "
            f"{s[second]['median']:16.6g} "
            f"{s['wins'][second]:>3d}/{summ['pairs']:<3d} "
            f"{100 * s[second + '_worse_by']:+8.2f}% "
            f"{100 * s['bound']:5.0f}%")
    return "\n".join(lines)


def null_edit(base: Path, into: Path) -> Path:
    """A copy of base with one trailing comment line appended to
    CONTROL_MODULE."""
    copy = into / "control"
    shutil.copytree(base, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "out"))
    path = copy / CONTROL_MODULE
    if not path.is_file():
        fail(f"no module {CONTROL_MODULE} in {base}")
    text = path.read_text(encoding="utf-8")
    path.write_text(text + ("" if text.endswith("\n") else "\n")
                    + "# null edit\n", encoding="utf-8")
    return copy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--control", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.pairs < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --pairs >= 1 and --seconds > 0")
    base, change = args.base.resolve(), args.change.resolve()
    for tree in (base, change):
        if not (tree / "perfbench" / "run.py").is_file():
            fail(f"{tree} has no perfbench/run.py")
        if not (tree / "BENCHMARK.json").is_file():
            fail(f"{tree} has no BENCHMARK.json")
    why = benchmark_difference(base, change)
    if why:
        fail(f"the trees' benchmarks differ ({why}); pairs would not "
             f"compare the same measurement")
    bench = json.loads((base / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seeds = list(range(args.seed, args.seed + args.pairs))
    result = {
        "harness": "tools/bench_pairs.py",
        "base": str(base), "change": str(change),
        "seconds": args.seconds,
        "order": "each pair alternates which side runs first, the first "
                 "side first on the first seed; one run at a time",
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "env": {k: os.environ.get(k) for k in (
                        "PYTHONDONTWRITEBYTECODE", "PYTHONWARNINGS")}},
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        sets = [("pairs", {"base": base, "change": change}, seeds)]
        if args.control:
            control = null_edit(base, Path(tmp))
            result["control_module"] = CONTROL_MODULE
            sets.append(("control", {"base": base, "control": control},
                         [s + args.pairs for s in seeds]))
        for w in workloads:
            entry = result["workloads"].setdefault(w, {})
            for key, sides, chosen in sets:
                runs = run_pairs(sides, w, chosen, args.seconds)
                summ = summary(runs, list(sides), metrics)
                ok &= summ["correct"]
                entry[key] = {"seeds": chosen, "summary": summ,
                              "runs": {str(s): r for s, r in runs.items()}}
                print(table(f"{w} {key}", list(sides), summ), flush=True)
                # Written after every set, so a stopped run keeps its pairs.
                if args.out:
                    args.out.write_text(json.dumps(result, indent=1) + "\n",
                                        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
