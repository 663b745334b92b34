"""Compare the command-line outputs of two gridprobe source trees.

    python tools/compare_outputs.py BASE HEAD

BASE and HEAD are source checkouts (each with src/gridprobe). Every
command runs once per tree, in the caller's environment (PYTHONWARNINGS
included) with PYTHONPATH=<tree>/src, and each output below must be
byte-identical between the two:

- the probe records of the bundled configs (complete T=40, partial T=39,
  and the short complete T=1, complete T=5 and partial T=1, seed 0), of
  noise-free copies of both (every sigma 0.0, the shared feeder copy
  below, T=1, seed 0), and records of a seeded 300-bus random feeder
  (every bus probing in complete mode, every leaf in partial mode):
  noise-free at T=1, seed 0, and noisy (sigma_w 0.003) at T=5, seed 1;
- `recover --r-min` on BASE's T=40 and T=39 records: recovered.csv and
  report.json;
- `recover --r-min` on BASE's short records, which fail the family check
  under the gap rule: exit code, stdout and stderr;
- exact `recover` on BASE's T=40 and T=39 records: exit code, stdout and
  stderr;
- exact `recover` on BASE's noise-free records, which recovers the
  feeder (complete) and its reduced grid (partial): recovered.csv and
  report.json, and the lines it prints without `--out`;
- exact `recover` on BASE's noise-free 300-bus records: recovered.csv and
  report.json;
- `recover --r-min 0.05` on BASE's noisy 300-bus records, which fail the
  family check, in partial mode on the agree-above rule ("columns ...
  disagree above depth ..."): exit code, stdout and stderr;
- `validate`, `reduce --all-leaves`, `reduce --probing` with an unsorted
  list holding a junction (5) and a pass-through bus (2), and
  `reduce --out` on a copy of the bundled feeder both trees read;
- `montecarlo` results.json and stdout at 4 trials seed 2 (a benchmark
  operation's shape, one chunk holding every sweep value), 50 trials
  seed 0, 200 seed 1 and 1000 seed 1 (the bundled tables' own), in both
  modes;
- `montecarlo` results.json and stdout on the noise-free configs at 4
  trials seed 2, in both modes, where every trial's cut runs on exact
  ties;
- `montecarlo` results.json and stdout on the 300-bus feeder, in both
  modes, at LARGE_SWEEP's sigma_w, sweep values, trials and seed, with a
  fixed probing magnitude: some trials keep the noise-free cut and some
  do not, and in complete mode each chunk of the sweep holds one trial.

74 outputs in all.

Prints each output that differs and exits 1 if any differs, 0 if none
does; exits 2 on a usage error, a tree without src/gridprobe or a failed
command that must succeed. Under a results.json that differs it says
whether its `results` rows are equal, equal on BASE's keys with the keys
HEAD adds named, or differ, and which provenance keys differ, and prints
both trees' (periods, error_pct, mpe_pct) rows where the rows differ.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import yaml

DATA = os.path.join("src", "gridprobe", "data")
R_MIN = {"complete": 0.0014, "partial": 0.0021}
# (mode, periods): records that recover at R_MIN, and short ones that
# fail the family check there.
PROBES = (("complete", 40), ("partial", 39))
SHORT = (("complete", 1), ("complete", 5), ("partial", 1))
LEAVES = "36,9,10,16,17,19,20,23,25,26,27,31,32,35"
FEEDER_COMMANDS = (("validate",), ("reduce", "--all-leaves"),
                   ("reduce", "--probing", LEAVES + ",5,2"))
SWEEPS = ((4, 2), (50, 0), (200, 1), (1000, 1))
# The large random feeder: buses, and the seed of its uniform attachment.
LARGE_BUSES, LARGE_SEED = 300, 33
# Its noisy records: sigma_w, periods and seed.
LARGE_NOISY = (0.003, 5, 1)
# Its sweeps: sigma_w, sweep values, trials per value and seed.
LARGE_SWEEP = (0.003, [16, 24, 32, 48], 4, 3)


def fail(message):
    sys.stderr.write(message + "\n")
    sys.exit(2)


def gridprobe(tree, *args, check=True):
    """Run the tree's command line; its exit code, stdout and stderr."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run([sys.executable, "-m", "gridprobe.cli", *args],
                          env=env, capture_output=True)
    if check and done.returncode:
        fail(f"{tree}: gridprobe {' '.join(args)} failed:\n"
             f"{done.stderr.decode(errors='replace')}")
    return done.returncode, done.stdout, done.stderr


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def noise_free_configs(tree, work, feeder):
    """Write copies of the tree's bundled configs with every sigma 0.0 that
    read the shared feeder copy `feeder`; their paths, by mode."""
    configs = {}
    for mode, _ in PROBES:
        with open(os.path.join(tree, DATA, f"table_{mode}.yaml")) as fh:
            cfg = yaml.safe_load(fh)
        cfg["noise"] = {key: 0.0 for key in cfg["noise"]}
        cfg["feeder"] = feeder
        configs[mode] = os.path.join(work, f"noise-free-{mode}.yaml")
        with open(configs[mode], "w") as fh:
            yaml.safe_dump(cfg, fh)
    return configs


def large_configs(work):
    """Write a seeded random feeder of LARGE_BUSES buses, each attached to
    a uniformly drawn earlier bus by a line with r and x uniform in [0.05,
    1), and configs that probe every bus (complete) or every leaf
    (partial) of it, noise-free, with LARGE_NOISY's sigma_w, and with
    LARGE_SWEEP's sigma_w and sweep values; their paths, by tag ("large",
    "large-noisy" or "large-sweep"), then mode."""
    rng = np.random.default_rng(LARGE_SEED)
    feeder = os.path.join(work, "large.csv")
    with open(feeder, "w") as fh:
        fh.write("from,to,r_pu,x_pu\n")
        for bus in range(1, LARGE_BUSES + 1):
            r, x = rng.uniform(0.05, 1.0, 2).tolist()
            fh.write(f"{int(rng.integers(bus))},{bus},{r!r},{x!r}\n")
    configs = {"large": {}, "large-noisy": {}, "large-sweep": {}}
    for mode, probing in (("complete", "all-buses"),
                          ("partial", "all-leaves")):
        for tag, sigma, periods in (
                ("large", 0.0, [1]), ("large-noisy", LARGE_NOISY[0], [1]),
                ("large-sweep", *LARGE_SWEEP[:2])):
            configs[tag][mode] = os.path.join(work, f"{tag}-{mode}.yaml")
            with open(configs[tag][mode], "w") as fh:
                yaml.safe_dump({
                    "feeder": feeder, "mode": mode, "probing": probing,
                    "periods": periods, "r_min": 0.05, "trials": 1,
                    "seed": 0,
                    "noise": {"sigma_p": 0.0, "sigma_q": 0.0,
                              "sigma_w": sigma},
                    "delta": {"policy": "fixed", "value_pu": 0.1}}, fh)
    return configs


def probe(tree, out, configs, large):
    """The tree's probe records, by name: the bundled configs', the
    noise-free ones of `configs`, and the large feeder's of `large`."""
    records = {}
    for mode, periods in PROBES + SHORT:
        path = os.path.join(out, f"probe-{mode}-{periods}.rec")
        gridprobe(tree, "probe", "--config",
                  os.path.join(tree, DATA, f"table_{mode}.yaml"),
                  "--periods", str(periods), "--seed", "0", "--out", path)
        records[f"probe {mode} T={periods} record"] = read(path)
    _, periods, seed = LARGE_NOISY
    for tag, chosen, name, draw in (
            ("noise-free", configs, "noise-free", (1, 0)),
            ("large", large["large"], "large noise-free", (1, 0)),
            ("large-noisy", large["large-noisy"], "large noisy",
             (periods, seed))):
        for mode in chosen:
            path = os.path.join(out, f"probe-{mode}-{tag}.rec")
            gridprobe(tree, "probe", "--config", chosen[mode], "--periods",
                      str(draw[0]), "--seed", str(draw[1]), "--out", path)
            records[f"probe {mode} {name} record"] = read(path)
    return records


def outputs(tree, out, records, feeder, configs, large):
    """The tree's other outputs, by name: recovering `records`, reading
    its bundled feeder and the shared copy `feeder`, and its sweeps of
    the bundled configs, the noise-free `configs` and the large feeder's
    `large` sweep configs."""
    found = {}
    for mode, periods in PROBES:
        rec, r_min = records[mode, periods], R_MIN[mode]
        report = os.path.join(out, f"recover-{mode}")
        gridprobe(tree, "recover", rec, "--r-min", str(r_min),
                  "--out", report)
        for name in ("recovered.csv", "report.json"):
            found[f"recover --r-min {r_min} {mode}: {name}"] = read(
                os.path.join(report, name))
        code, stdout, stderr = gridprobe(tree, "recover", rec, check=False)
        found[f"exact recover {mode}: exit code"] = str(code).encode()
        found[f"exact recover {mode}: stdout"] = stdout
        found[f"exact recover {mode}: stderr"] = stderr
    for mode, periods in SHORT:
        name = f"recover --r-min {R_MIN[mode]} {mode} T={periods}"
        code, stdout, stderr = gridprobe(
            tree, "recover", records[mode, periods], "--r-min",
            str(R_MIN[mode]), "--out",
            os.path.join(out, f"recover-{mode}-{periods}"), check=False)
        found[f"{name}: exit code"] = str(code).encode()
        found[f"{name}: stdout"] = stdout
        found[f"{name}: stderr"] = stderr
    for mode, _ in PROBES:
        rec = records[mode, "noise-free"]
        report = os.path.join(out, f"recover-{mode}-noise-free")
        gridprobe(tree, "recover", rec, "--out", report)
        for name in ("recovered.csv", "report.json"):
            found[f"exact recover {mode} noise-free: {name}"] = read(
                os.path.join(report, name))
        found[f"exact recover {mode} noise-free: stdout"] = gridprobe(
            tree, "recover", rec)[1]
        report = os.path.join(out, f"recover-{mode}-large")
        gridprobe(tree, "recover", records[mode, "large"], "--out", report)
        for name in ("recovered.csv", "report.json"):
            found[f"exact recover {mode} large noise-free: {name}"] = read(
                os.path.join(report, name))
        name = f"recover --r-min 0.05 {mode} large noisy"
        code, stdout, stderr = gridprobe(
            tree, "recover", records[mode, "large-noisy"], "--r-min", "0.05",
            "--out", os.path.join(out, f"recover-{mode}-large-noisy"),
            check=False)
        found[f"{name}: exit code"] = str(code).encode()
        found[f"{name}: stdout"] = stdout
        found[f"{name}: stderr"] = stderr
    for command in FEEDER_COMMANDS:
        found[" ".join(command)] = gridprobe(
            tree, *command, os.path.join(tree, DATA, "ieee37.csv"))[1]
    reduced = os.path.join(out, "reduced.csv")
    gridprobe(tree, "reduce", feeder, "--all-leaves", "--out", reduced)
    found["reduce --out"] = read(reduced)
    sweeps = [(f"{mode} {trials} trials seed {seed}",
               os.path.join(tree, DATA, f"table_{mode}.yaml"), trials, seed)
              for trials, seed in SWEEPS for mode, _ in PROBES]
    sweeps += [(f"{mode} noise-free 4 trials seed 2", configs[mode], 4, 2)
               for mode in configs]
    _, _, trials, seed = LARGE_SWEEP
    sweeps += [(f"{mode} large {trials} trials seed {seed}", large[mode],
                trials, seed) for mode in large]
    for name, config, trials, seed in sweeps:
        sweep = os.path.join(out, "montecarlo-" + name.replace(" ", "-"))
        stdout = gridprobe(tree, "montecarlo", "--config", config,
                           "--trials", str(trials), "--seed", str(seed),
                           "--out", sweep)[1]
        found[f"montecarlo {name}: results.json"] = read(
            os.path.join(sweep, "results.json"))
        found[f"montecarlo {name}: stdout"] = stdout
    return found


def rows_verdict(base, head):
    """Whether two `results` lists hold equal rows: "equal", "equal on
    the base's keys; new keys: ..." where HEAD's rows only add keys, or
    "differ"."""
    if base == head:
        return "equal"
    if len(base) != len(head):
        return "differ"
    added = set()
    for row, new in zip(base, head):
        if not row.keys() <= new.keys() or any(new[k] != v
                                               for k, v in row.items()):
            return "differ"
        added |= new.keys() - row.keys()
    return f"equal on the base's keys; new keys: {', '.join(sorted(added))}"


def results_diff(base, head):
    """Whether two parsed results.json files hold equal `results` rows
    (`rows_verdict`), and which of their provenance keys differ (one
    tree's key missing from the other's counts as differing)."""
    rows = rows_verdict(base["results"], head["results"])
    old, new = base["provenance"], head["provenance"]
    keys = sorted(k for k in old.keys() | new.keys()
                  if k not in old or k not in new or old[k] != new[k])
    return (f"results rows {rows}; provenance keys that differ: "
            f"{', '.join(keys) or 'none'}")


def main(argv):
    if len(argv) != 2:
        fail("usage: python tools/compare_outputs.py BASE HEAD")
    trees = dict(zip(("base", "head"), map(os.path.abspath, argv)))
    for tree in trees.values():
        if not os.path.isdir(os.path.join(tree, "src", "gridprobe")):
            fail(f"{tree}: no src/gridprobe")
    with tempfile.TemporaryDirectory() as work:
        # The reduced grid's comment header names its input path, so both
        # trees read one copy of the feeder.
        feeder = os.path.join(work, "ieee37.csv")
        shutil.copyfile(os.path.join(trees["head"], DATA, "ieee37.csv"),
                        feeder)
        configs = noise_free_configs(trees["head"], work, feeder)
        large = large_configs(work)
        got = {}
        for tag, tree in trees.items():
            os.mkdir(os.path.join(work, tag))
            got[tag] = probe(tree, os.path.join(work, tag), configs, large)
        # Both trees recover BASE's records, so the recover outputs are
        # compared even where the records differ.
        records = {(mode, periods): os.path.join(
                       work, "base", f"probe-{mode}-{periods}.rec")
                   for mode, periods in PROBES + SHORT + tuple(
                       (mode, name) for mode, _ in PROBES
                       for name in ("noise-free", "large", "large-noisy"))}
        for tag, tree in trees.items():
            got[tag].update(outputs(tree, os.path.join(work, tag), records,
                                    feeder, configs, large["large-sweep"]))
    differ = [name for name in got["base"]
              if got["base"][name] != got["head"][name]]
    for name in differ:
        print(f"differs: {name}")
        if name.endswith("results.json"):
            sweeps = {tag: json.loads(got[tag][name]) for tag in got}
            print("  " + results_diff(sweeps["base"], sweeps["head"]))
            if rows_verdict(sweeps["base"]["results"],
                            sweeps["head"]["results"]) == "differ":
                for tag, sweep in sweeps.items():
                    print(f"  {tag}: " + "  ".join(
                        f"({r['periods']}, {r['error_pct']}, {r['mpe_pct']})"
                        for r in sweep["results"]))
    print(f"{len(differ)} of {len(got['base'])} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
