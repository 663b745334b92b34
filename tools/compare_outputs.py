"""Compare the command-line outputs of two gridprobe source trees.

    python tools/compare_outputs.py BASE HEAD

BASE and HEAD are source checkouts (each with src/gridprobe). Every
command runs once per tree with PYTHONPATH=<tree>/src, and each output
below must be byte-identical between the two:

- the probe records of the bundled configs (complete T=40, partial T=39,
  seed 0);
- `recover --r-min` on BASE's records: recovered.csv and report.json;
- exact `recover` on BASE's records: exit code, stdout and stderr;
- `validate`, `reduce --all-leaves`, `reduce --probing` with an unsorted
  list holding a junction (5) and a pass-through bus (2), and
  `reduce --out` on a copy of the bundled feeder both trees read;
- `montecarlo` results.json and stdout at 50 trials seed 0, 200 seed 1
  and 1000 seed 1 (the bundled tables' own), in both modes.

Prints each output that differs and exits 1 if any does, 0 if none
does; exits 2 on a usage error, a tree without src/gridprobe or a
failed command that must succeed.
"""

import os
import shutil
import subprocess
import sys
import tempfile

DATA = os.path.join("src", "gridprobe", "data")
PROBES = (("complete", 40, 0.0014), ("partial", 39, 0.0021))
LEAVES = "36,9,10,16,17,19,20,23,25,26,27,31,32,35"
FEEDER_COMMANDS = (("validate",), ("reduce", "--all-leaves"),
                   ("reduce", "--probing", LEAVES + ",5,2"))
SWEEPS = ((50, 0), (200, 1), (1000, 1))


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


def probe(tree, out):
    """The tree's probe records, by name."""
    records = {}
    for mode, periods, _ in PROBES:
        path = os.path.join(out, f"probe-{mode}.rec")
        gridprobe(tree, "probe", "--config",
                  os.path.join(tree, DATA, f"table_{mode}.yaml"),
                  "--periods", str(periods), "--seed", "0", "--out", path)
        records[f"probe {mode} T={periods} record"] = read(path)
    return records


def outputs(tree, out, records, feeder):
    """The tree's other outputs, by name: recovering `records`, reading
    its bundled feeder and the shared copy `feeder`, and its sweeps."""
    found = {}
    for mode, _, r_min in PROBES:
        rec = records[mode]
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
    for command in FEEDER_COMMANDS:
        found[" ".join(command)] = gridprobe(
            tree, *command, os.path.join(tree, DATA, "ieee37.csv"))[1]
    reduced = os.path.join(out, "reduced.csv")
    gridprobe(tree, "reduce", feeder, "--all-leaves", "--out", reduced)
    found["reduce --out"] = read(reduced)
    for trials, seed in SWEEPS:
        for mode, _, _ in PROBES:
            sweep = os.path.join(out, f"montecarlo-{mode}-{trials}-{seed}")
            stdout = gridprobe(
                tree, "montecarlo", "--config",
                os.path.join(tree, DATA, f"table_{mode}.yaml"),
                "--trials", str(trials), "--seed", str(seed),
                "--out", sweep)[1]
            name = f"montecarlo {mode} {trials} trials seed {seed}"
            found[f"{name}: results.json"] = read(
                os.path.join(sweep, "results.json"))
            found[f"{name}: stdout"] = stdout
    return found


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
        got = {}
        for tag, tree in trees.items():
            os.mkdir(os.path.join(work, tag))
            got[tag] = probe(tree, os.path.join(work, tag))
        # Both trees recover BASE's records, so the recover outputs are
        # compared even where the records differ.
        records = {mode: os.path.join(work, "base", f"probe-{mode}.rec")
                   for mode, _, _ in PROBES}
        for tag, tree in trees.items():
            got[tag].update(outputs(tree, os.path.join(work, tag), records,
                                    feeder))
    differ = [name for name in got["base"]
              if got["base"][name] != got["head"][name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(got['base'])} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
