"""In-memory span tracer that times gridprobe stages from outside the package.

The traced run swaps module attributes for timing wrappers, so the
package source is untouched: `run_experiment` and `cli.main` look their
stage functions up in their own module namespaces at call time, and the
wrappers sit exactly there. Each span records its name, start, end,
parent span and trial id; spans stay in memory until `write` is called.

Span names are `<layer>.<stage>`, where the layer is the gridprobe module
that owns the stage. A stage that raises is counted as
`<stage>:<exception class>`; a comparison that returns a wrong topology
is counted as `compare:wrong_topology`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name). The experiments and cli entries are the
# names the two public entry points call; the fileio and probing entries
# are module attributes those callers resolve at call time; the package
# entries are the names the benchmark itself calls during set-up and
# output checks.
TARGETS = (
    ("gridprobe", "run_experiment", "experiments.run"),
    ("gridprobe.experiments", "simulate_probing", "probing.simulate"),
    ("gridprobe.experiments", "estimate_resistances", "probing.estimate"),
    ("gridprobe.experiments", "group_column_noisy", "grouping.group"),
    ("gridprobe.experiments", "assemble_families", "grouping.assemble"),
    ("gridprobe.experiments", "recover_full", "recovery.recover"),
    ("gridprobe.experiments", "recover_partial", "recovery.recover"),
    ("gridprobe.experiments", "compare_graphs", "recovery.compare"),
    ("gridprobe.experiments", "reduce_grid", "reduction.reduce"),
    ("gridprobe.cli", "main", "cli.main"),
    ("gridprobe.cli", "simulate_probing", "probing.simulate"),
    ("gridprobe.cli", "estimate_resistances", "probing.estimate"),
    ("gridprobe.cli", "group_column_noisy", "grouping.group"),
    ("gridprobe.cli", "assemble_families", "grouping.assemble"),
    ("gridprobe.cli", "recover_full", "recovery.recover"),
    ("gridprobe.cli", "recover_partial", "recovery.recover"),
    ("gridprobe.cli", "reduce_grid", "reduction.reduce"),
    ("gridprobe.fileio", "load_feeder", "fileio.load_feeder"),
    ("gridprobe.fileio", "load_record", "fileio.load_record"),
    ("gridprobe.fileio", "save_report", "fileio.save_report"),
    ("gridprobe.fileio", "save_record", "fileio.save_record"),
    ("gridprobe.probing", "resistance_matrix", "feeder.shared_path"),
    ("gridprobe.probing", "reactance_matrix", "feeder.shared_path"),
    ("gridprobe", "simulate_probing", "probing.simulate"),
    ("gridprobe", "resistance_matrix", "feeder.shared_path"),
    ("gridprobe", "reactance_matrix", "feeder.shared_path"),
    ("gridprobe", "reduce_grid", "reduction.reduce"),
    ("gridprobe", "compare_graphs", "recovery.compare"),
)


class Tracer:
    """Collects spans and stage failure counts while installed.

    `trial` is the id stamped on new spans. A workload either sets it
    itself or names a span (`trial_start`) whose opening starts the next
    trial.
    """

    def __init__(self, trial_start: str | None = None):
        self.trial_start = trial_start
        self.trial = -1
        self.spans: list[tuple] = []
        self.failures: Counter = Counter()
        self.entries = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter_ns()

    def _wrap(self, fn, name: str):
        stage = name.split(".", 1)[1]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if name == self.trial_start:
                self.trial += 1
            if name == "grouping.group" and args:
                self.entries += len(args[0])
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, at the innermost stage it left.
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.failures[f"{stage}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)
            if (name == "recovery.compare"
                    and not getattr(out, "topology_correct", True)):
                self.failures["compare:wrong_topology"] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target. A target that is gone raises AttributeError,
        so a renamed stage fails the run instead of reading 0."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total and self time in ns.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child[idx]
        return dict(out)

    def write(self, path) -> None:
        """Dump spans as JSON lines, times in ns from tracer creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name,
                                     "start_ns": start - self._t0,
                                     "end_ns": end - self._t0,
                                     "parent": parent, "trial": trial}))
                fh.write("\n")
