"""File formats: feeder edge lists, probing records, recovery reports.

Feeder files are plain CSV with a fixed header and optional '#' comments:

    from,to,r_pu,x_pu
    0,1,0.0015,0.0030
    1,2,0.0815,0.0547

An empty x field marks a line with unknown reactance. A probing record is
one JSON header line followed by one CSV row of measurements per metered
bus; recovery reports are JSON. Floats survive the round trip exactly
because Python serializes them at full precision. The reader parses a
record's data block in one numpy pass; a block that pass rejects is read
again line by line, so every error still names its line.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from typing import Mapping

import numpy as np
import yaml

from .errors import (ConfigError, FeederFormatError, as_buses, as_float,
                     as_instance, as_int, as_path)
from .feeder import FeederGraph, build_feeder
from .probing import ProbingPlan, ProbingRecord
from .recovery import RecoveryReport
from .reduction import ReducedGrid

FEEDER_HEADER = "from,to,r_pu,x_pu"


@contextlib.contextmanager
def _read_text(path, error: type[Exception]):
    """Open a file as UTF-8 text; a path the path rule rejects raises
    ConfigError, bytes that do not decode raise `error`."""
    as_path(path, ConfigError, "path")
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _write_text(path, newline: str | None = None):
    """Open a file for writing as UTF-8 text; a path the path rule
    rejects raises ConfigError."""
    return open(as_path(path, ConfigError, "path"), "w", encoding="utf-8",
                newline=newline)


def load_feeder(path: str | os.PathLike) -> FeederGraph:
    """Parse a feeder CSV file into a validated tree."""
    edges = []
    saw_header = False
    with _read_text(path, FeederFormatError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                if line.replace(" ", "") != FEEDER_HEADER:
                    raise FeederFormatError(
                        f"{path}: line {lineno}: expected header "
                        f"{FEEDER_HEADER!r}, got {line!r}")
                saw_header = True
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) not in (3, 4):
                raise FeederFormatError(
                    f"{path}: line {lineno}: expected 3 or 4 fields, "
                    f"got {len(fields)}")
            try:
                u, v = int(fields[0]), int(fields[1])
                r = float(fields[2])
                x = None
                if len(fields) == 4 and fields[3] != "":
                    x = float(fields[3])
            except ValueError as exc:
                raise FeederFormatError(
                    f"{path}: line {lineno}: {exc}") from None
            edges.append((u, v, r, x))
    if not saw_header:
        raise FeederFormatError(f"{path}: missing header line")
    if not edges:
        raise FeederFormatError(f"{path}: no edges")
    return build_feeder(edges)


def save_feeder(g: FeederGraph, path: str | os.PathLike,
                comment: str | None = None) -> None:
    """Write a tree (or reduced grid) in the feeder CSV format."""
    as_instance(g, FeederGraph, ConfigError, "feeder")
    with _write_text(path) as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        if isinstance(g, ReducedGrid):
            fh.write(f"# reduced grid, root {g.root}, "
                     f"upstream resistance {g.root_upstream_r!r}\n")
        fh.write(FEEDER_HEADER + "\n")
        for u, v, r, *_ in g.edges:
            x = g.line_x(u, v)
            xs = "" if x is None else repr(x)
            fh.write(f"{u},{v},{r!r},{xs}\n")


def save_record(record: ProbingRecord, path: str | os.PathLike) -> None:
    """Write a probing record: one JSON header line, then CSV matrix rows."""
    plan = as_instance(record, ProbingRecord, ConfigError, "record").plan
    header = {
        "kind": "probing-record",
        "mode": record.mode,
        "row_nodes": list(record.row_nodes),
        "buses": list(plan.buses),
        "delta": list(plan.delta) if plan.delta is not None else None,
        "periods": list(plan.periods) if plan.periods is not None else None,
        "matrix": None if plan.matrix is None else plan.matrix.tolist(),
        "seed": record.seed,
    }
    with _write_text(path) as fh:
        json.dump(header, fh)
        fh.write("\n")
        for row in record.values:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def _parse_block(fh) -> np.ndarray | None:
    """The rest of an open record as one array, or None for the loop to read.

    `np.loadtxt` accepts a subset of what `float()` accepts and gives the
    same doubles, so a finite, non-empty result is the loop's result. An
    empty block, a non-finite value and every parse or decode error are
    left to `_read_rows`, whose errors name the line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data"
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if not values.size or not np.isfinite(values).all():
        return None
    return values


def _read_rows(path: str | os.PathLike) -> np.ndarray:
    """Read a record's data block line by line; errors name the line."""
    with _read_text(path, FeederFormatError) as fh:
        fh.readline()
        rows, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(v) for v in line.split(",")]
            except ValueError as exc:
                raise FeederFormatError(
                    f"{path}: line {lineno}: {exc}") from None
            if rows and len(row) != len(rows[0]):
                raise FeederFormatError(
                    f"{path}: line {lineno}: expected {len(rows[0])} "
                    f"values, got {len(row)}")
            rows.append(row)
            linenos.append(lineno)
    values = np.asarray(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        lineno = linenos[int(np.argmin(finite.all(axis=1)))]
        raise FeederFormatError(
            f"{path}: line {lineno}: measurement values must be finite")
    return values


def load_record(path: str | os.PathLike) -> ProbingRecord:
    """Read a probing record written by `save_record`."""
    with _read_text(path, FeederFormatError) as fh:
        first = fh.readline()
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise FeederFormatError(
                f"{path}: line 1: not a JSON header: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != "probing-record":
            raise FeederFormatError(f"{path}: not a probing record")
        values = _parse_block(fh)
    if values is None:
        values = _read_rows(path)
    try:
        buses = as_buses(header["buses"], FeederFormatError, f"{path}: buses")
        # Numbers are converted here, so a bad one is a format error.
        if header["matrix"] is not None:
            plan = ProbingPlan.general(
                buses, np.array(header["matrix"], dtype=float))
        else:
            delta, periods = header["delta"], header["periods"]
            if len(delta) != len(buses) or len(periods) != len(buses):
                raise FeederFormatError(
                    f"{path}: delta/periods must align with buses")
            plan = ProbingPlan.blocks(
                buses, [as_float(d, FeederFormatError,
                                 f"{path}: probing magnitude") for d in delta],
                [as_int(t, FeederFormatError, f"{path}: period count")
                 for t in periods])
        return ProbingRecord(mode=header["mode"],
                             row_nodes=tuple(header["row_nodes"]),
                             values=values,
                             plan=plan,
                             seed=header.get("seed"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FeederFormatError(f"{path}: malformed record: {exc}") from None


def save_report(report: RecoveryReport, out_dir: str | os.PathLike) -> None:
    """Write recovered edges as a feeder CSV plus a JSON summary."""
    as_instance(report, RecoveryReport, ConfigError, "report")
    os.makedirs(as_path(out_dir, ConfigError, "out_dir"), exist_ok=True)
    save_feeder(report.graph, os.path.join(out_dir, "recovered.csv"),
                comment=f"recovered from {report.mode} probing data")
    meta: dict = {
        "mode": report.mode,
        "probing": sorted(report.probing),
        "line_support": {f"{u}-{v}": n
                         for (u, v), n in sorted(report.line_support.items())},
    }
    if isinstance(report.graph, ReducedGrid):
        meta["root"] = report.graph.root
        meta["internal_nodes"] = sorted(report.graph.internal)
        meta["root_upstream_r"] = report.graph.root_upstream_r
    with _write_text(os.path.join(out_dir, "report.json")) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str | os.PathLike) -> dict:
    """Read a YAML experiment config into a plain dict."""
    try:
        with _read_text(path, ConfigError) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{path}: config must be a mapping")
    return dict(raw)
