"""Fuzzed readers: every file either loads or fails with a GridProbeError.

The feeder, record and config readers get arbitrary text, arbitrary bytes
and near-valid files (a valid file with fields, header keys or lines
swapped for odd tokens, or with a stray byte that is not UTF-8). Each must
return or raise a GridProbeError; the command line on the same files must
exit 0 or 1 and never raise.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gridprobe import (GridProbeError, NoiseModel, ProbingPlan, build_feeder,
                       cli, fileio, simulate_probing)

FUZZ = settings(max_examples=200, deadline=None, database=None)

FEEDER_TEXT = ("from,to,r_pu,x_pu\n0,1,1.0,1.0\n1,2,2.0,1.0\n1,3,3.0,\n")

CONFIG = {"feeder": "y.csv", "mode": "complete", "probing": "all-buses",
          "periods": [3], "r_min": 0.5, "trials": 2, "seed": 11,
          "noise": {"sigma_w": 1e-4},
          "delta": {"policy": "fixed", "value_pu": 0.1}}

tokens = st.sampled_from(["", "0", "1", "-1", "2.5", "1e999", "-1e999",
                          "nan", "inf", "-inf", "1e-320", "x", "0x10",
                          "99999999999999999999999", " ", ",", "#"])
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10)


def record_text(mode, general):
    g = build_feeder([(0, 1, 1.0, 1.0), (1, 2, 2.0, 1.0), (1, 3, 3.0, 1.0)])
    if general:
        plan = ProbingPlan.general([1, 2, 3], np.eye(3) * 0.1)
    else:
        plan = ProbingPlan.blocks([1, 2, 3], [0.1, 0.2, 0.3], 2)
    record = simulate_probing(g, plan, NoiseModel(sigma_w=1e-4, seed=3),
                              mode=mode)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probe.rec")
        fileio.save_record(record, path)
        with open(path, encoding="utf-8") as fh:
            return fh.read()


RECORDS = [record_text(mode, general) for mode in ("complete", "partial")
           for general in (False, True)]


@st.composite
def near_valid_lines(draw, text):
    """Swap some comma-separated fields for tokens and drop or repeat a
    line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(tokens)
        lines[i] = ",".join(fields)
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def near_valid_records(draw):
    text = draw(st.sampled_from(RECORDS))
    head, _, body = text.partition("\n")
    header = json.loads(head)
    keys = st.sampled_from(sorted(header) + ["extra"])
    for key in draw(st.lists(keys, max_size=3)):
        header[key] = draw(json_values)
    for key in draw(st.lists(st.sampled_from(sorted(header)), max_size=1)):
        del header[key]
    body = draw(near_valid_lines(body)) if draw(st.booleans()) else body
    return json.dumps(header) + "\n" + body


@st.composite
def near_valid_configs(draw):
    raw = json.loads(json.dumps(CONFIG))
    keys = st.sampled_from(sorted(raw))
    for key in draw(st.lists(keys, max_size=2)):
        raw[key] = draw(json_values)
    return draw(near_valid_lines(yaml.safe_dump(raw)))


@st.composite
def stray_byte(draw, text):
    """A valid file with byte 0xff dropped into one of its data rows."""
    lines = text.encode().splitlines(keepends=True)
    i = draw(st.integers(1, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    lines[i] = lines[i][:j] + b"\xff" + lines[i][j:]
    return b"".join(lines)


def write(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


def loads_or_typed_error(reader, path):
    try:
        reader(path)
    except GridProbeError:
        pass


def exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (code, err.getvalue())
    if code == 1:
        assert "error" in json.loads(err.getvalue())


@FUZZ
@given(st.one_of(texts, st.binary(), near_valid_lines(FEEDER_TEXT),
                 stray_byte(FEEDER_TEXT)))
def test_feeder_reader_and_validate(tmp_path_factory, data):
    path = write(tmp_path_factory, "feeder.csv", data)
    loads_or_typed_error(fileio.load_feeder, path)
    exits_cleanly(["validate", path])


@FUZZ
@given(st.one_of(texts, st.binary(), near_valid_records(),
                 st.sampled_from(RECORDS).flatmap(stray_byte)))
def test_record_reader_and_recover(tmp_path_factory, data):
    path = write(tmp_path_factory, "probe.rec", data)
    loads_or_typed_error(fileio.load_record, path)
    exits_cleanly(["recover", path])
    exits_cleanly(["recover", path, "--r-min", "0.5"])


@FUZZ
@given(st.one_of(texts, st.binary(), near_valid_configs(),
                 stray_byte(yaml.safe_dump(CONFIG))))
def test_config_reader(tmp_path_factory, data):
    path = write(tmp_path_factory, "cfg.yaml", data)
    loads_or_typed_error(fileio.load_config, path)
