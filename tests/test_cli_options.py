"""Every option of every command, set by its flag and by ``--config``, and
the exit code of every kind of bad flag, config or input file.

The list below is written out by hand rather than read from the CLI's option
table, so an option that the table drops or renames fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clvkit import cli, dataio

from conftest import baseline_from_rates, fixture_curve_rates

# (command, flag, value on the command line, the same value in JSON, a JSON
# value of the wrong type). A None command-line value is a flag without one.
OPTIONS = [
    ("baseline", "--calibration", "c.csv", "c.csv", 5),
    ("baseline", "--out", "b.json", "b.json", ["b.json"]),
    ("baseline", "--smoothing", "jeffreys", "jeffreys", 1),
    ("baseline", "--tail-start", "12", 12, "twelve"),
    ("baseline", "--auto-tail", None, True, "yes"),
    ("baseline", "--min-events", "8", 8, 8.5),
    ("baseline", "--competing", None, True, 1),
    ("score", "--baseline", "b.json", "b.json", True),
    ("score", "--scoring", "s.csv", "s.csv", {"path": "s.csv"}),
    ("score", "--out", "p.csv", "p.csv", 0),
    ("score", "--eps", "1e-5", 1e-5, "small"),
    ("score", "--max-horizon", "600", 600, 600.5),
    ("score", "--discount-annual", "0.12", 0.12, True),
    ("score", "--discount-monthly", "0.01", 0.01, [0.01]),
    ("score", "--competing", None, True, "true"),
    ("score", "--baseline-inv", "i.json", "i.json", 3),
    ("score", "--chunk-size", "7", 7, False),
    ("curve", "--baseline", "b.json", "b.json", 1.5),
    ("curve", "--alpha", "1.3", 1.3, "high"),
    ("curve", "--t0", "18", 18, 1.5),
    ("curve", "--horizon", "36", 36, "long"),
    ("curve", "--out", "c.csv", "c.csv", False),
    ("fit-odds", "--calibration", "c.csv", "c.csv", 7),
    ("fit-odds", "--baseline", "b.json", "b.json", ["b.json"]),
    ("fit-odds", "--out", "m.json", "m.json", 2),
    ("fit-odds", "--ridge", "0.5", 0.5, "none"),
    ("fit-odds", "--tol", "1e-6", 1e-6, True),
    ("fit-odds", "--max-iter", "20", 20, "twenty"),
    ("simulate", "--spec", "spec.json", "spec.json", 4),
    ("simulate", "--out-dir", "cohort", "cohort", ["cohort"]),
    ("simulate", "--seed", "8", 8, 8.5),
]

REQUIRED = {
    "baseline": ["--calibration", "--out"],
    "score": ["--baseline", "--scoring", "--out"],
    "curve": ["--baseline", "--alpha", "--t0", "--horizon", "--out"],
    "fit-odds": ["--calibration", "--baseline", "--out"],
    "simulate": ["--spec", "--out-dir"],
}


def _argv(flag, value):
    return [flag] if value is None else [flag, value]


def _other_required(command, flag):
    """Command-line values for every required option of ``command`` but ``flag``."""
    values = {f: value for c, f, value, _, _ in OPTIONS if c == command}
    return [arg for f in REQUIRED[command] if f != flag for arg in _argv(f, values[f])]


def _parsed(argv):
    return vars(cli._merge_config(cli._build_parser().parse_args(argv)))


def _config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command, flag, value, json_value, wrong", OPTIONS)
def test_config_value_parses_as_the_flag(tmp_path, command, flag, value, json_value, wrong):
    others = _other_required(command, flag)
    dest = flag[2:].replace("-", "_")
    by_flag = _parsed([command, *others, *_argv(flag, value)])
    by_config = _parsed([command, *others, "--config", _config(tmp_path, {dest: json_value})])
    assert by_config.pop("config") is not None and by_flag.pop("config") is None
    assert by_config == by_flag
    assert type(by_config[dest]) is type(by_flag[dest])
    if flag not in REQUIRED[command]:
        assert _parsed([command, *others])[dest] != by_flag[dest]


@pytest.mark.parametrize("command, flag, value, json_value, wrong", OPTIONS)
def test_mistyped_config_value_names_the_flag(tmp_path, capsys, command, flag, value,
                                              json_value, wrong):
    dest = flag[2:].replace("-", "_")
    code = cli.main([command, *_other_required(command, flag),
                     "--config", _config(tmp_path, {dest: wrong})])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err
    assert flag in err and repr(wrong) in err


def test_every_command_is_listed():
    assert set(REQUIRED) == {c for c, *_ in OPTIONS} == set(cli.COMMANDS)


# Every error ends with its documented exit code: 2 for a usage error (a bad
# flag, option value, config file or simulation spec), 1 for a data error (an
# input file that is missing or unreadable, a bad CSV or baseline document,
# an output path that cannot be written), never with a traceback. Each
# example runs one command with one fault, after moving some of its options
# into the config file and giving some of them twice.

# The options each command runs with: one of each exclusive pair, no
# competing mode, and every value from OPTIONS.
_RUNNING = {
    "baseline": ["--calibration", "--out", "--smoothing", "--auto-tail", "--min-events"],
    "score": ["--baseline", "--scoring", "--out", "--eps", "--max-horizon",
              "--discount-annual", "--chunk-size"],
    **{command: [f for c, f, *_ in OPTIONS if c == command]
       for command in ("curve", "fit-odds", "simulate")},
}
_OPTION = {(command, option.flag): option for command, (_, _, options) in cli.COMMANDS.items()
           for option in options}
_OUTPUTS = {"--out", "--out-dir"}
_USAGE_FILES = {"--config", "--spec"}  # JSON files whose content is a usage error
_CONTENT = {"not UTF-8": b'{"a": "\xff"}', "malformed JSON": b'{"eps": ',
            "nested JSON": b"[" * 200_000}

# Baseline document edits that are data errors: a key and the JSON text of
# its value (for a list, of its last entry).
_DOCUMENT_EDITS = [("tail_start", "1e999"), ("tail_start", str(2**63)), ("tail_start", "1.5"),
                   ("tail_start", "true"), ("min_events", "2.5"), ("min_events", "1e999"),
                   ("min_events", "-1"),
                   ("exposures", str(2**64)), ("events", "1e999"), ("exposures", "1.5"),
                   ("hazards", '"0.1"'), ("hazards", "true"), ("tail_rate", '"0.02"'),
                   ("smoothing", "1")]


def _faults():
    """Every (command, fault, flag, detail) the test draws from; a None fault is none."""
    faults = []
    for command, flags in _RUNNING.items():
        faults += [(command, kind, None, None) for kind in (None, "unknown flag", "unknown key")]
        for flag in flags:
            option = _OPTION[command, flag]
            kinds = ["retype"] + ["drop"] * option.required + ["below minimum"] * (
                option.minimum is not None)
            if option.kind is str:
                kinds += ["missing", "directory"] + [*_CONTENT] * (flag not in _OUTPUTS)
            faults += [(command, kind, flag, None) for kind in kinds]
        faults += [(command, kind, "--config", None) for kind in ["missing", "directory",
                                                                   *_CONTENT]]
        if "--baseline" in flags:
            faults += [(command, "document", "--baseline", edit) for edit in _DOCUMENT_EDITS]
    return faults


def _expected_code(kind, flag):
    if kind is None:
        return 0
    if kind in ("drop", "retype", "below minimum", "unknown flag", "unknown key"):
        return 2
    if kind in _CONTENT:
        return 2 if flag in _USAGE_FILES else 1
    return 1  # a missing path, a directory, a bad baseline document


def _inputs(tmp):
    """Write the files the commands read, under the names OPTIONS gives
    them; returns the baseline document."""
    rng = np.random.default_rng(3)
    n = 200
    tenure = rng.integers(0, 30, n)
    ids = tuple(f"c{i}" for i in range(n))
    dataio.write_calibration(tmp / "c.csv", dataio.CalibrationBatch(
        ids, tenure, (rng.random(n) < 0.2).astype(np.int64), None, rng.normal(size=(n, 1))))
    dataio.write_scoring(tmp / "s.csv", dataio.ScoringBatch(
        ids, tenure, rng.normal(10.0, 2.0, n), rng.random(n) / 10))
    baseline = {**baseline_from_rates(fixture_curve_rates(), tail_start=25).to_dict(),
                "min_events": 5}
    (tmp / "b.json").write_text(json.dumps(baseline), encoding="utf-8")
    (tmp / "spec.json").write_text(json.dumps({
        "baseline_shape": {"kind": "flat", "h": 0.1}, "alpha_dist": {"kind": "fixed", "a": 1.0},
        "n_customers": 50, "max_tenure": 19, "seed": 7, "margin": 10.0}), encoding="utf-8")
    (tmp / "dir").mkdir()
    return baseline


def _edited_document(baseline, key, text):
    if key in ("hazards", "exposures", "events"):
        text = "[" + ",".join([*map(str, baseline[key][:-1]), text]) + "]"
    return json.dumps({**baseline, key: "@"}).replace('"@"', text)


def _command_line(tmp, fault, moved, doubled):
    """The argv of a run with ``fault``; writes the config file it names."""
    command, kind, faulty, _ = fault
    values = {f: (value, json_value, wrong) for c, f, value, json_value, wrong in OPTIONS
              if c == command}
    argv, config = [command], {}
    for flag in _RUNNING[command]:
        value, json_value, wrong = values[flag]
        dest, path = flag[2:].replace("-", "_"), _OPTION[command, flag].kind is str
        if path:
            value = json_value = str(tmp / value)
        if flag == faulty:
            if kind == "drop":
                continue
            if kind == "retype":  # a path on the command line cannot be mistyped
                json_value = wrong
                if path:
                    config[dest] = wrong
                else:
                    value = "x"
            elif kind == "below minimum":
                value, json_value = "-1", -1
            elif kind == "missing":  # --out-dir makes a missing directory
                value = json_value = str(tmp / ("c.csv" if flag == "--out-dir" else "absent")
                                         / "file")
            elif kind == "directory":  # for --out-dir, a regular file
                value = json_value = str(tmp / ("c.csv" if flag == "--out-dir" else "dir"))
        if flag in moved:
            config[dest] = json_value
        if flag not in moved or flag in doubled:
            argv += _argv(flag, value) * (2 if flag in doubled else 1)
    if kind == "unknown flag":
        argv.append("--frobnicate")
    if kind == "unknown key":
        config["frobnicate"] = 1
    (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
    config_path = {"missing": tmp / "absent" / "file", "directory": tmp / "dir"}.get(
        kind if faulty == "--config" else None, tmp / "config.json")
    return argv + ["--config", str(config_path)]


_FLAGS = st.sets(st.sampled_from(sorted({f for _, f, *_ in OPTIONS})))


@settings(max_examples=250, deadline=None)
@given(fault=st.sampled_from(_faults()), moved=_FLAGS, doubled=_FLAGS)
@example(fault=("score", "not UTF-8", "--config", None), moved=set(), doubled=set())
@example(fault=("baseline", "nested JSON", "--config", None), moved=set(), doubled=set())
@example(fault=("simulate", "not UTF-8", "--spec", None), moved=set(), doubled=set())
@example(fault=("simulate", "nested JSON", "--spec", None), moved=set(), doubled=set())
@example(fault=("score", "nested JSON", "--baseline", None), moved=set(), doubled=set())
@example(fault=("fit-odds", "nested JSON", "--baseline", None), moved=set(), doubled=set())
@example(fault=("curve", "document", "--baseline", ("tail_start", "1e999")), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("exposures", str(2**64))), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("tail_start", "1.5")), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("tail_start", "true")), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("min_events", "2.5")), moved=set(),
         doubled=set())
@example(fault=("curve", "document", "--baseline", ("min_events", "-1")), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("hazards", '"0.1"')), moved=set(),
         doubled=set())
@example(fault=("curve", "document", "--baseline", ("hazards", "true")), moved=set(),
         doubled=set())
@example(fault=("fit-odds", "document", "--baseline", ("tail_rate", '"0.02"')), moved=set(),
         doubled=set())
@example(fault=("score", "document", "--baseline", ("smoothing", "1")), moved=set(),
         doubled=set())
@example(fault=("score", "directory", "--out", None), moved=set(), doubled=set())
@example(fault=("score", "retype", "--chunk-size", None), moved={"--chunk-size"},
         doubled={"--chunk-size"})
@example(fault=("curve", None, None, None), moved={"--baseline", "--alpha", "--out"},
         doubled={"--t0", "--out"})
def test_every_error_exits_with_its_code(fault, moved, doubled):
    command, kind, flag, edit = fault
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        baseline = _inputs(tmp)
        argv = _command_line(tmp, fault, moved, doubled)
        if kind in _CONTENT:
            name = "config.json" if flag == "--config" else next(
                value for c, f, value, *_ in OPTIONS if (c, f) == (command, flag))
            (tmp / name).write_bytes(_CONTENT[kind])
        if kind == "document":
            (tmp / "b.json").write_text(_edited_document(baseline, *edit), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code == _expected_code(kind, flag), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
