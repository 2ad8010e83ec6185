"""Every option of every command, set by its flag and by ``--config``.

The list below is written out by hand rather than read from the CLI's option
table, so an option that the table drops or renames fails here.
"""

from __future__ import annotations

import json

import pytest

from clvkit import cli

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
