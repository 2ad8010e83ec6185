"""Command-line surface tying the pipeline together.

Commands: ``baseline`` estimates the hazard curve from a calibration CSV,
``score`` projects scoring records into alpha/ERT/CLV rows, ``curve`` emits
plot-ready data for one scaled curve, ``fit-odds`` fits the covariate odds
model, ``simulate`` generates synthetic cohorts with known truth.

Exit codes: 0 success, 1 validation or data error, 2 usage error. All
diagnostics go to standard error; data goes only to files. Each command
accepts ``--config FILE`` with JSON keys mirroring its long flags
(dashes as underscores); explicit flags override the file, unknown keys are
rejected. LOG_LEVEL (error|warn|info|debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataio, simulate
from .errors import ClvkitError, MissingColumn
from .odds import fit_odds_columns, save_model
from .pipeline import DEFAULT_CHUNK_SIZE, score_batches, score_batches_competing
from .projection import ProjectionConfig
from .survival import (
    BaselineHazard,
    PoolingConfig,
    detect_tail_start,
    estimate_cause_specific_from_batches,
    estimate_hazard_from_batches,
    extrapolate_tail,
    hazard_to_survival,
    load_baseline,
    lookup,
    resolve,
    save_baseline,
)
from .valuation import DiscountSpec, annual_to_monthly_rate

log = logging.getLogger("clvkit")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


# Per-command option defaults. None means "no value": either truly optional
# or required (listed in _REQUIRED) and checked after config merging.
_DEFAULTS: dict[str, dict] = {
    "baseline": {
        "calibration": None, "out": None, "smoothing": "none",
        "tail_start": None, "auto_tail": False, "min_events": None,
        "competing": False,
    },
    "score": {
        "baseline": None, "scoring": None, "out": None,
        "eps": 1e-6, "max_horizon": 1200,
        "discount_annual": None, "discount_monthly": None,
        "competing": False, "baseline_inv": None,
        "chunk_size": DEFAULT_CHUNK_SIZE,
    },
    "curve": {
        "baseline": None, "alpha": None, "t0": None, "horizon": None, "out": None,
    },
    "fit-odds": {
        "calibration": None, "baseline": None, "out": None,
        "ridge": 1e-6, "tol": 1e-8, "max_iter": 50,
    },
    "simulate": {
        "spec": None, "out_dir": None, "seed": None,
    },
}

_REQUIRED: dict[str, list[str]] = {
    "baseline": ["calibration", "out"],
    "score": ["baseline", "scoring", "out"],
    "curve": ["baseline", "alpha", "t0", "horizon", "out"],
    "fit-odds": ["calibration", "baseline", "out"],
    "simulate": ["spec", "out_dir"],
}


# Config-file values skip argparse, so _merge_config checks their JSON type:
# flags must be booleans, paths and names strings (numbers go through _number).
_JSON_TYPES = dict.fromkeys(["auto_tail", "competing"], bool) | dict.fromkeys(
    ["calibration", "out", "smoothing", "baseline", "scoring", "baseline_inv", "spec",
     "out_dir"], str)


def _configure_logging() -> None:
    raw = os.environ.get("LOG_LEVEL", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    defaults = _DEFAULTS[args.command]
    cfg: dict = {}
    if args.config is not None:
        doc = _read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise UsageError("config file must be a JSON object")
        unknown = set(doc) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in doc.items():
            kind = _JSON_TYPES.get(key)
            if kind is not None and value is not None and not isinstance(value, kind):
                noun = "true or false" if kind is bool else "a string"
                raise UsageError(f"--{key.replace('_', '-')} must be {noun}, got {value!r}")
        cfg = doc
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, cfg.get(dest, default))
    for dest in _REQUIRED[args.command]:
        if getattr(args, dest) is None:
            raise UsageError(f"missing required option --{dest.replace('_', '-')}")
    return args


def _read_json(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{what} {path} is not valid JSON: {exc}") from None


def _number(args: argparse.Namespace, dest: str, kind: type = float):
    """Option ``dest`` converted to a finite ``kind``; a bad value is a usage error.

    Config-file values bypass argparse's type conversion, so every numeric
    option goes through here.
    """
    value = getattr(args, dest)
    flag = "--" + dest.replace("_", "-")
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        number = kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"{flag} must be {noun}, got {value!r}") from None
    if not math.isfinite(number):
        raise UsageError(f"{flag} must be finite, got {value!r}")
    return number


def _suffixed(path: str, suffix: str) -> Path:
    p = Path(path)
    if p.suffix:
        return p.with_name(f"{p.stem}_{suffix}{p.suffix}")
    return Path(f"{p}_{suffix}")


def _with_tail(baseline: BaselineHazard, tail_start, auto_tail: bool) -> BaselineHazard:
    if tail_start is not None and auto_tail:
        raise UsageError("--tail-start and --auto-tail are mutually exclusive")
    if tail_start is None:
        tail_start = detect_tail_start(baseline)
        log.info("detected tail start at tenure %d", tail_start)
    try:
        return extrapolate_tail(baseline, tail_start)
    except ValueError as exc:
        raise UsageError(f"--tail-start: {exc}") from None


def _warn_sparse(baseline: BaselineHazard, min_events: int) -> None:
    below = int(np.sum(baseline.events[:baseline.tail_start] < min_events))
    if below:
        log.warning("%d tenure bins hold fewer than %d events; lookups there "
                    "will pool neighboring bins", below, min_events)


def run_baseline(args: argparse.Namespace) -> int:
    if args.smoothing not in ("none", "jeffreys"):
        raise UsageError(f"--smoothing must be none or jeffreys, got {args.smoothing!r}")
    if args.tail_start is not None:
        args.tail_start = _number(args, "tail_start", int)
    if args.min_events is not None:
        args.min_events = _number(args, "min_events", int)
        if args.min_events < 0:
            raise UsageError("--min-events must be >= 0")
    min_events = PoolingConfig().min_events if args.min_events is None else args.min_events
    mode = "competing" if args.competing else "single"
    batches = dataio.read_calibration_batches(args.calibration, mode)
    if args.competing:
        baseline_v, baseline_inv = estimate_cause_specific_from_batches(batches, args.smoothing)
        outputs = [(_suffixed(args.out, "v"), baseline_v),
                   (_suffixed(args.out, "inv"), baseline_inv)]
    else:
        outputs = [(Path(args.out), estimate_hazard_from_batches(batches, args.smoothing))]
    for path, baseline in outputs:
        baseline = _with_tail(baseline, args.tail_start, args.auto_tail)
        _warn_sparse(baseline, min_events)
        save_baseline(path, baseline, min_events=args.min_events)
        log.info("wrote baseline with %d tenure bins, tail rate %.6f from tenure %d: %s",
                 baseline.t_max + 1, baseline.tail_rate, baseline.tail_start, path)
    return 0


def _resolve_discount(args: argparse.Namespace) -> DiscountSpec:
    if args.discount_annual is not None and args.discount_monthly is not None:
        raise UsageError("--discount-annual and --discount-monthly are mutually exclusive")
    if args.discount_annual is not None:
        return DiscountSpec(annual_to_monthly_rate(_number(args, "discount_annual")))
    if args.discount_monthly is not None:
        return DiscountSpec(_number(args, "discount_monthly"))
    return DiscountSpec(0.0)


def run_score(args: argparse.Namespace) -> int:
    discount = _resolve_discount(args)
    eps = _number(args, "eps")
    max_horizon = _number(args, "max_horizon", int)
    try:
        config = ProjectionConfig(eps=eps, max_horizon=max_horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    chunk_size = _number(args, "chunk_size", int)
    if chunk_size < 1:
        raise UsageError("--chunk-size must be >= 1")
    if args.competing:
        if args.baseline_inv is None:
            raise UsageError("--competing requires --baseline-inv")
        loaded_v = load_baseline(args.baseline)
        loaded_i = load_baseline(args.baseline_inv)
        batches = dataio.read_scoring_batches(args.scoring, "competing", chunk_size)
        projections = score_batches_competing(
            batches, loaded_v.baseline, loaded_i.baseline,
            config=config, discount=discount,
            pooling_v=loaded_v.pooling, pooling_inv=loaded_i.pooling)
    else:
        loaded = load_baseline(args.baseline)
        batches = dataio.read_scoring_batches(args.scoring, "single", chunk_size)
        projections = score_batches(batches, loaded.baseline, config=config,
                                    discount=discount, pooling=loaded.pooling)
    count = dataio.write_projection_batches(args.out, projections)
    log.info("scored %d customers: %s", count, args.out)
    return 0


def run_curve(args: argparse.Namespace) -> int:
    alpha = _number(args, "alpha")
    t0 = _number(args, "t0", int)
    horizon = _number(args, "horizon", int)
    if alpha < 0:
        raise UsageError("--alpha must be >= 0")
    if t0 < 0:
        raise UsageError("--t0 must be >= 0")
    if horizon < 1:
        raise UsageError("--horizon must be >= 1")
    loaded = load_baseline(args.baseline)
    tenures = t0 + np.arange(horizon)
    base = lookup(resolve(loaded.baseline, loaded.pooling), tenures)
    scaled = np.minimum(1.0, alpha * base)
    survival = hazard_to_survival(scaled)
    # Full-precision floats: this file feeds plots and numeric checks, so it
    # must round-trip the computed values exactly.
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("tenure,baseline_hazard,scaled_hazard,survival\n")
        for t, b, h, s in zip(tenures.tolist(), base.tolist(), scaled.tolist(),
                              survival.tolist()):
            fh.write(f"{t},{b!r},{h!r},{s!r}\n")
    log.info("wrote curve for alpha %.6f from tenure %d over %d months: %s",
             alpha, t0, horizon, args.out)
    return 0


def _stack(parts: list[np.ndarray], empty_shape: tuple[int, ...]) -> np.ndarray:
    """Batch columns joined into one C-contiguous array (rows first)."""
    return np.concatenate(parts) if parts else np.empty(empty_shape)


def run_fit_odds(args: argparse.Namespace) -> int:
    ridge = _number(args, "ridge")
    tol = _number(args, "tol")
    max_iter = _number(args, "max_iter", int)
    if ridge < 0.0:
        raise UsageError("--ridge must be >= 0")
    if max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    loaded = load_baseline(args.baseline)
    tenure, churned, covariates = [], [], []
    for batch in dataio.read_calibration_batches(args.calibration, "single"):
        if batch.covariates is None:
            raise MissingColumn("x1")
        tenure.append(batch.tenure)
        churned.append(batch.churned)
        covariates.append(batch.covariates)
    rows = sum(map(len, tenure))
    model = fit_odds_columns(_stack(tenure, (0,)), _stack(churned, (0,)),
                             _stack(covariates, (0, 0)), loaded.baseline, ridge=ridge,
                             tol=tol, max_iter=max_iter, pooling=loaded.pooling)
    save_model(args.out, model)
    log.info("fit %d coefficients on %d rows in %d iterations "
             "(converged=%s, log-likelihood %.4f): %s",
             model.beta.size, rows, model.iterations, model.converged,
             model.log_likelihood, args.out)
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    doc = _read_json(args.spec, "simulation spec")
    if args.seed is not None:
        if not isinstance(doc, dict):
            raise UsageError("simulation spec must be a JSON object")
        doc["seed"] = _number(args, "seed", int)
    try:
        spec = simulate.simspec_from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad simulation spec: {exc}") from None
    cohort = simulate.generate_cohort(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "competing" if spec.competing is not None else "single"
    dataio.write_calibration(out_dir / "calibration.csv", cohort.calibration_batch, mode)
    dataio.write_scoring(out_dir / "scoring.csv", cohort.scoring_batch, mode)
    simulate.write_truth(out_dir / "truth.csv", cohort.truth_batch)
    if cohort.clipped_hazards:
        log.warning("%d simulated hazards or score pairs exceeded 1 and were clipped",
                    cohort.clipped_hazards)
    log.info("simulated %d customers into %s", spec.n_customers, out_dir)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clvkit",
        description="Customer survival, expected remaining tenure, and "
                    "lifetime value from a baseline hazard curve and churn scores.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("baseline", help="estimate the baseline hazard curve")
    p.add_argument("--calibration", help="calibration CSV path")
    p.add_argument("--out", help="output baseline JSON path")
    p.add_argument("--smoothing", choices=["none", "jeffreys"])
    p.add_argument("--tail-start", dest="tail_start", type=int,
                   help="fix the tail start tenure explicitly")
    p.add_argument("--auto-tail", dest="auto_tail", action="store_const", const=True,
                   help="detect the tail start automatically (the default)")
    p.add_argument("--min-events", dest="min_events", type=int,
                   help="pooling threshold stored with the baseline (default 5)")
    p.add_argument("--competing", action="store_const", const=True,
                   help="cause-specific mode; writes _v and _inv baselines")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(func=run_baseline)

    p = sub.add_parser("score", help="project scoring records into alpha/ERT/CLV")
    p.add_argument("--baseline", help="baseline JSON path")
    p.add_argument("--scoring", help="scoring CSV path")
    p.add_argument("--out", help="output projections CSV path")
    p.add_argument("--eps", type=float, help="survival truncation threshold")
    p.add_argument("--max-horizon", dest="max_horizon", type=int,
                   help="hard cap on projected months")
    p.add_argument("--discount-annual", dest="discount_annual", type=float)
    p.add_argument("--discount-monthly", dest="discount_monthly", type=float)
    p.add_argument("--competing", action="store_const", const=True)
    p.add_argument("--baseline-inv", dest="baseline_inv",
                   help="involuntary baseline JSON (competing mode)")
    p.add_argument("--chunk-size", dest="chunk_size", type=int,
                   help="customers scored per batch (1 = sequential)")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(func=run_score)

    p = sub.add_parser("curve", help="emit one scaled hazard curve as plot data")
    p.add_argument("--baseline", help="baseline JSON path")
    p.add_argument("--alpha", type=float, help="scaling coefficient")
    p.add_argument("--t0", type=int, help="current tenure to project from")
    p.add_argument("--horizon", type=int, help="months to emit")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(func=run_curve)

    p = sub.add_parser("fit-odds", help="fit the covariate hazard-odds model")
    p.add_argument("--calibration", help="calibration CSV with covariate columns x1..xm")
    p.add_argument("--baseline", help="baseline JSON path (offset source)")
    p.add_argument("--out", help="output model JSON path")
    p.add_argument("--ridge", type=float, help="ridge penalty (default 1e-6)")
    p.add_argument("--tol", type=float, help="convergence tolerance (default 1e-8)")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap (default 50)")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(func=run_fit_odds)

    p = sub.add_parser("simulate", help="generate a synthetic cohort with known truth")
    p.add_argument("--spec", help="simulation spec JSON path")
    p.add_argument("--out-dir", dest="out_dir", help="directory for the output files")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--config", help="JSON config file mirroring these flags")
    p.set_defaults(func=run_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _merge_config(args)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ClvkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
