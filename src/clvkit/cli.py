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
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Sequence

# Before numpy loads: OpenBLAS otherwise starts a second thread at import,
# which cost about 65 ms of every command's start on a 2-core host (import
# numpy 165 ms against 100 ms), and the odds fit on a 100k x 8 design took
# about 0.2 s on two threads against 0.07 s on one. Every command is one
# Python thread on narrow arrays, so one BLAS thread loses nothing; a value
# the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only what every command uses loads here (dataio loads numpy); each runner
# imports the rest.
from . import dataio  # noqa: E402
from .errors import ClvkitError, MissingColumn  # noqa: E402
from .survival import (  # noqa: E402
    BaselineHazard,
    detect_tail_start,
    estimate_causes,
    extrapolate_tail,
    hazard_to_survival,
    load_baseline,
    pooling_windows,
    save_baseline,
)

log = logging.getLogger("clvkit")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

class UsageError(Exception):
    """Bad flag/config combination; maps to exit code 2."""


class Option(NamedTuple):
    """One option of a command: its flag, whose config key is the flag's name
    with dashes as underscores, and the values it takes.

    ``kind`` is str (a path), bool (a flag that sets True), int, float or a
    tuple of the allowed strings. A number must be finite and at least
    ``minimum``. A required option has no default and must be set by its
    flag or the config file.
    """

    flag: str
    kind: object = str
    default: object = None
    required: bool = False
    minimum: int | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _configure_logging() -> None:
    raw = os.environ.get("LOG_LEVEL", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _checked(option: Option, value):
    """``value`` of ``option``, from its flag or the config file; a bad one is a usage error."""
    if option.kind in (int, float):
        try:
            value = dataio.json_number(value, option.flag, option.kind)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if option.minimum is not None and value < option.minimum:
            raise UsageError(f"{option.flag} must be >= {option.minimum}")
        return value
    if isinstance(option.kind, tuple):
        valid, noun = value in option.kind, " or ".join(option.kind)
    elif option.kind is bool:
        valid, noun = isinstance(value, bool), "true or false"
    else:
        valid, noun = isinstance(value, str), "a string"
    if not valid:
        raise UsageError(f"{option.flag} must be {noun}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Set each option from its flag, else the config file, else its default.

    Every value given by a flag or the config file is checked, and a JSON
    null counts as not given.
    """
    _, _, options = COMMANDS[args.command]
    options = {option.dest: option for option in options}
    cfg: dict = {}
    if args.config is not None:
        doc = _read_json(args.config, "config file")
        if not isinstance(doc, dict):
            raise UsageError("config file must be a JSON object")
        unknown = set(doc) - set(options)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg = {key: _checked(options[key], value) for key, value in doc.items()
               if value is not None}
    for dest, option in options.items():
        value = getattr(args, dest)
        value = cfg.get(dest, option.default) if value is None else _checked(option, value)
        if value is None and option.required:
            raise UsageError(f"missing required option {option.flag}")
        setattr(args, dest, value)
    return args


def _read_json(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; RecursionError
        # is a document nested too deep to parse.
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{what} {path} is not valid JSON: {exc}") from None


def _suffixed(path: str, suffix: str) -> Path:
    p = Path(path)
    if p.suffix:
        return p.with_name(f"{p.stem}_{suffix}{p.suffix}")
    return Path(f"{p}_{suffix}")


def _with_tail(baseline: BaselineHazard, tail_start, path: Path) -> BaselineHazard:
    if tail_start is None:
        tail_start = detect_tail_start(baseline, name=str(path))
        log.info("detected tail start at tenure %d", tail_start)
    try:
        return extrapolate_tail(baseline, tail_start)
    except ValueError as exc:
        raise UsageError(f"--tail-start: {exc}") from None


def _warn_sparse(baseline: BaselineHazard) -> None:
    _, _, pooled = pooling_windows(baseline)
    if pooled.any():
        log.warning("%d tenure bins hold fewer than %d events or no exposure; lookups "
                    "there will pool neighboring bins", int(pooled.sum()),
                    baseline.pooling_threshold)


def run_baseline(args: argparse.Namespace) -> int:
    if args.tail_start is not None and args.auto_tail:
        raise UsageError("--tail-start and --auto-tail are mutually exclusive")
    if args.competing:
        mode, causes = "competing", dataio.CAUSES
        paths = [_suffixed(args.out, "v"), _suffixed(args.out, "inv")]
    else:
        mode, causes, paths = "single", (), [Path(args.out)]
    batches = dataio.read_calibration_batches(args.calibration, mode)
    for path, baseline in zip(paths, estimate_causes(batches, causes, args.smoothing)):
        baseline = replace(_with_tail(baseline, args.tail_start, path),
                           min_events=args.min_events)
        _warn_sparse(baseline)
        save_baseline(path, baseline)
        log.info("wrote baseline with %d tenure bins, tail rate %.6f from tenure %d: %s",
                 baseline.t_max + 1, baseline.tail_rate, baseline.tail_start, path)
    return 0


def _resolve_discount(args: argparse.Namespace):
    from .valuation import DiscountSpec, annual_to_monthly_rate

    if args.discount_annual is not None and args.discount_monthly is not None:
        raise UsageError("--discount-annual and --discount-monthly are mutually exclusive")
    if args.discount_annual is not None:
        return DiscountSpec(annual_to_monthly_rate(args.discount_annual))
    if args.discount_monthly is not None:
        return DiscountSpec(args.discount_monthly)
    return DiscountSpec(0.0)


def run_score(args: argparse.Namespace) -> int:
    from .pipeline import score_causes
    from .projection import ProjectionConfig

    discount = _resolve_discount(args)
    try:
        config = ProjectionConfig(eps=args.eps, max_horizon=args.max_horizon)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.competing:
        if args.baseline_inv is None:
            raise UsageError("--competing requires --baseline-inv")
        mode, paths = "competing", [args.baseline, args.baseline_inv]
    else:
        mode, paths = "single", [args.baseline]
    causes = list(zip(dataio.score_columns(mode), map(load_baseline, paths)))
    batches = dataio.read_scoring_batches(args.scoring, mode, args.chunk_size)
    count = dataio.write_projection_batches(
        args.out, score_causes(batches, causes, config=config, discount=discount))
    log.info("scored %d customers: %s", count, args.out)
    return 0


def run_curve(args: argparse.Namespace) -> int:
    from .projection import project_hazard

    baseline = load_baseline(args.baseline)
    base, scaled = (project_hazard(alpha, baseline, args.t0, args.horizon)
                    for alpha in (1.0, args.alpha))
    survival = hazard_to_survival(scaled)
    # Full-precision floats: this file feeds plots and numeric checks, so it
    # must round-trip the computed values exactly.
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("tenure,baseline_hazard,scaled_hazard,survival\n")
        for t, b, h, s in zip(range(args.t0, args.t0 + args.horizon), base.tolist(),
                              scaled.tolist(), survival.tolist()):
            fh.write(f"{t},{b!r},{h!r},{s!r}\n")
    log.info("wrote curve for alpha %.6f from tenure %d over %d months: %s",
             args.alpha, args.t0, args.horizon, args.out)
    return 0


def run_fit_odds(args: argparse.Namespace) -> int:
    from .odds import fit_odds_batches, save_model

    baseline = load_baseline(args.baseline)
    rows = 0

    def batches():
        nonlocal rows
        for batch in dataio.read_calibration_batches(args.calibration, "single"):
            if batch.covariates is None:
                raise MissingColumn("x1")
            rows += len(batch.tenure)
            yield batch.tenure, batch.churned, batch.covariates

    model = fit_odds_batches(batches(), baseline, ridge=args.ridge, tol=args.tol,
                             max_iter=args.max_iter)
    if not model.converged:
        log.warning("fit did not converge in %d iterations (--max-iter %d); the "
                    "coefficients are not a maximum of the likelihood",
                    model.iterations, args.max_iter)
    save_model(args.out, model)
    log.info("fit %d coefficients on %d rows in %d iterations "
             "(converged=%s, log-likelihood %.4f): %s",
             model.beta.size, rows, model.iterations, model.converged,
             model.log_likelihood, args.out)
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    from . import simulate

    doc = _read_json(args.spec, "simulation spec")
    if args.seed is not None:
        if not isinstance(doc, dict):
            raise UsageError("simulation spec must be a JSON object")
        doc["seed"] = args.seed
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
        log.warning("%d simulated customers were clipped: a hazard or noisy score above 1",
                    cohort.clipped_hazards)
    log.info("simulated %d customers into %s", spec.n_customers, out_dir)
    return 0


# Each command's runner, help line and options, in the order --help lists them.
COMMANDS: dict[str, tuple] = {
    "baseline": (run_baseline, "estimate the baseline hazard curve", [
        Option("--calibration", required=True, help="calibration CSV path"),
        Option("--out", required=True, help="output baseline JSON path"),
        Option("--smoothing", ("none", "jeffreys"), "none"),
        Option("--tail-start", int, help="fix the tail start tenure explicitly"),
        Option("--auto-tail", bool, False,
               help="detect the tail start automatically (the default)"),
        Option("--min-events", int, minimum=0,
               help="pooling threshold stored with the baseline (default 5)"),
        Option("--competing", bool, False,
               help="cause-specific mode; writes _v and _inv baselines"),
    ]),
    "score": (run_score, "project scoring records into alpha/ERT/CLV", [
        Option("--baseline", required=True, help="baseline JSON path"),
        Option("--scoring", required=True, help="scoring CSV path"),
        Option("--out", required=True, help="output projections CSV path"),
        Option("--eps", float, 1e-6, help="survival truncation threshold"),
        Option("--max-horizon", int, 1200, help="hard cap on projected months"),
        Option("--discount-annual", float, minimum=0),
        Option("--discount-monthly", float, minimum=0),
        Option("--competing", bool, False),
        Option("--baseline-inv", help="involuntary baseline JSON (competing mode)"),
        Option("--chunk-size", int, dataio.SCORING_BATCH_SIZE, minimum=1,
               help="customers scored per batch (1 = sequential); a batch of 2048 or "
                    "more is read and tokenized at once, so read memory grows with it"),
    ]),
    "curve": (run_curve, "emit one scaled hazard curve as plot data", [
        Option("--baseline", required=True, help="baseline JSON path"),
        Option("--alpha", float, required=True, minimum=0, help="scaling coefficient"),
        Option("--t0", int, required=True, minimum=0, help="current tenure to project from"),
        Option("--horizon", int, required=True, minimum=1, help="months to emit"),
        Option("--out", required=True, help="output CSV path"),
    ]),
    "fit-odds": (run_fit_odds, "fit the covariate hazard-odds model", [
        Option("--calibration", required=True,
               help="calibration CSV with covariate columns x1..xm"),
        Option("--baseline", required=True, help="baseline JSON path (offset source)"),
        Option("--out", required=True, help="output model JSON path"),
        Option("--ridge", float, 1e-6, minimum=0, help="ridge penalty (default 1e-6)"),
        Option("--tol", float, 1e-8, help="convergence tolerance (default 1e-8)"),
        Option("--max-iter", int, 50, minimum=1, help="iteration cap (default 50)"),
    ]),
    "simulate": (run_simulate, "generate a synthetic cohort with known truth", [
        Option("--spec", required=True, help="simulation spec JSON path"),
        Option("--out-dir", required=True, help="directory for the output files"),
        Option("--seed", int, help="override the spec's seed"),
    ]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clvkit",
        description="Customer survival, expected remaining tenure, and "
                    "lifetime value from a baseline hazard curve and churn scores.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for option in options:
            if option.kind is bool:
                p.add_argument(option.flag, action="store_const", const=True, help=option.help)
            else:
                p.add_argument(option.flag, help=option.help,
                               type=option.kind if option.kind in (int, float) else None,
                               choices=option.kind if isinstance(option.kind, tuple) else None)
        p.add_argument("--config", help="JSON config file mirroring these flags")
        p.set_defaults(func=run)
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
