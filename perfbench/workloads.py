"""The four benchmark workloads: seeded inputs, CLI invocations, output checks.

Each workload is a fixed sequence of ``clvkit`` commands run one after
another on inputs generated from the seed. Sizes are the full-scale row
counts; ``scale`` shrinks them for the smoke test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import reference

# Customers the CLI scores per batch when --chunk-size is not given.
CLI_CHUNK_SIZE = 8192
# Rows of each output that are recomputed by the reference per invocation.
SAMPLE_ROWS = 40


@dataclass
class Command:
    """One CLI invocation and how to judge its output."""

    name: str
    argv: list[str]
    rows_read: int
    rows_written: int
    throughput_rows: int  # rows (or customers) the command's throughput counts
    check: Callable[[], str | None]


@dataclass
class Workload:
    commands: list[Command]
    main: str  # the command whose throughput is the workload's main_rows_per_s
    counts: Callable[[], dict[str, float]] = field(default=lambda: {})


def _sample(rng: np.random.Generator, n: int, extra: list[int] = ()) -> np.ndarray:
    picked = rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False)
    return np.unique(np.concatenate([picked, np.asarray(extra, dtype=np.int64)]))


def _baseline_command(work: Path, cal: gen.Calibration, extra: list[str],
                      outputs: list[str]) -> Command:
    def check() -> str | None:
        for name in outputs:
            if cal.cause is None:
                churned = cal.churned
            else:
                churned = cal.churned * (cal.cause == ("V" if name.endswith("_v.json") else "I"))
            problem = reference.check_baseline(work / name, cal.tenure, churned)
            if problem:
                return problem
        return None

    n = cal.tenure.size
    return Command("baseline", ["baseline", "--calibration", str(work / "calibration.csv"),
                                "--out", str(work / "baseline.json"), *extra],
                   n, 0, n, check)


def _score_workload(work: Path, rng: np.random.Generator, cal: gen.Calibration,
                    scoring: gen.Scoring, competing: bool, annual_discount: float
                    ) -> Workload:
    names = ["baseline_v.json", "baseline_inv.json"] if competing else ["baseline.json"]
    baseline_flags = ["--competing", "--auto-tail"] if competing else ["--auto-tail"]
    score_flags = (["--competing", "--baseline", str(work / names[0]),
                    "--baseline-inv", str(work / names[1])] if competing
                   else ["--baseline", str(work / names[0])])
    if annual_discount:
        score_flags += ["--discount-annual", str(annual_discount)]
    out = work / "projections.csv"
    n = scoring.tenure.size
    scores = scoring.churn_score if not competing else scoring.score_v + scoring.score_inv
    sample = _sample(rng, n, [int(np.argmax(scores))])

    def baselines() -> list[reference.Baseline]:
        return [reference.Baseline(work / name) for name in names]

    def check_score() -> str | None:
        return reference.check_projections(out, scoring, baselines(),
                                           reference.monthly_rate(annual_discount), sample)

    def counts() -> dict[str, float]:
        b = baselines()
        tails = [x.tail_start for x in b]
        return {
            **reference.projection_counts(out, scoring, b, CLI_CHUNK_SIZE),
            "survival.tail_start": tails[0],
            "survival.tail_start_gap": max(tails) - min(tails),
            "survival.pooled_bins": sum(x.pooled_bins for x in b),
        }

    score = Command("score", ["score", "--scoring", str(work / "scoring.csv"),
                              "--out", str(out), *score_flags],
                    n, n, n, check_score)
    return Workload([_baseline_command(work, cal, baseline_flags, names), score],
                    "score", counts)


def longtail(seed: int, scale: float, work: Path) -> Workload:
    """Low churn: most customers run to the 1200-month cap."""
    rng = np.random.default_rng([seed, 1])
    cal, scoring = gen.longtail(rng, work, int(100_000 * scale), int(50_000 * scale))
    return _score_workload(work, rng, cal, scoring, False, 0.12)


def competing(seed: int, scale: float, work: Path) -> Workload:
    """High churn with voluntary and involuntary causes."""
    rng = np.random.default_rng([seed, 2])
    cal, scoring = gen.competing(rng, work, int(200_000 * scale), int(100_000 * scale))
    return _score_workload(work, rng, cal, scoring, True, 0.0)


def panel(seed: int, scale: float, work: Path) -> Workload:
    """Covariate panel for the odds model; no projection kernel runs."""
    rng = np.random.default_rng([seed, 3])
    n = int(100_000 * scale)
    cal = gen.panel(rng, work, n)
    # The offset is the marginal rate per tenure, which biases the fit by a
    # few percent of each coefficient; the rest is sampling error.
    tolerance = 0.03 + 5.0 / np.sqrt(max(1, int(cal.churned.sum())))
    model = work / "model.json"

    def counts() -> dict[str, float]:
        b = reference.Baseline(work / "baseline.json")
        doc = json.loads(model.read_text(encoding="utf-8"))
        return {"survival.tail_start": b.tail_start, "survival.pooled_bins": b.pooled_bins,
                "odds.iterations": int(doc["iterations"])}

    fit = Command("fit-odds", ["fit-odds", "--calibration", str(work / "calibration.csv"),
                               "--baseline", str(work / "baseline.json"), "--out", str(model)],
                  n, 0, n, lambda: reference.check_model(
                      model, reference.Baseline(work / "baseline.json"), cal,
                      gen.PANEL_BETA, tolerance))
    return Workload([_baseline_command(work, cal, [], ["baseline.json"]), fit],
                    "fit-odds", counts)


def simulate(seed: int, scale: float, work: Path) -> Workload:
    """Cohort simulation: per-customer truth projection and three CSV writes."""
    rng = np.random.default_rng([seed, 4])
    n = max(1, int(5_000 * scale))
    spec = gen.simulate_spec(rng, work, n)
    out_dir = work / "cohort"
    sample = _sample(rng, n)
    command = Command("simulate", ["simulate", "--spec", str(work / "spec.json"),
                                   "--out-dir", str(out_dir)],
                      0, 3 * n, n, lambda: reference.check_simulation(out_dir, spec, sample))
    return Workload([command], "simulate")


WORKLOADS: dict[str, Callable[[int, float, Path], Workload]] = {
    "longtail": longtail,
    "competing": competing,
    "panel": panel,
    "simulate": simulate,
}
