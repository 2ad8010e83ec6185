"""Seeded benchmark inputs, built with numpy and the csv format only.

Nothing here imports clvkit: the inputs, and the planted truth the checks
compare against, come from the benchmark alone. Every function takes a
``numpy.random.Generator`` so the same seed always yields the same files.
Floats are written with six decimals, as clvkit's own writers do; the
arrays returned are parsed back from that text, so they hold exactly the
values the program reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _fmt6(values: np.ndarray) -> list[str]:
    return [f"{v:.6f}" for v in values.tolist()]


def _parsed(text: list[str]) -> np.ndarray:
    return np.array([float(s) for s in text])


def _ids(n: int) -> list[str]:
    return [f"c{i:07d}" for i in range(n)]


def write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    """Write string columns as a comma-separated file with a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


@dataclass
class Calibration:
    """A one-month snapshot: tenure and churn outcome per customer."""

    tenure: np.ndarray
    churned: np.ndarray
    cause: np.ndarray | None = None  # "V", "I" or "" per row
    covariates: np.ndarray | None = None  # (n, m) as parsed from the file

    def write(self, path: Path) -> None:
        n = self.tenure.size
        header = ["customer_id", "tenure", "churned"]
        columns = [_ids(n), [str(t) for t in self.tenure.tolist()],
                   [str(c) for c in self.churned.tolist()]]
        if self.cause is not None:
            header.append("cause")
            columns.append(self.cause.tolist())
        if self.covariates is not None:
            for k in range(self.covariates.shape[1]):
                header.append(f"x{k + 1}")
                columns.append(_fmt6(self.covariates[:, k]))
        write_csv(path, header, columns)


@dataclass
class Scoring:
    """Live customers: tenure, churn score(s) and monthly margin."""

    ids: list[str]
    tenure: np.ndarray
    margin: np.ndarray
    churn_score: np.ndarray | None = None
    score_v: np.ndarray | None = None
    score_inv: np.ndarray | None = None


def _scoring(path: Path, tenure: np.ndarray, margin: np.ndarray,
             scores: dict[str, np.ndarray]) -> Scoring:
    ids = _ids(tenure.size)
    margin_text = _fmt6(margin)
    score_text = {name: _fmt6(values) for name, values in scores.items()}
    write_csv(path, ["customer_id", "tenure", *score_text, "margin"],
              [ids, [str(t) for t in tenure.tolist()], *score_text.values(), margin_text])
    parsed = {name: _parsed(text) for name, text in score_text.items()}
    return Scoring(ids, tenure, _parsed(margin_text), **parsed)


def _snapshot(rng: np.random.Generator, n: int, max_tenure: int, hazard) -> Calibration:
    tenure = rng.integers(0, max_tenure + 1, n)
    churned = (rng.random(n) < hazard(tenure)).astype(np.int64)
    return Calibration(tenure, churned)


def longtail_hazard(t: np.ndarray) -> np.ndarray:
    """Low-churn book: 0.03 at tenure 0, decaying to a flat 0.006."""
    return 0.006 + 0.024 * np.exp(-t / 12.0)


def longtail(rng: np.random.Generator, work: Path, n_cal: int, n_score: int
             ) -> tuple[Calibration, Scoring]:
    cal = _snapshot(rng, n_cal, 119, longtail_hazard)
    cal.write(work / "calibration.csv")
    tenure = rng.integers(0, 120, n_score)
    score = np.clip(longtail_hazard(tenure) * rng.lognormal(0.0, 0.5, n_score), 1e-6, 1.0)
    # One customer in 200 is about to leave; scaled by the low baseline, their
    # hazard exceeds 1 and is clipped.
    leaving = rng.random(n_score) < 0.005
    score[leaving] = rng.uniform(0.3, 0.95, int(leaving.sum()))
    margin = rng.uniform(5.0, 50.0, n_score)
    return cal, _scoring(work / "scoring.csv", tenure, margin, {"churn_score": score})


def competing_hazard(t: np.ndarray) -> np.ndarray:
    """High-churn book: 0.18 at tenure 0, settling to 0.06."""
    return 0.06 + 0.12 * np.exp(-t / 8.0)


COMPETING_VOLUNTARY_SHARE = 0.7


def competing(rng: np.random.Generator, work: Path, n_cal: int, n_score: int
              ) -> tuple[Calibration, Scoring]:
    cal = _snapshot(rng, n_cal, 59, competing_hazard)
    voluntary = rng.random(n_cal) < COMPETING_VOLUNTARY_SHARE
    cal.cause = np.where(cal.churned == 1, np.where(voluntary, "V", "I"), "")
    cal.write(work / "calibration.csv")
    tenure = rng.integers(0, 60, n_score)
    h = competing_hazard(tenure)
    # Each score stays below 0.45, so the rounded pair never sums above 1.
    score_v = np.clip(COMPETING_VOLUNTARY_SHARE * h * rng.lognormal(0.0, 0.4, n_score),
                      1e-6, 0.45)
    score_inv = np.clip((1.0 - COMPETING_VOLUNTARY_SHARE) * h
                        * rng.lognormal(0.0, 0.4, n_score), 1e-6, 0.45)
    margin = rng.uniform(5.0, 50.0, n_score)
    return cal, _scoring(work / "scoring.csv", tenure, margin,
                         {"score_v": score_v, "score_inv": score_inv})


PANEL_BETA = np.array([0.3, -0.25, 0.2, -0.15, 0.1, -0.1, 0.05, 0.0])


def panel_hazard(t: np.ndarray) -> np.ndarray:
    """Baseline of the covariate panel: 0.10 at tenure 0, settling to 0.04."""
    return 0.04 + 0.06 * np.exp(-t / 6.0)


def panel(rng: np.random.Generator, work: Path, n_rows: int) -> Calibration:
    """Single-risk panel whose log-odds are the baseline's plus x @ PANEL_BETA."""
    tenure = rng.integers(0, 36, n_rows)
    x = _parsed(_fmt6(rng.standard_normal(n_rows * PANEL_BETA.size)))
    x = x.reshape(n_rows, PANEL_BETA.size)
    h0 = panel_hazard(tenure)
    h = 1.0 / (1.0 + np.exp(-(np.log(h0 / (1.0 - h0)) + x @ PANEL_BETA)))
    cal = Calibration(tenure, (rng.random(n_rows) < h).astype(np.int64), covariates=x)
    cal.write(work / "calibration.csv")
    return cal


def simulate_spec(rng: np.random.Generator, work: Path, n_customers: int) -> dict:
    """A step-baseline cohort with lognormal alpha, written as the spec JSON."""
    spec = {
        "baseline_shape": {"kind": "step", "h1": 0.05, "h2": 0.02, "change_t": 12},
        "alpha_dist": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5},
        "n_customers": n_customers,
        "max_tenure": 35,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "margin": 10.0,
        "discount_monthly": 0.01,
    }
    (work / "spec.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return spec
