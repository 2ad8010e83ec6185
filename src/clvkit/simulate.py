"""Synthetic cohorts with known ground truth.

The generator plants a known baseline hazard shape and per-customer scaling
coefficients, simulates one-month churn outcomes for a snapshot population,
and emits matching calibration and scoring files plus a truth file holding
each customer's true coefficient, expected remaining tenure, and lifetime
value. Scoring rows carry the true next-month hazard as the churn score (a
perfect churn model) unless score noise is switched on, so errors observed
downstream isolate the projection method itself.

Each customer draws from an independent substream seeded by (seed, index),
so any parallel split of the cohort reproduces the serial output exactly.
Truth comes from one call of the batch kernel ``projection.project_batch``
after all draws: the planted shape is resolved to a hazard table, each
customer steps month by month up to the shape's last change, and the
constant-hazard rest of the sum is added in closed form (``truncated_at``
being the month month-stepping would stop at).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .dataio import CAUSE_INVOLUNTARY, CAUSE_VOLUNTARY, CalibrationRecord, ScoringRecord
from .projection import ProjectionConfig, project_batch, truncated_survival_sum
from .valuation import DiscountSpec


@dataclass(frozen=True)
class FlatShape:
    """Constant hazard at every tenure."""

    h: float

    def rate(self, t: int) -> float:
        return self.h

    def table(self, limit: int) -> np.ndarray:
        return np.array([self.h])


@dataclass(frozen=True)
class StepShape:
    """Hazard h1 before ``change_t``, h2 from ``change_t`` on."""

    h1: float
    h2: float
    change_t: int

    def rate(self, t: int) -> float:
        return self.h1 if t < self.change_t else self.h2

    def table(self, limit: int) -> np.ndarray:
        return np.array([self.rate(t) for t in range(min(max(self.change_t, 0), limit) + 1)])


@dataclass(frozen=True)
class DecayingShape:
    """Geometrically decaying hazard a * b**t (0 <= a <= 1, 0 < b <= 1)."""

    a: float
    b: float

    def rate(self, t: int) -> float:
        return self.a * self.b ** t

    def table(self, limit: int) -> np.ndarray:
        return np.array([self.rate(t) for t in range(limit + 1)])


# A shape's ``table(limit)`` is its resolved hazard table, as
# ``survival.resolve`` builds for a baseline: the rates at tenures 0..s for
# some s <= limit, the last one holding from s on (decaying shapes never
# settle, so theirs runs to the limit).
BaselineShape = Union[FlatShape, StepShape, DecayingShape]


@dataclass(frozen=True)
class FixedAlpha:
    a: float

    def draw(self, rng: np.random.Generator) -> float:
        return self.a


@dataclass(frozen=True)
class LognormalAlpha:
    mu: float
    sigma: float

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))


AlphaDist = Union[FixedAlpha, LognormalAlpha]


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to generate one cohort deterministically.

    ``competing`` is the voluntary share of the baseline hazard; when set,
    each customer draws separate voluntary and involuntary coefficients
    (``alpha_dist_inv`` defaults to ``alpha_dist``). ``score_noise_sigma``
    multiplies scores by lognormal noise to study imperfect churn models;
    the default is a perfect model.
    """

    baseline_shape: BaselineShape
    alpha_dist: AlphaDist
    n_customers: int
    max_tenure: int
    seed: int
    competing: float | None = None
    alpha_dist_inv: AlphaDist | None = None
    score_noise_sigma: float = 0.0
    margin: float = 1.0
    discount_monthly: float = 0.0
    projection: ProjectionConfig = field(default_factory=ProjectionConfig)

    def __post_init__(self):
        if self.n_customers < 1:
            raise ValueError("n_customers must be >= 1")
        if self.max_tenure < 0:
            raise ValueError("max_tenure must be >= 0")
        if self.competing is not None and not 0.0 <= self.competing <= 1.0:
            raise ValueError("competing split fraction must lie in [0, 1]")
        if self.score_noise_sigma < 0.0:
            raise ValueError("score_noise_sigma must be >= 0")


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth for one simulated customer."""

    customer_id: str
    true_alpha: float
    true_ert: float
    true_clv: float


@dataclass
class Cohort:
    """Generated snapshot: calibration rows, scoring rows, per-customer truth."""

    calibration: list[CalibrationRecord]
    scoring: list[ScoringRecord]
    truth: list[TruthRecord]
    clipped_hazards: int = 0


def true_ert(hazard_path: Sequence[float] | Callable[[int], float],
             eps: float = 1e-6, max_horizon: int = 1200) -> float:
    """Expected remaining tenure evaluated directly on a known hazard path.

    Uses the same truncated summation as the estimator, so oracle and
    estimate differ only by estimation error, never by arithmetic.
    """
    if callable(hazard_path):
        fn = hazard_path
    else:
        path = list(hazard_path)

        def fn(j: int, _path=path) -> float:
            if j >= len(_path):
                raise IndexError(
                    f"hazard path of length {len(_path)} exhausted at month {j}; "
                    "provide a longer path or a callable")
            return _path[j]

    ert, _, _, _ = truncated_survival_sum(fn, eps, max_horizon)
    return ert


def generate_cohort(spec: SimSpec) -> Cohort:
    """Generate calibration, scoring, and truth rows for one snapshot.

    Snapshot tenures are assigned round-robin over 0..max_tenure, giving
    every tenure bin the same exposure (up to one customer). Deterministic
    in the seed.
    """
    shape = spec.baseline_shape
    competing = spec.competing is not None
    dist_v = spec.alpha_dist
    dist_inv = spec.alpha_dist_inv if spec.alpha_dist_inv is not None else spec.alpha_dist
    f_v = spec.competing if competing else 1.0

    calibration: list[CalibrationRecord] = []
    scoring: list[ScoringRecord] = []
    true_alpha: list[float] = []
    # Per-customer coefficients of the truth hazard, one list per table.
    coefs: list[list[float]] = [[], []] if competing else [[]]
    clipped = 0
    width = max(6, len(str(spec.n_customers - 1)))
    ids = [f"c{i:0{width}d}" for i in range(spec.n_customers)]
    t0s = np.arange(spec.n_customers, dtype=np.int64) % (spec.max_tenure + 1)

    for i, cid in enumerate(ids):
        rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
        t0 = int(t0s[i])
        base = shape.rate(t0)

        if competing:
            alpha_v = dist_v.draw(rng)
            alpha_inv = dist_inv.draw(rng)
            raw_v = alpha_v * f_v * base
            raw_inv = alpha_inv * (1.0 - f_v) * base
            p_churn = raw_v + raw_inv
            if p_churn > 1.0:
                clipped += 1
                p_churn = 1.0
            churned = int(rng.random() < p_churn)
            cause = None
            if churned:
                share_v = raw_v / (raw_v + raw_inv)
                cause = CAUSE_VOLUNTARY if rng.random() < share_v else CAUSE_INVOLUNTARY
            score_v, score_inv = raw_v, raw_inv
            if spec.score_noise_sigma > 0.0:
                score_v *= rng.lognormal(0.0, spec.score_noise_sigma)
                score_inv *= rng.lognormal(0.0, spec.score_noise_sigma)
            total = score_v + score_inv
            if total > 1.0:
                clipped += 1
                score_v /= total
                score_inv /= total
            calibration.append(CalibrationRecord(cid, t0, churned, cause))
            scoring.append(ScoringRecord(cid, t0, spec.margin,
                                         score_v=score_v, score_inv=score_inv))
            # Truth hazard: min(1, alpha_v * f_v * r + alpha_inv * (1 - f_v) * r).
            coefs[0].append(alpha_v * f_v)
            coefs[1].append(alpha_inv * (1.0 - f_v))
            true_alpha.append((raw_v + raw_inv) / base if base > 0.0
                              else alpha_v * f_v + alpha_inv * (1.0 - f_v))
        else:
            alpha = dist_v.draw(rng)
            hazard = alpha * base
            if hazard > 1.0:
                clipped += 1
                hazard = 1.0
            churned = int(rng.random() < hazard)
            score = hazard
            if spec.score_noise_sigma > 0.0:
                score = min(1.0, score * rng.lognormal(0.0, spec.score_noise_sigma))
            calibration.append(CalibrationRecord(cid, t0, churned))
            scoring.append(ScoringRecord(cid, t0, spec.margin, churn_score=score))
            coefs[0].append(alpha)
            true_alpha.append(alpha)

    table = shape.table(spec.max_tenure + spec.projection.max_horizon)
    ert, value, _ = project_batch(
        [table] * len(coefs), [np.array(c) for c in coefs], t0s,
        np.full(spec.n_customers, spec.margin), DiscountSpec(spec.discount_monthly),
        spec.projection)
    truth = [TruthRecord(cid, a, e, v)
             for cid, a, e, v in zip(ids, true_alpha, ert.tolist(), value.tolist())]
    return Cohort(calibration, scoring, truth, clipped)


def write_truth(path: str | Path, truths: Iterable[TruthRecord]) -> int:
    """Write the per-customer truth file next to the generated CSVs."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["customer_id", "true_alpha", "true_ert", "true_clv"])
        for t in truths:
            writer.writerow([t.customer_id, f"{t.true_alpha:.6f}",
                             f"{t.true_ert:.6f}", f"{t.true_clv:.6f}"])
            count += 1
    return count


def _shape_from_dict(doc: dict) -> BaselineShape:
    kind = doc.get("kind")
    if kind == "flat":
        return FlatShape(h=float(doc["h"]))
    if kind == "step":
        return StepShape(h1=float(doc["h1"]), h2=float(doc["h2"]),
                         change_t=int(doc["change_t"]))
    if kind == "decaying":
        return DecayingShape(a=float(doc["a"]), b=float(doc["b"]))
    raise ValueError(f"unknown baseline_shape kind {kind!r}")


def _alpha_dist_from_dict(doc: dict) -> AlphaDist:
    kind = doc.get("kind")
    if kind == "fixed":
        return FixedAlpha(a=float(doc["a"]))
    if kind == "lognormal":
        return LognormalAlpha(mu=float(doc["mu"]), sigma=float(doc["sigma"]))
    raise ValueError(f"unknown alpha_dist kind {kind!r}")


_SPEC_KEYS = {"baseline_shape", "alpha_dist", "n_customers", "max_tenure", "seed",
              "competing", "alpha_dist_inv", "score_noise_sigma", "margin",
              "discount_monthly", "eps", "max_horizon"}


def simspec_from_dict(doc: dict) -> SimSpec:
    """Parse a simulation spec document, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ValueError("simulation spec must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown simulation spec keys: {sorted(unknown)}")
    for key in ("baseline_shape", "alpha_dist", "n_customers", "max_tenure", "seed"):
        if key not in doc:
            raise ValueError(f"simulation spec missing key: {key}")
    projection = ProjectionConfig(
        eps=float(doc.get("eps", 1e-6)),
        max_horizon=int(doc.get("max_horizon", 1200)),
    )
    alpha_inv = doc.get("alpha_dist_inv")
    return SimSpec(
        baseline_shape=_shape_from_dict(doc["baseline_shape"]),
        alpha_dist=_alpha_dist_from_dict(doc["alpha_dist"]),
        n_customers=int(doc["n_customers"]),
        max_tenure=int(doc["max_tenure"]),
        seed=int(doc["seed"]),
        competing=None if doc.get("competing") is None else float(doc["competing"]),
        alpha_dist_inv=None if alpha_inv is None else _alpha_dist_from_dict(alpha_inv),
        score_noise_sigma=float(doc.get("score_noise_sigma", 0.0)),
        margin=float(doc.get("margin", 1.0)),
        discount_monthly=float(doc.get("discount_monthly", 0.0)),
        projection=projection,
    )
