"""Covariate-based hazard model on the log-odds scale.

Instead of scaling hazards directly, this model scales hazard odds: the
log-odds of churning in a month is the log-odds of the (smoothed) baseline
hazard at that tenure plus a linear function of static covariates. The
baseline term enters the likelihood as a fixed offset, so only the
covariate coefficients are fitted, by Newton's method with step-halving.
Predictions are always strictly inside (0, 1), so unlike the direct scaling
model no clipping is ever needed.

The fit holds its design once, as consecutive blocks of
``dataio.CALIBRATION_BATCH_SIZE`` (2048) rows: the CLI's blocks are the
calibration reader's batches, and the column and record APIs take views of
their whole arrays. The log-likelihood, gradient and Hessian are summed
block by block in row order, so no stacked copy of the design and no
design-sized temporary is made. That fixed block size and order is what
keeps the CLI's model byte-identical to the record API's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataio import CALIBRATION_BATCH_SIZE, json_number, json_string
from .errors import (
    BaselineMismatch,
    EmptyCalibration,
    FitDiverged,
    InvalidDocument,
    InvalidRecord,
    OffsetUndefined,
)
from .projection import CustomerProjection, ProjectionConfig, fold_path
from .survival import BaselineHazard, hazard_at, jeffreys_view, lookup

MODEL_SCHEMA_VERSION = 1

_MAX_HALVINGS = 30
# Rows per block of the fit: the calibration reader's batch size, so that a
# file's batches are the blocks as read.
_BLOCK_ROWS = CALIBRATION_BATCH_SIZE
# Fitted probabilities numerically indistinguishable from the outcomes mean
# the likelihood has no finite maximizer (separation).
_SEPARATION_ATOL = 1e-6


@dataclass(frozen=True)
class PersonPeriodRow:
    """One customer-month for fitting: tenure, churn outcome, covariates."""

    tenure: int
    outcome: int
    covariates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(float(x) for x in self.covariates))


@dataclass(frozen=True)
class OddsModel:
    """Fitted coefficient vector plus fit diagnostics.

    ``baseline_sha`` ties the model to the exact baseline whose odds served
    as the offset; predicting against a different baseline is a caller bug
    this hash makes detectable. ``objective_path`` holds the penalized
    log-likelihood at each accepted Newton iterate (diagnostic only, not
    serialized).
    """

    beta: np.ndarray
    ridge: float
    log_likelihood: float
    iterations: int
    converged: bool
    baseline_sha: str
    objective_path: tuple[float, ...] = ()

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise ValueError("beta must be a finite vector")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def to_dict(self) -> dict:
        return {
            "version": MODEL_SCHEMA_VERSION,
            "beta": self.beta.tolist(),
            "ridge": self.ridge,
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "baseline_sha": self.baseline_sha,
        }


def logit(p):
    """Log-odds ``log(p / (1 - p))`` of probabilities in (0, 1)."""
    return np.log(p / (1.0 - p))


def expit(x):
    """Logistic function; finite and free of overflow warnings for finite x."""
    e = np.exp(-np.abs(x))  # in (0, 1], never overflows
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_odds(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-odds of a resolved table, and where it is defined (0 < h < 1)."""
    defined = (table > 0.0) & (table < 1.0)
    return logit(np.where(defined, table, 0.5)), defined


def _design(block: tuple, log_odds: np.ndarray, defined: np.ndarray, first_row: int):
    """Covariates, response and offsets of one block, checked row by row.

    ``block`` is (tenure, outcome, covariates), plus each record's covariate
    count when the block was built from records (a ragged record is an
    error). The first row that breaks a rule, in input order, raises: its
    outcome, then its covariate count, its tenure and its offset. Row
    numbers count from ``first_row``, the block's first row in the whole
    input.
    """
    tenure, outcome, covariates, *widths = block
    n, m = covariates.shape
    bad_outcome = ~((outcome == 0) | (outcome == 1))
    bad_width = widths[0] != m if widths else np.zeros(n, dtype=bool)
    negative = tenure < 0
    t = np.where(negative, 0, np.minimum(tenure, len(log_odds) - 1))
    bad = bad_outcome | bad_width | negative | ~defined[t]
    if bad.any():
        i = int(np.argmax(bad))
        row = first_row + i
        if bad_outcome[i]:
            raise InvalidRecord(row, f"outcome must be 0 or 1, got {outcome[i:i + 1].tolist()[0]!r}")
        if bad_width[i]:
            raise InvalidRecord(row, f"expected {m} covariates, got {widths[0][i]}")
        if negative[i]:
            raise InvalidRecord(row, "tenure must be >= 0")
        raise OffsetUndefined(int(tenure[i]))
    return covariates, outcome.astype(np.float64), log_odds[t]


def _blocks(parts: Iterable[tuple]) -> list[tuple]:
    """Consecutive parts, each a tuple of equally long columns, re-cut into
    blocks of ``_BLOCK_ROWS`` rows in row order (the last may be shorter).

    A block that lies inside one part is a view of it; only a block that
    spans a seam between parts, after a short part, is copied.
    """
    blocks, pending, held = [], [], 0
    for part in parts:
        n, start = len(part[0]), 0
        while start < n:
            take = min(_BLOCK_ROWS - held, n - start)
            pending.append(tuple(column[start:start + take] for column in part))
            held += take
            start += take
            if held == _BLOCK_ROWS:
                blocks.append(_joined(pending))
                pending, held = [], 0
    if pending:
        blocks.append(_joined(pending))
    return blocks


def _joined(pieces: list[tuple]) -> tuple:
    if len(pieces) == 1:
        return pieces[0]
    return tuple(np.concatenate(columns) for columns in zip(*pieces))


def _record_columns(rows: Sequence[PersonPeriodRow]):
    """Tenure, outcome (the records' own objects), covariates and covariate counts."""
    n = len(rows)
    widths = np.fromiter((len(r.covariates) for r in rows), np.int64, n)
    m = int(widths[0]) if n else 0
    if (widths == m).all():
        covariates = np.array([r.covariates for r in rows], dtype=np.float64).reshape(n, m)
    else:
        covariates = np.zeros((n, m))  # never used: _design rejects the ragged row
    return (np.array([r.tenure for r in rows], dtype=np.int64),
            np.fromiter((r.outcome for r in rows), object, n), covariates, widths)


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray,
                   offsets: np.ndarray, ridge: float = 0.0) -> float:
    """Bernoulli log-likelihood of the offset-logistic model, ridge-penalized.

    Computed via log-sigmoid so it stays finite for any finite linear
    predictor: each row adds log sigma(eta) = -log(1 + exp(-eta)) if it
    churned, else log sigma(-eta). Unless eta is finite and y all 0 or 1,
    the two terms are weighted by y and 1 - y instead, so that inf * 0
    gives NaN there as it always has (the fit halves such a step).
    """
    eta = offsets + X @ beta
    if np.isfinite(eta).all() and ((y == 0) | (y == 1)).all():
        ll = -np.logaddexp(0.0, np.where(y == 1, -eta, eta)).sum()
    else:
        ll = -(np.logaddexp(0.0, -eta) * y + np.logaddexp(0.0, eta) * (1.0 - y)).sum()
    return float(ll - 0.5 * ridge * float(beta @ beta))


def score_vector(beta: np.ndarray, X: np.ndarray, y: np.ndarray,
                 offsets: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Gradient of the penalized log-likelihood with respect to beta."""
    h = expit(offsets + X @ beta)
    return X.T @ (y - h) - ridge * beta


def fit_odds_model(rows: Sequence[PersonPeriodRow], baseline: BaselineHazard,
                   ridge: float = 1e-6, tol: float = 1e-8, max_iter: int = 50) -> OddsModel:
    """Fit covariate coefficients by penalized maximum likelihood.

    The baseline enters as a fixed per-row offset of its hazard log-odds,
    always taken from the Jeffreys-smoothed view of the given baseline
    (raw 0/1 rates have no log-odds). Newton steps are halved until the
    penalized objective does not decrease; the fit converges when an
    accepted step improves it by less than ``tol``.

    Raises FitDiverged on a non-finite step, on a step that 30 halvings
    cannot repair, or on perfect separation (fitted probabilities
    numerically equal to the outcomes, under which no finite maximizer
    exists).
    """
    return _fit([_record_columns(list(rows))], baseline, ridge, tol, max_iter)


def fit_odds_columns(tenure: np.ndarray, outcome: np.ndarray, covariates: np.ndarray,
                     baseline: BaselineHazard, ridge: float = 1e-6, tol: float = 1e-8,
                     max_iter: int = 50) -> OddsModel:
    """``fit_odds_model`` over columns: one row per customer-month.

    ``covariates`` is the (rows, m) design matrix, held once: the fit takes
    views of it 2048 rows at a time and sums over them in row order, the
    order that keeps the model byte-identical to ``fit_odds_model``'s and
    ``fit_odds_batches``'. Keep it C-contiguous, as a transposed layout
    changes the BLAS summation order and with it the last bits of the fit.
    """
    return _fit([(tenure, outcome, covariates)], baseline, ridge, tol, max_iter)


def fit_odds_batches(batches: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
                     baseline: BaselineHazard, ridge: float = 1e-6, tol: float = 1e-8,
                     max_iter: int = 50) -> OddsModel:
    """``fit_odds_columns`` over consecutive row batches (tenure, outcome, covariates).

    Every batch is read before any row is checked. Batches of 2048 rows, as
    the calibration reader yields them, are fitted as they are; shorter ones
    are re-cut into 2048-row blocks, so the model never depends on how the
    rows were batched.
    """
    return _fit(batches, baseline, ridge, tol, max_iter)


def _objective(blocks: list[tuple], beta: np.ndarray, ridge: float) -> tuple[float, float]:
    """Log-likelihood at ``beta``, summed over the blocks in row order, and
    that less the ridge penalty."""
    total = 0.0
    for X, y, offsets in blocks:
        total += log_likelihood(beta, X, y, offsets)
    return total, total - 0.5 * ridge * float(beta @ beta)


def _fitted(blocks: list[tuple], beta: np.ndarray) -> tuple[list[np.ndarray], float]:
    """Each block's fitted probabilities at ``beta``, and the largest |y - h|."""
    fitted = [expit(offsets + X @ beta) for X, _, offsets in blocks]
    gap = np.max([np.max(np.abs(y - h)) for (_, y, _), h in zip(blocks, fitted)])
    return fitted, float(gap)


def _fit(parts: Iterable[tuple], baseline: BaselineHazard, ridge: float, tol: float,
         max_iter: int) -> OddsModel:
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    blocks = _blocks(parts)
    if not blocks:
        raise EmptyCalibration("no person-period rows")
    m = blocks[0][2].shape[1]
    if m < 1:
        raise InvalidRecord(0, "at least one covariate required")
    log_odds, defined = _log_odds(jeffreys_view(baseline).table)
    first_row = 0
    for i, block in enumerate(blocks):
        # In place, so that each block's tenure and outcome go as it is done.
        blocks[i] = _design(block, log_odds, defined, first_row)
        first_row += len(block[0])

    beta = np.zeros(m)
    ll, objective = _objective(blocks, beta, ridge)
    path = [objective]
    converged = False
    iterations = 0
    fitted, _ = _fitted(blocks, beta)
    for it in range(1, max_iter + 1):
        iterations = it
        grad, hess = np.zeros(m), np.zeros((m, m))
        for (X, y, _), h in zip(blocks, fitted):
            grad += X.T @ (y - h)
            hess += (X * (h * (1.0 - h))[:, None]).T @ X
        grad -= ridge * beta
        if float(np.max(np.abs(grad))) == 0.0:
            # Exactly stationary (e.g. all covariates zero); nothing to move.
            converged = True
            break
        hess += ridge * np.eye(m)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise FitDiverged("singular Hessian", last_beta=beta, iterations=it) from None
        if not np.all(np.isfinite(step)):
            raise FitDiverged("non-finite Newton step", last_beta=beta, iterations=it)

        candidate = beta + step
        new_ll, new_objective = _objective(blocks, candidate, ridge)
        halvings = 0
        while not (math.isfinite(new_objective) and new_objective >= objective):
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise FitDiverged(
                    f"no improvement after {_MAX_HALVINGS} step halvings",
                    last_beta=beta, iterations=it)
            step *= 0.5
            candidate = beta + step
            new_ll, new_objective = _objective(blocks, candidate, ridge)

        beta, ll = candidate, new_ll
        path.append(new_objective)
        fitted, gap = _fitted(blocks, beta)  # also the next iteration's
        if gap < _SEPARATION_ATOL:
            raise FitDiverged("perfect separation", last_beta=beta, iterations=it)
        improvement = new_objective - objective
        objective = new_objective
        if improvement < tol:
            converged = True
            break

    return OddsModel(
        beta=beta,
        ridge=ridge,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        baseline_sha=baseline.content_sha(),
        objective_path=tuple(path),
    )


def predict_hazard_odds(model: OddsModel, covariates: Sequence[float],
                        baseline: BaselineHazard, t: int) -> float:
    """Predicted monthly churn hazard at tenure ``t``, strictly in (0, 1).

    Applies the fitted coefficients to the Jeffreys-smoothed view of the
    baseline (the same view the fit used for its offsets).
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.shape != model.beta.shape:
        raise ValueError(f"expected {model.beta.size} covariates, got {x.size}")
    h0 = hazard_at(jeffreys_view(baseline), t)
    if not 0.0 < h0 < 1.0:
        raise OffsetUndefined(t)
    lin = float(model.beta @ x)
    if lin == 0.0:
        # Zero linear predictor reduces to the baseline itself; return it
        # directly so the reduction is exact rather than a logit round-trip.
        return h0
    return float(expit(logit(h0) + lin))


def project_with_odds_model(model: OddsModel, covariates: Sequence[float],
                            baseline: BaselineHazard, t0: int,
                            config: ProjectionConfig | None = None,
                            ) -> CustomerProjection:
    """Project survival and expected remaining tenure under the odds model.

    Static covariates apply at every future tenure, so the odds transform is
    applied once per entry of the resolved Jeffreys table and the result is
    folded like a unit-alpha baseline. The projection's ``alpha`` field
    carries the customer's hazard-odds multiplier exp(beta . x), the analog
    of the direct scaling coefficient. ``baseline`` must be the one the
    model was fitted on (``BaselineMismatch`` otherwise).
    """
    x = np.asarray(covariates, dtype=np.float64)
    if x.shape != model.beta.shape:
        raise ValueError(f"expected {model.beta.size} covariates, got {x.size}")
    sha = baseline.content_sha()
    if sha != model.baseline_sha:
        raise BaselineMismatch(model.baseline_sha, sha)
    table = jeffreys_view(baseline).table
    log_odds, defined = _log_odds(table)
    lin = float(model.beta @ x)
    # As in predict_hazard_odds, a zero linear predictor keeps the baseline.
    hazards = table if lin == 0.0 else np.where(defined, expit(log_odds + lin), table)
    projection = fold_path((hazards,), (1.0,), t0, config or ProjectionConfig(),
                           alpha=float(np.exp(lin)))
    reached = lookup(defined, t0 + np.arange(projection.truncated_at + 1))
    if not reached.all():
        raise OffsetUndefined(t0 + int(np.argmin(reached)))
    return projection


def model_from_dict(doc: dict) -> OddsModel:
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    required = {"version", "beta", "ridge", "log_likelihood", "iterations",
                "converged", "baseline_sha"}
    if set(doc) != required:
        raise ValueError(f"model document must have exactly keys {sorted(required)}")
    if doc["version"] != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model version {doc['version']!r}")
    if not isinstance(doc["converged"], bool):
        raise ValueError(f"converged must be true or false, got {doc['converged']!r}")
    # Values no fit produces: a Bernoulli log-likelihood is at most 0.
    ridge = json_number(doc["ridge"], "ridge")
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge!r}")
    log_likelihood = json_number(doc["log_likelihood"], "log_likelihood")
    if log_likelihood > 0.0:
        raise ValueError(f"log_likelihood must be <= 0, got {log_likelihood!r}")
    iterations = json_number(doc["iterations"], "iterations", int)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations!r}")
    baseline_sha = json_string(doc["baseline_sha"], "baseline_sha")
    if not baseline_sha:
        raise ValueError("baseline_sha must not be empty")
    return OddsModel(
        beta=np.array([json_number(b, "beta") for b in doc["beta"]], dtype=np.float64),
        ridge=ridge,
        log_likelihood=log_likelihood,
        iterations=iterations,
        converged=doc["converged"],
        baseline_sha=baseline_sha,
    )


def save_model(path: str | Path, model: OddsModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=1)
        fh.write("\n")


def load_model(path: str | Path) -> OddsModel:
    """Read a model document; a malformed one raises InvalidDocument."""
    with open(path, encoding="utf-8") as fh:
        try:
            return model_from_dict(json.load(fh))
        # JSONDecodeError is a ValueError; RecursionError is a document nested
        # too deep to parse.
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise InvalidDocument(path, f"not a valid model document: {exc}") from None
