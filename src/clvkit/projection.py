"""Per-customer hazard scaling and survival projection.

A customer's hazard curve is the baseline curve scaled by a single
coefficient alpha, estimated as the customer's one-month churn score over
the baseline hazard at their current tenure. Scaled rates above 1 are
clipped to 1. Survival paths are the running product of (1 - hazard) from
the current tenure, and expected remaining tenure is the truncated sum of
that path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import DegenerateBaseline
from .survival import BaselineHazard, lookup
from .valuation import DiscountSpec


@dataclass(frozen=True)
class ProjectionConfig:
    """Truncation rule for survival sums.

    Summation stops at the first month whose survival probability drops
    below ``eps``, or after ``max_horizon`` months, whichever comes first.
    With a positive hazard floor h beyond the cutoff, the discarded tail is
    bounded by eps * (1 - h) / h.

    The batch kernel (``project_batch``) steps month by month only up to the
    baseline's tail start; beyond it the hazard is constant, so it finds the
    stopping month and the rest of the sum in closed form. Its
    ``truncated_at`` is the month that month-stepping would report.
    """

    eps: float = 1e-6
    max_horizon: int = 1200

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie in (0, 1)")
        if self.max_horizon < 1:
            raise ValueError("max_horizon must be >= 1")


@dataclass(frozen=True)
class CustomerProjection:
    """Projected future for one customer, starting at their current tenure.

    ``survival_path[j]`` is the probability of remaining a customer for at
    least ``j + 1`` further months, up to ``truncated_at``. ``ert_months``
    and ``truncated_at`` are the batch kernel's (``project_batch``), so they
    equal the scorer's bit for bit; the ERT is the path's sum up to the
    rounding of its closed-form tail. For competing-risks projections
    ``alpha`` is the combined coefficient at the current tenure and the
    per-cause coefficients are carried alongside.
    """

    alpha: float
    hazard_path: np.ndarray
    survival_path: np.ndarray
    ert_months: float
    truncated_at: int
    alpha_v: float | None = None
    alpha_inv: float | None = None

    def __post_init__(self):
        hazard_path = np.asarray(self.hazard_path, dtype=np.float64)
        survival_path = np.asarray(self.survival_path, dtype=np.float64)
        if np.any((hazard_path < 0.0) | (hazard_path > 1.0)):
            raise ValueError("hazard path values must lie in [0, 1]")
        if np.any(survival_path[1:] > survival_path[:-1]):
            raise ValueError("survival path must be non-increasing")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be finite and >= 0")
        object.__setattr__(self, "hazard_path", hazard_path)
        object.__setattr__(self, "survival_path", survival_path)


def coefficients(scores: Sequence[np.ndarray], tables: Sequence[np.ndarray],
                 tenure: np.ndarray, ids: Sequence[str] | None = None,
                 ) -> tuple[list[np.ndarray], np.ndarray]:
    """Each cause's coefficient ``score / h0`` and the combined ``sum(scores) / sum(h0)``.

    ``scores`` and ``tables`` (``BaselineHazard.table``) hold one array per
    cause; ``h0`` is a table's hazard at ``tenure``, looked up only once the
    tenures are checked. A score outside [0, 1] (or NaN) or a negative tenure
    raises ValueError. A zero score gives 0 even over a zero hazard; a
    positive one over a hazard of 0, or so small that the ratio overflows,
    raises DegenerateBaseline. Either error names, given ``ids``, the customer.
    The combined coefficient is 0 where the hazards sum to 0.
    """
    def check(bad: np.ndarray, error: type, message) -> None:
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise error(("" if ids is None else f"customer {ids[i]!r}: ") + message(i))

    for score in scores:
        check(~((score >= 0.0) & (score <= 1.0)), ValueError,
              lambda i: f"churn score must lie in [0, 1], got {float(score[i])!r}")
    check(tenure < 0, ValueError, lambda i: "tenure must be >= 0")
    h0 = [lookup(table, tenure) for table in tables]
    alphas = []
    for score, h in zip(scores, h0):
        zero = h == 0.0
        with np.errstate(over="ignore"):
            alpha = np.where(zero, 0.0, score / np.where(zero, 1.0, h))
        check((zero & (score > 0.0)) | np.isinf(alpha), DegenerateBaseline, lambda i: (
            f"baseline hazard at tenure {int(tenure[i])} is {float(h[i])!r} even "
            f"after pooling, too small to scale a score of {float(score[i])!r}"))
        alphas.append(alpha)
    total = reduce(operator.add, h0)  # no start value: a lone score of -0.0 stays -0.0
    positive = total > 0.0
    combined = np.where(positive, reduce(operator.add, scores) / np.where(positive, total, 1.0),
                        0.0)
    return alphas, combined


def _customer_coefficients(scores: Sequence[float], tables: Sequence[np.ndarray],
                           t0: int) -> tuple[list[float], float]:
    """``coefficients`` of one customer at tenure ``t0``, as floats."""
    t = np.array([t0])
    alphas, combined = coefficients(np.array(scores, dtype=np.float64)[:, None], tables, t)
    return [alpha.item() for alpha in alphas], combined.item()


def compute_alpha(score: float, baseline: BaselineHazard, t0: int) -> float:
    """Proportionality coefficient: churn score over baseline hazard at t0 (``coefficients``)."""
    return _customer_coefficients((score,), (baseline.table,), t0)[0][0]


def _hazard(tables: Sequence[np.ndarray], alphas: Sequence, t) -> np.ndarray:
    """Clipped combined hazard at tenures ``t``: scale each cause, sum, clip.

    ``alphas`` holds one coefficient (or array broadcasting against ``t``)
    per table.
    """
    total = None
    for table, alpha in zip(tables, alphas):
        term = alpha * lookup(table, t)
        total = term if total is None else total + term
    return np.minimum(1.0, total)


def _path(tables: Sequence[np.ndarray], alphas: Sequence[float], t0: int,
          months: int) -> np.ndarray:
    """One customer's clipped hazards at tenures t0 .. t0 + months - 1."""
    if any(alpha < 0.0 or not math.isfinite(alpha) for alpha in alphas):
        raise ValueError("alpha must be finite and >= 0")
    if t0 < 0:
        raise ValueError("tenure must be >= 0")
    return _hazard(tables, alphas, t0 + np.arange(months))


def project_hazard(alpha: float, baseline: BaselineHazard, t0: int,
                   horizon: int) -> np.ndarray:
    """Scaled hazard path from t0: min(1, alpha * baseline hazard), per month."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return _path((baseline.table,), (alpha,), t0, horizon)


def fold_path(tables: Sequence[np.ndarray], alphas: Sequence[float], t0: int,
              config: ProjectionConfig, **fields) -> CustomerProjection:
    """One customer's projection from resolved tables, with its paths.

    ERT and ``truncated_at`` are ``project_batch``'s on a batch of one, so a
    single customer gets the scorer's numbers bit for bit. The paths run to
    ``truncated_at``: the clipped hazards, and their running product of
    ``1 - hazard``, multiplied in month order as the kernel steps. ``fields``
    supplies the coefficients the projection reports (``alpha`` and, for
    competing risks, ``alpha_v`` and ``alpha_inv``).
    """
    _path(tables, alphas, t0, 0)  # rejects a bad coefficient or tenure before the kernel
    ert, _, truncated = project_batch(tables, [np.array([alpha]) for alpha in alphas],
                                      np.array([t0]), np.zeros(1), DiscountSpec(), config)
    truncated_at = int(truncated[0])
    hazard_path = _path(tables, alphas, t0, truncated_at + 1)
    return CustomerProjection(hazard_path=hazard_path, survival_path=np.cumprod(1.0 - hazard_path),
                              ert_months=float(ert[0]), truncated_at=truncated_at, **fields)


def expected_remaining_tenure(alpha: float, baseline: BaselineHazard, t0: int,
                              config: ProjectionConfig | None = None,
                              ) -> tuple[float, np.ndarray, int]:
    """Expected remaining tenure in months for a customer at tenure t0.

    Returns ``(ert_months, survival_path, truncated_at)``; the path starts
    one month ahead of t0 and is already truncated per ``config``.
    """
    p = fold_path((baseline.table,), (alpha,), t0, config or ProjectionConfig(),
                  alpha=alpha)
    return p.ert_months, p.survival_path, p.truncated_at


def _project(scores: Sequence[float], baselines: Sequence[BaselineHazard], t0: int,
             config: ProjectionConfig | None,
             cause_fields: Sequence[str] = ()) -> CustomerProjection:
    """One customer's projection from one score and baseline per cause; ``alpha`` is
    the combined coefficient, and ``cause_fields`` name the causes' own."""
    tables = [baseline.table for baseline in baselines]
    alphas, alpha = _customer_coefficients(scores, tables, t0)
    return fold_path(tables, alphas, t0, config or ProjectionConfig(), alpha=alpha,
                     **dict(zip(cause_fields, alphas)))


def project_customer(score: float, baseline: BaselineHazard, t0: int,
                     config: ProjectionConfig | None = None) -> CustomerProjection:
    """Full single-risk projection: alpha, paths, and expected remaining tenure."""
    return _project((score,), (baseline,), t0, config)


def project_competing(score_v: float, score_inv: float,
                      baseline_v: BaselineHazard, baseline_inv: BaselineHazard,
                      t0: int,
                      config: ProjectionConfig | None = None) -> CustomerProjection:
    """Competing-risks projection from cause-specific scores and baselines.

    Each cause gets its own coefficient against its own sub-baseline; the
    combined monthly hazard is the clipped sum of the two scaled sub-hazards
    (scale first, sum, then clip, so that clipping one sub-hazard cannot
    hide a combined rate above 1). Both sub-baselines must come from the
    same snapshot so their sub-hazards share exposure denominators.
    """
    return _project((score_v, score_inv), (baseline_v, baseline_inv), t0, config,
                    ("alpha_v", "alpha_inv"))


def _months_to_eps(s: np.ndarray, q: np.ndarray, eps: float,
                   k_max: np.ndarray) -> np.ndarray:
    """Smallest k in [1, k_max] with ``s * q**k < eps``, else k_max (s >= eps)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.ceil(np.log(eps / s) / np.log(q))
    k = np.where(q < 1.0, np.clip(guess, 1, k_max), k_max).astype(np.int64)
    # The log estimate can be off by a rounding; settle on the exact month.
    while True:
        up = (k < k_max) & ~(s * q ** k < eps)
        down = (k > 1) & (s * q ** (k - 1) < eps)
        if not (up.any() or down.any()):
            return k
        k = k + up - down


def _geometric(q: np.ndarray, k: np.ndarray, rate: float) -> np.ndarray:
    """``sum(r**i for i in 1..k)`` with ``r = q / (1 + rate)``, q in [0, 1]."""
    d = 1.0 - q  # exact for q = 1 - h
    with np.errstate(divide="ignore", invalid="ignore"):
        # 1 - r**k through expm1/log1p keeps full precision when r is near 1.
        partial = -np.expm1(k * (np.log1p(-d) - np.log1p(rate))) * q / (d + rate)
    return np.where(q == 0.0, 0.0, np.where(d + rate == 0.0, k, partial))


def project_batch(tables: Sequence[np.ndarray], alphas: Sequence[np.ndarray],
                  t0: np.ndarray, margins: np.ndarray, discount: DiscountSpec,
                  config: ProjectionConfig,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected remaining tenure, CLV and truncation month for many customers.

    ``tables`` holds one resolved hazard table per cause (see
    ``BaselineHazard.table``: entry t is the hazard at tenure t, the last
    entry holds from there on) and ``alphas`` the matching per-customer
    coefficients. Customer i's hazard at tenure t is
    ``min(1, sum_c alphas[c][i] * tables[c][min(t, len(tables[c]) - 1)])``;
    a single table is the single-risk case.

    Each customer steps month by month while its tenure is below the
    largest tail start. From there its hazard is constant, so survival
    decays geometrically by ``q = 1 - hazard``: ``truncated_at`` is the
    first month whose survival ``S * q**k`` falls below ``eps`` (or the
    horizon cap), which is where month-stepping stops (the two could part
    only on a survival within a few roundings of ``eps``), and ERT and CLV
    add the finite geometric sums up to it. Month j contributes survival *
    margin / (1 + rate)**(j + 1) to CLV. The switch month depends only on
    the customer, so results do not depend on how customers are batched.

    The batch is ordered by months stepped, most first (a stable argsort),
    so the customers stepping month j are a prefix and each month works on
    slices. A customer whose survival fell below ``eps`` stays in the prefix
    until its last stepped month, masked out of every update, and the
    results are put back in input order.

    A negative tenure raises ValueError. Returns ``(ert, clv, truncated_at)``.
    """
    eps, horizon, rate = config.eps, config.max_horizon, discount.monthly_rate
    t0 = np.asarray(t0, dtype=np.int64)
    if np.any(t0 < 0):
        raise ValueError("tenure must be >= 0")
    tail_start = max(len(table) - 1 for table in tables)
    steps = np.clip(tail_start - t0, 0, horizon)
    order = np.argsort(-steps, kind="stable")
    steps, t0 = steps[order], t0[order]
    alphas = [np.asarray(alpha, dtype=np.float64)[order] for alpha in alphas]
    margins = np.asarray(margins, dtype=np.float64)[order]
    n = t0.size
    survival = np.ones(n)
    ert = np.zeros(n)
    value = np.zeros(n)
    truncated = np.full(n, horizon - 1, dtype=np.int64)
    dfs = discount.factors(int(steps.max(initial=0)))  # dfs[j]: after j months
    # stepping[j]: how many customers step month j (steps > j), a prefix.
    stepping = np.searchsorted(-steps, -np.arange(steps.max(initial=0)), side="left")
    for j, m in enumerate(stepping.tolist()):
        s = survival[:m]
        live = s >= eps  # the others stopped at eps; the masks leave them as they were
        np.multiply(s, 1.0 - _hazard(tables, [alpha[:m] for alpha in alphas], t0[:m] + j),
                    out=s, where=live)
        np.add(ert[:m], s, out=ert[:m], where=live)
        np.add(value[:m], s * margins[:m] * dfs[j + 1], out=value[:m], where=live)
        truncated[:m][live & (s < eps)] = j

    tail = np.flatnonzero((steps < horizon) & (survival >= eps))
    if tail.size:
        s = survival[tail]
        first = steps[tail]
        q = 1.0 - _hazard(tables, [alpha[tail] for alpha in alphas], tail_start)
        k = _months_to_eps(s, q, eps, horizon - first)
        truncated[tail] = first + k - 1
        ert[tail] += s * _geometric(q, k, 0.0)
        value[tail] += margins[tail] * s * dfs[first] * _geometric(q, k, rate)
    for result in (ert, value, truncated):  # back to input order
        result[order] = result.copy()
    return ert, value, truncated
