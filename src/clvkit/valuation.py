"""Customer lifetime value from survival paths and margins.

CLV is the sum over future months of the probability of still being a
customer times that month's margin, discounted end-of-period: month t
(t = 1, 2, ...) contributes survival * margin / (1 + r)^t, the factor being
a running product of 1 / (1 + r) (``DiscountSpec.factors``). With no
discounting and a constant margin this collapses to margin times expected
remaining tenure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidRate, MarginSeriesTooShort


@dataclass(frozen=True)
class DiscountSpec:
    """Monthly discount rate; 0 disables discounting."""

    monthly_rate: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.monthly_rate) and self.monthly_rate >= 0.0):
            raise InvalidRate(f"monthly rate must be finite and >= 0, got {self.monthly_rate!r}")

    def factors(self, months: int) -> np.ndarray:
        """Discount factors ``d[j]`` for j = 0..months, ``d[0] = 1``.

        Each factor is the previous one times ``1 / (1 + rate)``; the
        cumulative product performs exactly that multiplication chain.
        """
        step = np.full(months + 1, 1.0 / (1.0 + self.monthly_rate))
        step[0] = 1.0
        return np.cumprod(step)


@dataclass(frozen=True)
class MarginSpec:
    """Monthly profit margin: a single constant or a per-period series.

    A series is tenure-aligned with the projection: element j is the margin
    for the j-th projected month. Negative margins are allowed (loss-making
    customers), so CLV may be negative.
    """

    constant: float | None = None
    series: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.constant is None) == (self.series is None):
            raise ValueError("specify exactly one of constant or series")
        if self.constant is not None and not math.isfinite(self.constant):
            raise ValueError("constant margin must be finite")
        if self.series is not None:
            series = tuple(float(m) for m in self.series)
            if any(not math.isfinite(m) for m in series):
                raise ValueError("margin series must be finite")
            object.__setattr__(self, "series", series)

    @classmethod
    def const(cls, margin: float) -> "MarginSpec":
        return cls(constant=float(margin))

    @classmethod
    def per_period(cls, series: Sequence[float]) -> "MarginSpec":
        return cls(series=tuple(series))


def clv(survival_path: np.ndarray, margins: MarginSpec,
        discount: DiscountSpec | None = None) -> float:
    """Discounted margin stream weighted by survival probabilities.

    ``survival_path[j]`` is the probability of remaining a customer for at
    least ``j + 1`` further months (as produced by the projection module).
    An empty path values the customer at 0.
    """
    path = np.asarray(survival_path, dtype=np.float64)
    if discount is None:
        discount = DiscountSpec()
    if margins.series is not None:
        if len(margins.series) < path.size:
            raise MarginSeriesTooShort(
                f"series covers {len(margins.series)} months, path needs {path.size}")
        m = np.asarray(margins.series[:path.size], dtype=np.float64)
    else:
        m = margins.constant
    return float(np.sum(path * m * discount.factors(path.size)[1:]))


def clv_constant(ert_months: float, margin: float) -> float:
    """Undiscounted constant-margin shortcut: margin times expected tenure."""
    if ert_months < 0.0 or not math.isfinite(ert_months):
        raise ValueError("ert_months must be finite and >= 0")
    return margin * ert_months


def annual_to_monthly_rate(annual_rate: float) -> float:
    """Convert a compounding annual discount rate to its monthly equivalent."""
    if not (math.isfinite(annual_rate) and annual_rate >= 0.0):
        raise InvalidRate(f"annual rate must be finite and >= 0, got {annual_rate!r}")
    return (1.0 + annual_rate) ** (1.0 / 12.0) - 1.0
