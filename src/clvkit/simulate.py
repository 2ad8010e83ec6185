"""Synthetic cohorts with known ground truth.

The generator plants a known baseline hazard shape and per-customer scaling
coefficients, simulates one-month churn outcomes for a snapshot population,
and emits matching calibration and scoring files plus a truth file holding
each customer's true coefficient, expected remaining tenure, and lifetime
value. Scoring rows carry the true next-month hazard as the churn score (a
perfect churn model) unless score noise is switched on, so errors observed
downstream isolate the projection method itself.

Customer i draws from its own stream, ``PCG64(SeedSequence((seed, i)))``,
so any parallel split of the cohort reproduces the serial output exactly
and the three files are byte-stable per ``(seed, i)``. The streams are not
seeded one ``SeedSequence`` at a time: ``pcg64_states`` runs SeedSequence's
published hash-mix over every customer's entropy words at once (numpy
uint32 columns) and applies PCG64's seeding step, and one ``Generator`` is
set to each customer's state in turn for that customer's draws. Every run
checks the first and last customers' states against numpy's own seeding
and raises on a mismatch rather than writing other streams.

Only the draws run per customer, in one loop over the causes (single risk
is one cause) and in a fixed order: one alpha per cause (voluntary, then
involuntary), the churn uniform, the cause uniform for churners under
competing risks, then one score noise per cause. Everything else
(base rates, clipping, churn flags, causes, scores, truth) is computed on
numpy columns, and the cohort holds column batches that the writers format
through line templates. Truth comes from one call of the batch kernel
``projection.project_batch``: the planted shape is resolved to a hazard
table, each customer steps month by month up to the shape's last change,
and the constant-hazard rest of the sum is added in closed form
(``truncated_at`` being the month month-stepping would stop at).
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, reduce
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .dataio import (
    CAUSE_INVOLUNTARY,
    CAUSE_VOLUNTARY,
    MAX_CALIBRATION_TENURE,
    CalibrationBatch,
    CalibrationRecord,
    ScoringBatch,
    ScoringRecord,
    as_batches,
    json_number,
    write_csv,
)
from .projection import ProjectionConfig, project_batch
from .survival import lookup
from .valuation import DiscountSpec


def _check(name: str, value, ok: bool, rule: str) -> None:
    """Raise ValueError naming ``name`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must {rule}, got {value!r}")


def _check_rate(name: str, value: float) -> None:
    _check(name, value, 0.0 <= value <= 1.0, "lie in [0, 1]")


@dataclass(frozen=True)
class FlatShape:
    """Constant hazard at every tenure."""

    h: float

    def __post_init__(self):
        _check_rate("h", self.h)

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

    def __post_init__(self):
        _check_rate("h1", self.h1)
        _check_rate("h2", self.h2)

    def rate(self, t: int) -> float:
        return self.h1 if t < self.change_t else self.h2

    def table(self, limit: int) -> np.ndarray:
        return np.array([self.rate(t) for t in range(min(max(self.change_t, 0), limit) + 1)])


@dataclass(frozen=True)
class DecayingShape:
    """Geometrically decaying hazard a * b**t (0 <= a <= 1, 0 < b <= 1)."""

    a: float
    b: float

    def __post_init__(self):
        _check_rate("a", self.a)
        _check("b", self.b, 0.0 < self.b <= 1.0, "lie in (0, 1]")

    def rate(self, t: int) -> float:
        return self.a * self.b ** t

    def table(self, limit: int) -> np.ndarray:
        return np.array([self.rate(t) for t in range(limit + 1)])


# A shape's ``table(limit)`` is its resolved hazard table, as
# ``BaselineHazard.table`` holds for a baseline: the rates at tenures 0..s for
# some s <= limit, the last one holding from s on (decaying shapes never
# settle, so theirs runs to the limit).
BaselineShape = Union[FlatShape, StepShape, DecayingShape]


@dataclass(frozen=True)
class FixedAlpha:
    a: float

    def __post_init__(self):
        _check("a", self.a, math.isfinite(self.a) and self.a >= 0.0, "be finite and >= 0")

    def draw(self, rng: np.random.Generator) -> float:
        return self.a


@dataclass(frozen=True)
class LognormalAlpha:
    mu: float
    sigma: float

    def __post_init__(self):
        _check("mu", self.mu, math.isfinite(self.mu), "be finite")
        _check("sigma", self.sigma, math.isfinite(self.sigma) and self.sigma >= 0.0,
               "be finite and >= 0")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))


AlphaDist = Union[FixedAlpha, LognormalAlpha]

# Customer indices are one 32-bit entropy word each (see ``pcg64_states``).
MAX_CUSTOMERS = 2 ** 32


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
        _check("n_customers", self.n_customers, 1 <= self.n_customers <= MAX_CUSTOMERS,
               f"lie in [1, {MAX_CUSTOMERS}]")
        # A calibration file past the tenure ceiling could not be read back.
        _check("max_tenure", self.max_tenure, 0 <= self.max_tenure <= MAX_CALIBRATION_TENURE,
               f"lie in [0, {MAX_CALIBRATION_TENURE}]")
        _check("seed", self.seed, self.seed >= 0, "be >= 0")
        if self.competing is not None:
            _check("competing", self.competing, 0.0 <= self.competing <= 1.0,
                   "lie in [0, 1]")
        _check("alpha_dist_inv", self.alpha_dist_inv,
               self.alpha_dist_inv is None or self.competing is not None,
               "be unset without competing")
        _check("score_noise_sigma", self.score_noise_sigma,
               math.isfinite(self.score_noise_sigma) and self.score_noise_sigma >= 0.0,
               "be finite and >= 0")
        _check("margin", self.margin, math.isfinite(self.margin), "be finite")
        _check("discount_monthly", self.discount_monthly,
               math.isfinite(self.discount_monthly) and self.discount_monthly >= 0.0,
               "be finite and >= 0")


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth for one simulated customer."""

    customer_id: str
    true_alpha: float
    true_ert: float
    true_clv: float


class TruthBatch(NamedTuple):
    """Ground truth for consecutive customers, as columns."""

    ids: tuple[str, ...]
    true_alpha: np.ndarray
    true_ert: np.ndarray
    true_clv: np.ndarray

    @classmethod
    def from_records(cls, records: list[TruthRecord]) -> TruthBatch:
        return cls(tuple(r.customer_id for r in records),
                   np.array([r.true_alpha for r in records], dtype=np.float64),
                   np.array([r.true_ert for r in records], dtype=np.float64),
                   np.array([r.true_clv for r in records], dtype=np.float64))

    def records(self) -> Iterator[TruthRecord]:
        for fields in zip(self.ids, self.true_alpha.tolist(), self.true_ert.tolist(),
                          self.true_clv.tolist()):
            yield TruthRecord(*fields)


@dataclass(eq=False)
class Cohort:
    """Generated snapshot as column batches: calibration, scoring and truth.

    ``calibration``, ``scoring`` and ``truth`` are the same rows as records,
    built on first access.
    """

    calibration_batch: CalibrationBatch
    scoring_batch: ScoringBatch
    truth_batch: TruthBatch
    clipped_hazards: int = 0

    @cached_property
    def calibration(self) -> list[CalibrationRecord]:
        return list(self.calibration_batch.records())

    @cached_property
    def scoring(self) -> list[ScoringRecord]:
        return list(self.scoring_batch.records())

    @cached_property
    def truth(self) -> list[TruthRecord]:
        return list(self.truth_batch.records())


def truncated_survival_sum(hazard_fn: Callable[[int], float],
                           eps: float, max_horizon: int,
                           ) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Expected remaining tenure by stepping every month, from first principles.

    Walks months j = 0, 1, ... pulling the hazard for each from
    ``hazard_fn``, accumulating the survival product and its running sum.
    Stops after the first month whose survival drops below ``eps`` (that
    month is still included) or at ``max_horizon`` months.

    Returns ``(ert, hazard_path, survival_path, truncated_at)``.
    """
    survival = 1.0
    ert = 0.0
    hazards: list[float] = []
    path: list[float] = []
    for j in range(max_horizon):
        h = hazard_fn(j)
        survival *= 1.0 - h
        hazards.append(h)
        path.append(survival)
        ert += survival
        if survival < eps:
            break
    return ert, np.array(hazards), np.array(path), len(path) - 1


def true_ert(hazard_path: Sequence[float] | Callable[[int], float],
             eps: float = 1e-6, max_horizon: int = 1200) -> float:
    """Expected remaining tenure evaluated directly on a known hazard path.

    The independent oracle: ``truncated_survival_sum`` steps every month to
    ``eps`` or ``max_horizon`` and shares no code with the batch kernel
    (``projection.project_batch``) behind the simulator's truth and every
    projection, which closes the constant tail in closed form.
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


# SeedSequence's hash-mix constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """``n >= 0`` as little-endian 32-bit words, as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _HashMix:
    """SeedSequence's ``hashmix`` over uint32 columns.

    The multiplier advances by one step per call whatever the values, so one
    scalar serves every customer.
    """

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def pcg64_states(seed: int, indices: np.ndarray) -> tuple[list[int], list[int]]:
    """PCG64 ``(state, inc)`` lists of ``PCG64(SeedSequence((seed, i)))`` for each index.

    Each customer's entropy is ``words(seed) + words(i)`` (``i < 2**32``, one
    word). The pool of four words is mixed as ``SeedSequence.mix_entropy``
    mixes it, ``generate_state(4, uint64)`` draws four words from it, and
    PCG64 seeds from those with ``initstate = w0 << 64 | w1`` and ``initseq =
    w2 << 64 | w3``: ``inc = initseq << 1 | 1`` and ``state = (inc +
    initstate) * M + inc`` modulo 2**128. The integers are numpy's
    ``bit_generator.state["state"]`` values.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= MAX_CUSTOMERS):
        raise ValueError(f"customer indices must lie in [0, {MAX_CUSTOMERS})")
    entropy = [np.full(indices.size, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(indices.astype(np.uint32))
    hashmix = _HashMix(_INIT_A, _MULT_A)
    zeros = np.zeros(indices.size, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zeros) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _HashMix(_INIT_B, _MULT_B)
    words = [draw(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    # generate_state's uint64 words are little-endian pairs of uint32 words.
    w0, w1, w2, w3 = ((words[2 * k] | words[2 * k + 1] << np.uint64(32)).astype(object)
                      for k in range(4))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return state.tolist(), inc.tolist()


# Customers seeded per call of ``pcg64_states``: bounds the Python ints held.
_SEED_CHUNK = 4096


def _customer_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """One generator set in turn to the streams of customers 0..n-1.

    The states of customers 0 and n-1 are checked against numpy's own
    seeding before their draws; a mismatch raises RuntimeError.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    doc = bitgen.state
    pcg = doc["state"]
    for start in range(0, n, _SEED_CHUNK):
        states, incs = pcg64_states(seed, np.arange(start, min(start + _SEED_CHUNK, n)))
        for i in {0, n - 1} & {start, start + len(states) - 1}:
            expected = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
            if (expected["state"], expected["inc"]) != (states[i - start], incs[i - start]):
                raise RuntimeError(f"bulk PCG64 seeding disagrees with numpy "
                                   f"{np.__version__} at customer {i} of seed {seed}")
        for state, inc in zip(states, incs):
            pcg["state"] = state
            pcg["inc"] = inc
            bitgen.state = doc
            yield rng


def _shares_where(parts: list[np.ndarray], total: np.ndarray,
                  over: np.ndarray) -> list[np.ndarray]:
    """Each part over ``total`` where ``over``, else the part itself; a NaN
    share (an infinite part) reads 1, as ``min(1, x)`` does for one cause."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return [np.where(over, np.fmin(part / total, 1.0), part) for part in parts]


def generate_cohort(spec: SimSpec) -> Cohort:
    """Generate calibration, scoring, and truth rows for one snapshot.

    Snapshot tenures are assigned round-robin over 0..max_tenure, giving
    every tenure bin the same exposure (up to one customer). Deterministic
    in the seed.

    Single risk is one cause with the whole baseline. Cause c's planted
    hazard is ``alpha_c * share_c * base`` and the customer's is their sum
    ``p``, clipped at 1. Before noise a cause's score is its hazard, or its
    share of ``p`` where ``p > 1``; after noise, a customer whose scores sum
    above 1 gets each score's share of the sum. ``clipped_hazards`` counts
    the customers clipped either way, once each.
    """
    n = spec.n_customers
    if spec.competing is None:
        dists, shares, score_names = [spec.alpha_dist], [1.0], ["churn_score"]
    else:
        dist_inv = spec.alpha_dist if spec.alpha_dist_inv is None else spec.alpha_dist_inv
        dists = [spec.alpha_dist, dist_inv]
        shares = [spec.competing, 1.0 - spec.competing]
        score_names = ["score_v", "score_inv"]
    causes = len(dists)
    sigma = spec.score_noise_sigma
    table = spec.baseline_shape.table(spec.max_tenure + spec.projection.max_horizon)
    t0 = np.arange(n, dtype=np.int64) % (spec.max_tenure + 1)
    base = lookup(table, t0)
    width = max(6, len(str(n - 1)))
    ids = tuple(map(f"c%0{width}d".__mod__, range(n)))

    # The draws, customer by customer in stream order, into flat lists.
    alphas, u_churn, u_cause, noises = [], [], [], []
    per_cause = list(zip(dists, shares))
    for rng, b in zip(_customer_streams(spec.seed, n), base.tolist()):
        p = 0.0
        for dist, share in per_cause:
            alpha = dist.draw(rng)
            alphas.append(alpha)
            p += alpha * share * b
        u = rng.random()
        u_churn.append(u)
        if causes > 1 and u < p:  # a churner draws its cause
            u_cause.append(rng.random())
        if sigma > 0.0:
            for _ in dists:
                noises.append(rng.lognormal(0.0, sigma))

    alphas = np.array(alphas, dtype=np.float64).reshape(n, causes).T
    u_churn = np.array(u_churn)
    coefs = [alpha * share for alpha, share in zip(alphas, shares)]
    raw = [coef * base for coef in coefs]
    p = reduce(operator.add, raw)
    churned = u_churn < p  # u < 1, so clipping p at 1 never changes who churns
    cause = None
    if causes > 1:  # voluntary while the cause uniform is below the voluntary share
        cause = np.full(n, "", dtype="U1")
        cause[churned] = np.where(np.array(u_cause) < raw[0][churned] / p[churned],
                                  CAUSE_VOLUNTARY, CAUSE_INVOLUNTARY)
    clipped = p > 1.0
    scores = _shares_where(raw, p, clipped)
    if sigma > 0.0:
        scores = [score * noise for score, noise
                  in zip(scores, np.array(noises).reshape(n, causes).T)]
        total = reduce(operator.add, scores)
        over = ~(total <= 1.0)
        scores = _shares_where(scores, total, over)
        clipped |= over

    margin = np.full(n, float(spec.margin))
    ert, value, _ = project_batch([table] * causes, coefs, t0, margin,
                                  DiscountSpec(spec.discount_monthly), spec.projection)
    return Cohort(CalibrationBatch(ids, t0, churned.astype(np.int64), cause, None),
                  ScoringBatch(ids, t0, margin, **dict(zip(score_names, scores))),
                  TruthBatch(ids, reduce(operator.add, coefs), ert, value), int(clipped.sum()))


TRUTH_COLUMNS = ["customer_id", "true_alpha", "true_ert", "true_clv"]
_TRUTH_LINE = "%s,%.6f,%.6f,%.6f\n"


def write_truth(path: str | Path, truths: TruthBatch | Iterable[TruthRecord]) -> int:
    """Write the per-customer truth file next to the generated CSVs.

    ``truths`` is a column batch or truth records; returns the row count.
    """
    return write_csv(path, TRUTH_COLUMNS, _TRUTH_LINE,
                     ((b.ids, b[1:]) for b in as_batches(truths, TruthBatch)))


# Kinds of the nested spec documents: the class built and its numeric keys.
_SHAPES = {"flat": (FlatShape, {"h": float}),
           "step": (StepShape, {"h1": float, "h2": float, "change_t": int}),
           "decaying": (DecayingShape, {"a": float, "b": float})}
_ALPHA_DISTS = {"fixed": (FixedAlpha, {"a": float}),
                "lognormal": (LognormalAlpha, {"mu": float, "sigma": float})}


def _nested(doc: dict, key: str, kinds: dict):
    """The object the document at ``doc[key]`` describes; errors name ``key.field``."""
    sub = doc[key]
    if not isinstance(sub, dict):
        raise ValueError(f"{key} must be a JSON object")
    kind = sub.get("kind")
    if kind not in kinds:
        raise ValueError(f"unknown {key} kind {kind!r}")
    cls, numbers = kinds[kind]
    for name in numbers:
        if name not in sub:
            raise ValueError(f"{key} missing key: {name}")
    try:
        return cls(**{name: json_number(sub[name], name, conv) for name, conv in numbers.items()})
    except ValueError as exc:  # its message starts with the field's name
        raise ValueError(f"{key}.{exc}") from None


# The simulation spec's keys in parse order, each with its number type or its
# nested kinds: SimSpec's fields, with ``projection`` as ProjectionConfig's.
# An omitted key takes the dataclass default; null is allowed where that is None.
_SPEC = {"baseline_shape": _SHAPES, "alpha_dist": _ALPHA_DISTS, "n_customers": int,
         "max_tenure": int, "seed": int, "competing": float, "alpha_dist_inv": _ALPHA_DISTS,
         "score_noise_sigma": float, "margin": float, "discount_monthly": float,
         "eps": float, "max_horizon": int}


def simspec_from_dict(doc: dict) -> SimSpec:
    """Parse a simulation spec document, rejecting unknown keys and bad values.

    Each error is a ValueError whose message names the offending key.
    """
    if not isinstance(doc, dict):
        raise ValueError("simulation spec must be a JSON object")
    unknown = set(doc) - set(_SPEC)
    if unknown:
        raise ValueError(f"unknown simulation spec keys: {sorted(unknown)}")
    for f in fields(SimSpec):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
            raise ValueError(f"simulation spec missing key: {f.name}")
    nullable = {f.name for f in fields(SimSpec) if f.default is None}
    values = {key: None if doc[key] is None and key in nullable
              else _nested(doc, key, kind) if isinstance(kind, dict)
              else json_number(doc[key], key, kind)
              for key, kind in _SPEC.items() if key in doc}
    projection = {f.name: values.pop(f.name) for f in fields(ProjectionConfig)
                  if f.name in values}
    return SimSpec(**values, projection=ProjectionConfig(**projection))
