"""Baseline hazard estimation over discrete tenure months.

The baseline hazard at tenure ``t`` is the probability that a customer who
has completed ``t`` months churns during the following month. It is
estimated nonparametrically from a one-month-ahead snapshot (churn rates by
tenure) or from full histories via the product-limit (Kaplan-Meier)
estimator. Beyond the point where the curve stabilizes, a single pooled
tail rate extrapolates it to arbitrary tenures.

Below the tail, a bin with fewer events than the baseline's own pooling
threshold, or with no exposure, takes the rate of a window of neighbors:
``pooling_windows`` picks the windows from prefix sums, and
``BaselineHazard.table`` tabulates the hazard at every tenure from the
counts' ``window_sums``. The table is computed on first use, is read-only,
and is kept for the baseline's life; ``hazard_at`` reads one entry of it
(total for all t >= 0), and every projection indexes it. The threshold is
part of the baseline, as the hazard below the tail depends on it: it is
saved with the baseline document and read back with it.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataio import (
    CALIBRATION_BATCH_SIZE,
    CAUSES,
    MAX_CALIBRATION_TENURE,
    CalibrationBatch,
    CalibrationRecord,
    chunks,
    json_number,
    json_string,
)
from .errors import (
    EmptyCalibration,
    EmptyTail,
    InsufficientData,
    InvalidDocument,
    InvalidHazard,
    InvalidRecord,
    NotMonotone,
)

log = logging.getLogger(__name__)

SMOOTHING_NONE = "none"
SMOOTHING_JEFFREYS = "jeffreys"

BASELINE_SCHEMA_VERSION = 1

# The pooling threshold of a baseline that was built without one.
DEFAULT_MIN_EVENTS = 5

# Keys of the versioned baseline JSON document. "min_events" is optional and
# carries the pooling threshold chosen when the file was built.
_BASELINE_KEYS = {"version", "hazards", "exposures", "events", "tail_start",
                  "tail_rate", "smoothing"}
_BASELINE_OPTIONAL_KEYS = {"min_events"}


@dataclass(frozen=True)
class EventHistory:
    """A full observation: total observed tenure and whether churn was seen.

    ``churned=False`` means right-censored: the customer was still active
    after ``duration`` completed months.
    """

    duration: int
    churned: bool

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class BaselineHazard:
    """Hazard rate per tenure month plus the counts behind it.

    ``hazards[t]`` is the churn rate of customers at tenure ``t`` over the
    following month; bins with zero exposure hold NaN (absent, filled at
    lookup time by pooling). ``tail_rate`` applies to every tenure at or
    beyond ``tail_start``. ``min_events`` is the pooling threshold chosen
    when the baseline was built, or None where none was, in which case
    lookups pool at ``DEFAULT_MIN_EVENTS`` (``pooling_threshold``). The
    document saves it only when chosen; ``to_dict`` and ``content_sha``
    leave it out. ``table`` and the ``jeffreys_view`` are computed on first
    use and kept, as the fields they derive from never change.
    """

    hazards: np.ndarray
    exposures: np.ndarray
    events: np.ndarray
    tail_start: int
    tail_rate: float
    smoothing: str = SMOOTHING_NONE
    min_events: int | None = None

    def __post_init__(self):
        hazards = np.asarray(self.hazards, dtype=np.float64)
        exposures = np.asarray(self.exposures, dtype=np.int64)
        events = np.asarray(self.events, dtype=np.int64)
        if not (len(hazards) == len(exposures) == len(events)) or len(hazards) == 0:
            raise ValueError("hazards, exposures, events must be equal-length, non-empty")
        if np.any(exposures < 0) or np.any(events < 0) or np.any(events > exposures):
            raise ValueError("counts must satisfy 0 <= events[t] <= exposures[t]")
        absent = np.isnan(hazards)
        if np.any(absent & (exposures > 0)):
            raise ValueError("hazard may be absent (NaN) only where exposure is 0")
        present = hazards[~absent]
        if np.any((present < 0.0) | (present > 1.0)):
            raise ValueError("hazards must lie in [0, 1]")
        if not 0 <= self.tail_start <= len(hazards):
            raise ValueError("tail_start must lie in [0, T_max + 1]")
        if not (math.isfinite(self.tail_rate) and 0.0 <= self.tail_rate <= 1.0):
            raise ValueError("tail_rate must be a rate in [0, 1]")
        _check_smoothing(self.smoothing)
        if self.min_events is not None:
            if self.min_events < 0:
                raise ValueError("min_events must be >= 0")
            object.__setattr__(self, "min_events", int(self.min_events))
        for arr in (hazards, exposures, events):
            arr.setflags(write=False)
        object.__setattr__(self, "hazards", hazards)
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "tail_start", int(self.tail_start))
        object.__setattr__(self, "tail_rate", float(self.tail_rate))

    @property
    def t_max(self) -> int:
        """Largest tenure with an observed bin."""
        return len(self.hazards) - 1

    @property
    def pooling_threshold(self) -> int:
        """Events a bin below the tail needs to keep its own rate."""
        return DEFAULT_MIN_EVENTS if self.min_events is None else self.min_events

    @cached_property
    def table(self) -> np.ndarray:
        """Dense read-only hazard table ``h[0..tail_start]`` with pooling applied.

        A bin with at least the baseline's ``pooling_threshold`` events and
        some exposure keeps its own rate; any other takes the rate of its
        ``pooling_windows`` window under the baseline's own smoothing, or the
        tail rate if the whole range has no exposure. The last entry is the
        tail rate, so the hazard at any tenure ``t`` is
        ``h[min(t, tail_start)]`` (see ``lookup``).
        """
        lo, hi, pooled = pooling_windows(self)
        events, exposures = (window_sums(c, lo, hi) for c in (self.events, self.exposures))
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(exposures > 0, _smoothed_rate(events, exposures, self.smoothing),
                             self.tail_rate)
        table = np.append(np.where(pooled, rates, self.hazards[lo]), self.tail_rate)
        table.setflags(write=False)
        return table

    @cached_property
    def _jeffreys(self) -> BaselineHazard:
        """``jeffreys_view`` of this baseline."""
        tail_start = self.tail_start
        tail_n = int(self.exposures[tail_start:].sum())
        tail_rate = self.tail_rate
        if tail_n > 0:
            tail_e = int(self.events[tail_start:].sum())
            tail_rate = _smoothed_rate(tail_e, tail_n, SMOOTHING_JEFFREYS)
        return replace(_from_counts(self.events, self.exposures, SMOOTHING_JEFFREYS),
                       tail_start=tail_start, tail_rate=tail_rate, min_events=self.min_events)

    def to_dict(self) -> dict:
        hazards = [None if math.isnan(h) else h for h in self.hazards.tolist()]
        return {
            "version": BASELINE_SCHEMA_VERSION,
            "hazards": hazards,
            "exposures": self.exposures.tolist(),
            "events": self.events.tolist(),
            "tail_start": self.tail_start,
            "tail_rate": self.tail_rate,
            "smoothing": self.smoothing,
        }

    def content_sha(self) -> str:
        """Hash of the canonical serialized form; identifies this baseline."""
        import hashlib  # loaded only by the commands that hash a baseline

        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _smoothed_rate(events, exposure, smoothing: str):
    """Churn rate from counts (scalars or arrays) under ``smoothing``."""
    if smoothing == SMOOTHING_JEFFREYS:
        return (events + 0.5) / (exposure + 1.0)
    return events / exposure


def _from_counts(events: np.ndarray, exposures: np.ndarray,
                 smoothing: str) -> BaselineHazard:
    """Per-bin rates from counts (NaN where unobserved) and a provisional tail.

    Until ``extrapolate_tail`` fixes it, the tail starts past the last bin at
    the pooled overall rate, so ``hazard_at`` stays total.
    """
    hazards = np.full(len(events), np.nan)
    mask = exposures > 0
    hazards[mask] = _smoothed_rate(events[mask], exposures[mask], smoothing)
    total_n = int(exposures.sum())
    return BaselineHazard(hazards, exposures, events, tail_start=len(exposures),
                          tail_rate=float(events.sum() / total_n) if total_n > 0 else 0.0,
                          smoothing=smoothing)


def _item(column: np.ndarray, i: int):
    """Entry ``i`` of a column as the Python value it was built from."""
    return column[i:i + 1].tolist()[0]


def _first_invalid(tenure: np.ndarray, churned: np.ndarray, cause: np.ndarray | None,
                   causes: Sequence[str], start: int) -> None:
    """Raise InvalidRecord for the first row that cannot be counted.

    Columns may hold objects (``_record_batches``), so the tenure check
    covers type as well as sign. A tenure past ``MAX_CALIBRATION_TENURE`` is
    invalid too: counting sizes its arrays by the largest tenure. A
    churner's ``cause`` must be one of ``causes`` when counting by cause.
    ``start`` is the index of the batch's first row.
    """
    if tenure.dtype == object:
        bad_tenure = np.fromiter(
            (not isinstance(t, (int, np.integer)) or isinstance(t, bool)
             or not 0 <= t <= MAX_CALIBRATION_TENURE for t in tenure.tolist()),
            bool, len(tenure))
    else:
        bad_tenure = (tenure < 0) | (tenure > MAX_CALIBRATION_TENURE)
    bad_churn = ~((churned == 0) | (churned == 1))
    bad = bad_tenure | bad_churn
    if causes:
        bad |= (churned == 1) & ~np.logical_or.reduce([cause == c for c in causes])
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if bad_tenure[i]:
        raise InvalidRecord(start + i, "tenure must be an integer in "
                                       f"[0, {MAX_CALIBRATION_TENURE}], got {_item(tenure, i)!r}")
    if bad_churn[i]:
        raise InvalidRecord(start + i, f"churn flag must be 0 or 1, got {_item(churned, i)!r}")
    got = None if cause is None else _item(cause, i)
    raise InvalidRecord(start + i, f"churner needs cause {' or '.join(causes)}, got {got!r}")


def _plus(total: np.ndarray, tenures: np.ndarray, size: int) -> np.ndarray:
    """``total`` plus the count of each tenure, over at least ``size >= len(total)`` bins."""
    counts = np.bincount(tenures, minlength=size)
    counts[:len(total)] += total
    return counts


def _count(batches: Iterable[CalibrationBatch],
           causes: Sequence[str]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exposures per tenure, and the events per tenure of each of ``causes``.

    With no causes, the one event vector counts every churner and the cause
    column is not read. Rows are numbered from 0 across batches in
    InvalidRecord. All arrays have length ``t_max + 1``.
    """
    exposures = np.zeros(0, dtype=np.int64)
    events = [exposures] * max(len(causes), 1)
    start = 0
    for batch in batches:
        _first_invalid(batch.tenure, batch.churned, batch.cause, causes, start)
        tenure = batch.tenure.astype(np.int64, copy=False)
        churned = batch.churned == 1
        exposures = _plus(exposures, tenure, len(exposures))
        size = len(exposures)
        masks = [churned & (batch.cause == c) for c in causes] or [churned]
        events = [_plus(e, tenure[mask], size) for e, mask in zip(events, masks)]
        start += len(tenure)
    if start == 0:
        raise EmptyCalibration("no calibration records")
    return exposures, events


def _record_batches(records: Iterable[CalibrationRecord]) -> Iterator[CalibrationBatch]:
    """Batches of records whose columns hold the records' own objects (dtype object).

    Counting then checks the records' values as given: a tenure that is not
    an integer or a churn flag that is not 0 or 1 raises InvalidRecord.
    """
    for chunk in chunks(records, CALIBRATION_BATCH_SIZE):
        n = len(chunk)
        yield CalibrationBatch(tuple(r.customer_id for r in chunk),
                               np.fromiter((r.tenure for r in chunk), object, n),
                               np.fromiter((r.churned for r in chunk), object, n),
                               np.fromiter((r.cause for r in chunk), object, n), None)


def _check_smoothing(smoothing: str) -> None:
    if smoothing not in (SMOOTHING_NONE, SMOOTHING_JEFFREYS):
        raise ValueError(f"unknown smoothing {smoothing!r}")


def estimate_causes(batches: Iterable[CalibrationBatch], causes: Sequence[str],
                    smoothing: str = SMOOTHING_NONE) -> list[BaselineHazard]:
    """One baseline per cause over the shared exposures; no causes gives the whole base."""
    _check_smoothing(smoothing)
    exposures, events = _count(batches, causes)
    return [_from_counts(e, exposures, smoothing) for e in events]


def estimate_hazard_by_tenure(records: Iterable[CalibrationRecord],
                              smoothing: str = SMOOTHING_NONE) -> BaselineHazard:
    """Estimate the baseline hazard curve from a one-month-ahead snapshot.

    Each record contributes one unit of exposure at its tenure and one event
    if it churned. Without smoothing the bin rate is events/exposure; with
    Jeffreys smoothing it is (events + 0.5) / (exposure + 1). Bins with zero
    exposure inside the observed range are marked absent (NaN), never
    silently zero; ``hazard_at`` fills them by pooling.

    The returned baseline has ``tail_start == t_max + 1`` and a provisional
    tail rate (the pooled overall rate); call ``detect_tail_start`` and
    ``extrapolate_tail`` to fix the tail properly.
    """
    return estimate_causes(_record_batches(records), (), smoothing)[0]


def estimate_cause_specific(records: Iterable[CalibrationRecord],
                            smoothing: str = SMOOTHING_NONE,
                            ) -> tuple[BaselineHazard, BaselineHazard]:
    """Estimate voluntary and involuntary sub-hazard baselines.

    Both sub-baselines share the snapshot's exposure denominators (every
    at-risk customer counts in both), which is exactly the construction that
    makes the two sub-hazards sum to the whole-base hazard.
    Returns ``(baseline_v, baseline_inv)``.
    """
    return tuple(estimate_causes(_record_batches(records), CAUSES, smoothing))


def kaplan_meier(histories: Iterable[EventHistory]) -> np.ndarray:
    """Discrete product-limit estimate of the survival curve.

    ``S[t]`` is the estimated probability that total tenure exceeds ``t``
    completed months: the running product of (1 - d_u/n_u) where d_u counts
    churn events at duration u and n_u counts everyone still at risk
    (duration >= u; customers censored at u stay in the risk set at u and
    leave afterwards).
    """
    histories = list(histories)
    if not histories:
        raise EmptyCalibration("no event histories")
    durations = np.array([h.duration for h in histories], dtype=np.int64)
    total = np.bincount(durations)
    deaths = np.bincount(durations, [bool(h.churned) for h in histories], total.size)
    # n_u = number with duration >= u
    at_risk = total[::-1].cumsum()[::-1]
    return np.cumprod(1.0 - deaths / at_risk)


def survival_to_hazard(curve: np.ndarray) -> np.ndarray:
    """Invert a survival curve into per-period hazards.

    ``h[t] = 1 - S[t]/S[t-1]`` with an implicit predecessor of 1; once the
    curve hits zero every later hazard is 1.
    """
    curve = np.asarray(curve, dtype=np.float64)
    if curve.ndim != 1:
        raise ValueError("survival curve must be one-dimensional")
    if np.any((curve < 0.0) | (curve > 1.0)) or np.any(np.isnan(curve)):
        raise ValueError("survival values must lie in [0, 1]")
    prev = np.concatenate(([1.0], curve[:-1]))
    if np.any(curve > prev):
        raise NotMonotone("survival curve increases")
    with np.errstate(divide="ignore", invalid="ignore"):
        hazards = 1.0 - curve / prev
    hazards[prev == 0.0] = 1.0
    return hazards


def hazard_to_survival(hazards: np.ndarray) -> np.ndarray:
    """Fold per-period hazards into a survival curve (running product of 1-h)."""
    hazards = np.asarray(hazards, dtype=np.float64)
    bad = np.flatnonzero(~((hazards >= 0.0) & (hazards <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise InvalidHazard(i, float(hazards[i]))
    return np.cumprod(1.0 - hazards)


def detect_tail_start(baseline: BaselineHazard, window: int = 6,
                      rel_tol: float = 0.10, name: str | None = None) -> int:
    """Find the tenure beyond which the hazard curve has stabilized.

    Returns the smallest t* such that from t* onward every pair of adjacent
    windows of length ``window`` has exposure-weighted mean hazards within
    ``rel_tol`` of each other (relative to the larger mean). If even the
    last testable pair disagrees, falls back to the 90th percentile of
    observed tenures and logs a warning naming it, and ``name`` (the curve's
    output, say) if given. Deterministic; automates eyeballing the hazard
    plot.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    exposures = baseline.exposures
    observed = np.flatnonzero(exposures > 0)
    if observed.size < 2 * window:
        raise InsufficientData(
            f"need at least {2 * window} observed tenures, have {observed.size}")
    # Exposure and mean hazard of the window from each start. The float sums
    # go window by window, as a slice's sum() does: differences of a running
    # float sum round differently and could move the tail start.
    weighted = np.where(exposures > 0, baseline.hazards, 0.0) * exposures
    n = window_sums(exposures, np.arange(len(exposures) - window + 1),
                    np.arange(window - 1, len(exposures)))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sliding_window_view(weighted, window).sum(axis=1) / n
    m1, m2 = mean[:-window], mean[window:]
    stable = ((n[:-window] > 0) & (n[window:] > 0)
              & (np.abs(m1 - m2) <= rel_tol * np.maximum(m1, m2)))
    last = len(stable) - 1
    if not stable[last]:
        fallback = int(np.percentile(observed, 90, method="lower"))
        log.warning("no stable tail%s: the last two %d-month windows from tenure %d differ "
                    "by more than %g%% in mean hazard; the tail starts at the "
                    "90th-percentile observed tenure %d", "" if name is None else f" for {name}",
                    window, last, 100 * rel_tol, fallback)
        return fallback
    unstable = np.flatnonzero(~stable)
    return int(unstable[-1]) + 1 if unstable.size else 0


def extrapolate_tail(baseline: BaselineHazard, tail_start: int) -> BaselineHazard:
    """Fix the flat tail rate from pooled counts at tenures >= ``tail_start``.

    The tail rate is the exposure-weighted mean churn rate of the region,
    i.e. total events over total exposure. Observed bins below the tail are
    left untouched.
    """
    if not 0 <= tail_start <= baseline.t_max:
        raise ValueError(f"tail_start must lie in [0, {baseline.t_max}]")
    tail_n = int(baseline.exposures[tail_start:].sum())
    if tail_n == 0:
        raise EmptyTail(f"no exposure at tenures >= {tail_start}")
    tail_e = int(baseline.events[tail_start:].sum())
    return replace(baseline, tail_start=int(tail_start), tail_rate=tail_e / tail_n)


def window_sums(counts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums of integer ``counts`` over the tenures ``lo..hi`` (inclusive), by prefix sums."""
    prefix = np.concatenate(([0], np.cumsum(counts)))
    return prefix[hi + 1] - prefix[lo]


def pooling_windows(baseline: BaselineHazard) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window ``lo..hi`` of each tenure below the tail, and which tenures pool.

    A tenure pools when its bin holds fewer than ``min_events``, the
    baseline's ``pooling_threshold``, events or no exposure. Its window is
    ``[t-k, t+k]``, cut at the observed range, for the smallest ``k`` that
    holds at least ``min_events`` events and some exposure, or that covers
    the whole range. An unpooled tenure's window is the tenure itself.
    """
    min_events = baseline.pooling_threshold
    events, exposures, t_max = baseline.events, baseline.exposures, baseline.t_max
    t = np.arange(baseline.tail_start)
    pooled = (events[t] < min_events) | (exposures[t] == 0)
    # Windows only grow with k, so bisect for the smallest enough k; the k
    # that covers the whole range is the starting answer and is never tested.
    low, k = np.zeros_like(t), np.where(pooled, np.maximum(t, t_max - t), 0)
    while np.any(low < k):
        mid = (low + k) // 2
        lo, hi = np.maximum(t - mid, 0), np.minimum(t + mid, t_max)
        ok = (window_sums(events, lo, hi) >= min_events) & (window_sums(exposures, lo, hi) > 0)
        low, k = np.where(ok, low, mid + 1), np.where(ok, mid, k)
    return np.maximum(t - k, 0), np.minimum(t + k, t_max), pooled


def hazard_at(baseline: BaselineHazard, t: int) -> float:
    """Hazard at any tenure ``t >= 0``: one entry of ``baseline.table``, the tail
    rate from ``tail_start`` on."""
    if t < 0:
        raise ValueError("tenure must be >= 0")
    return float(baseline.table[min(t, baseline.tail_start)])


def lookup(table: np.ndarray, t):
    """Hazard at tenure (or array of tenures) ``t >= 0`` from a ``BaselineHazard.table``."""
    return table[np.minimum(t, len(table) - 1)]


def jeffreys_view(baseline: BaselineHazard) -> BaselineHazard:
    """The baseline with Jeffreys-smoothed rates from its counts, kept on it.

    Every observed bin gets (events + 0.5) / (exposure + 1), which is
    strictly inside (0, 1); the tail rate is re-pooled the same way when the
    tail region holds any exposure. Idempotent, since it recomputes from
    counts rather than from the stored rates. The pooling threshold carries
    over. The view is built once per baseline and kept on it, so its table
    is resolved once too.
    """
    return baseline._jeffreys


def baseline_from_dict(doc: dict) -> BaselineHazard:
    if not isinstance(doc, dict):
        raise ValueError("baseline document must be a JSON object")
    keys = set(doc)
    unknown = keys - _BASELINE_KEYS - _BASELINE_OPTIONAL_KEYS
    if unknown:
        raise ValueError(f"unknown baseline keys: {sorted(unknown)}")
    missing = _BASELINE_KEYS - keys
    if missing:
        raise ValueError(f"baseline document missing keys: {sorted(missing)}")
    if doc["version"] != BASELINE_SCHEMA_VERSION:
        raise ValueError(f"unsupported baseline version {doc['version']!r}")
    hazards = np.array([np.nan if h is None else json_number(h, "hazards")
                        for h in doc["hazards"]])
    exposures, events = (np.array([json_number(n, key, int) for n in doc[key]], dtype=np.int64)
                         for key in ("exposures", "events"))
    min_events = doc.get("min_events")
    return BaselineHazard(
        hazards=hazards,
        exposures=exposures,
        events=events,
        tail_start=json_number(doc["tail_start"], "tail_start", int),
        tail_rate=json_number(doc["tail_rate"], "tail_rate"),
        smoothing=json_string(doc["smoothing"], "smoothing"),
        min_events=None if min_events is None else json_number(min_events, "min_events", int),
    )


def save_baseline(path: str | Path, baseline: BaselineHazard) -> None:
    """Write the baseline document, with ``"min_events"`` when a threshold was chosen."""
    doc = baseline.to_dict()
    if baseline.min_events is not None:
        doc["min_events"] = baseline.min_events
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_baseline(path: str | Path) -> BaselineHazard:
    """Read a baseline document; a malformed one raises InvalidDocument."""
    with open(path, encoding="utf-8") as fh:
        try:
            return baseline_from_dict(json.load(fh))
        # JSONDecodeError is a ValueError; OverflowError is a count past int64,
        # RecursionError a document nested too deep to parse.
        except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
            raise InvalidDocument(path, f"not a valid baseline document: {exc}") from None
