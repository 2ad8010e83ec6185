"""The benchmark's own reference arithmetic, written from clvkit's documented rules.

Nothing here imports clvkit. The scorer's rules, as its README and
docstrings state them:

* a tenure at or beyond ``tail_start`` gets ``tail_rate``;
* an observed bin with at least ``min_events`` events (default 5) keeps its
  own rate, a sparser bin pools symmetrically expanding neighbours until
  the pooled events reach the threshold;
* ``alpha = score / h(t0)``, monthly hazard ``min(1, alpha * h(t0 + j))``
  (competing: ``min(1, alpha_v * h_v + alpha_inv * h_inv)``);
* survival is stepped month by month and summed into ERT; CLV adds
  ``survival * margin`` discounted end-of-period; summation stops after
  the first month whose survival is below ``eps`` or after ``max_horizon``.

The simulator draws each customer from ``SeedSequence((seed, index))``:
alpha first, then the churn uniform.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_MIN_EVENTS = 5
EPS = 1e-6
MAX_HORIZON = 1200


def close(got, want):
    """Whether values printed with six decimals are ``want`` rounded
    (elementwise for arrays).

    Rounding error is at most 5e-7; the relative slack admits last-digit
    differences from a reordered but equally exact summation.
    """
    return np.abs(got - want) <= 5e-7 + 1e-9 * np.maximum(1.0, np.abs(want))


def monthly_rate(annual: float) -> float:
    return (1.0 + annual) ** (1.0 / 12.0) - 1.0


class Baseline:
    """A baseline document resolved into one hazard per tenure 0..tail_start."""

    def __init__(self, path: Path):
        self.doc = json.loads(Path(path).read_text(encoding="utf-8"))
        doc = self.doc
        self.tail_start = int(doc["tail_start"])
        self.tail_rate = float(doc["tail_rate"])
        self.events = np.asarray(doc["events"], dtype=np.int64)
        self.exposures = np.asarray(doc["exposures"], dtype=np.int64)
        min_events = doc.get("min_events")
        self.min_events = DEFAULT_MIN_EVENTS if min_events is None else int(min_events)
        self.hazard = np.array([self._lookup(t) for t in range(self.tail_start)]
                               + [self.tail_rate])

    def _lookup(self, t: int) -> float:
        if self.events[t] >= self.min_events and self.exposures[t] > 0:
            return float(self.doc["hazards"][t])
        events, exposures = self.pooled(t)
        return events / exposures if exposures else self.tail_rate

    def pooled(self, t: int) -> tuple[int, int]:
        """Events and exposures of bin ``t``, widened one bin each side at a
        time until the events reach ``min_events`` or the bins run out."""
        events, exposures = self.events, self.exposures
        t_max = len(events) - 1
        lo = hi = t
        pooled_e, pooled_n = int(events[t]), int(exposures[t])
        while (pooled_e < self.min_events or pooled_n == 0) and (lo > 0 or hi < t_max):
            if lo > 0:
                lo -= 1
                pooled_e += int(events[lo])
                pooled_n += int(exposures[lo])
            if hi < t_max:
                hi += 1
                pooled_e += int(events[hi])
                pooled_n += int(exposures[hi])
        return pooled_e, pooled_n

    def at(self, t):
        """Hazard at tenure ``t`` (an int or an integer array)."""
        return self.hazard[np.minimum(t, self.tail_start)]

    @property
    def pooled_bins(self) -> int:
        """Bins below the tail whose lookups pool neighbours."""
        return int(np.sum(self.events[:self.tail_start] < self.min_events))


def step_customer(hazard_of, margin: float, monthly_discount: float,
                  eps: float = EPS, max_horizon: int = MAX_HORIZON
                  ) -> tuple[float, float, int]:
    """Month-stepping (ERT, CLV, truncated_at) with the scorer's operation order."""
    factor = 1.0 / (1.0 + monthly_discount)
    df = 1.0
    survival = 1.0
    ert = 0.0
    value = 0.0
    for j in range(max_horizon):
        df *= factor
        survival *= 1.0 - hazard_of(j)
        ert += survival
        value += survival * margin * df
        if survival < eps:
            return ert, value, j
    return ert, value, max_horizon - 1


def check_baseline(path: Path, tenure: np.ndarray, churned: np.ndarray) -> str | None:
    """Counts equal the snapshot's, hazards equal events/exposures, tail is pooled."""
    b = Baseline(path)
    size = len(b.exposures)
    exposures = np.bincount(tenure, minlength=size)
    events = np.bincount(tenure[churned == 1], minlength=size)
    if size != int(tenure.max()) + 1:
        return f"{path.name}: {size} bins for tenures up to {int(tenure.max())}"
    if not (np.array_equal(b.exposures, exposures) and np.array_equal(b.events, events)):
        return f"{path.name}: exposures or events differ from the snapshot's counts"
    for t, h in enumerate(b.doc["hazards"]):
        want = None if exposures[t] == 0 else int(events[t]) / int(exposures[t])
        if h != want:
            return f"{path.name}: hazard[{t}] = {h!r}, events/exposures = {want!r}"
    if not 0 <= b.tail_start < size:
        return f"{path.name}: tail_start {b.tail_start} outside 0..{size - 1}"
    want = int(events[b.tail_start:].sum()) / int(exposures[b.tail_start:].sum())
    if b.tail_rate != want:
        return f"{path.name}: tail_rate {b.tail_rate!r}, pooled tail {want!r}"
    return None


def read_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV file the program wrote (header dropped)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def projection_alphas(scoring, baselines: list[Baseline]
                      ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per-cause coefficients and the reported (combined) coefficient."""
    if len(baselines) == 1:
        alpha = scoring.churn_score / baselines[0].at(scoring.tenure)
        return (alpha,), alpha
    h_v = baselines[0].at(scoring.tenure)
    h_i = baselines[1].at(scoring.tenure)
    alphas = (scoring.score_v / h_v, scoring.score_inv / h_i)
    return alphas, (scoring.score_v + scoring.score_inv) / (h_v + h_i)


def check_projections(path: Path, scoring, baselines: list[Baseline],
                      monthly_discount: float, sample: np.ndarray) -> str | None:
    """Ids match the input in order, every alpha matches, and the sampled rows
    match month stepping in every column."""
    rows = read_rows(path)
    if [r[0] for r in rows] != scoring.ids:
        return f"{path.name}: customer ids differ from the scoring file's, in order"
    if any(len(row) != 5 for row in rows):
        return f"{path.name}: a row without 5 fields"
    alphas, alpha_out = projection_alphas(scoring, baselines)
    got = np.array([float(row[1]) for row in rows])
    wrong = np.flatnonzero(~close(got, alpha_out))
    if wrong.size:
        i = int(wrong[0])
        return f"{path.name} row {i + 2}: alpha {rows[i][1]}, reference {alpha_out[i]:.6f}"
    tables = [(b.hazard.tolist(), b.tail_start) for b in baselines]
    for i in sample.tolist():
        t0 = int(scoring.tenure[i])
        coefficients = [float(a[i]) for a in alphas]

        def hazard_of(j: int, t0=t0, coefficients=coefficients) -> float:
            return min(1.0, sum(a * hazard[min(t0 + j, tail_start)]
                                for a, (hazard, tail_start) in zip(coefficients, tables)))

        ert, value, truncated = step_customer(hazard_of, float(scoring.margin[i]),
                                              monthly_discount)
        row = rows[i]
        got = [float(row[1]), float(row[2]), float(row[3])]
        want = [float(alpha_out[i]), ert, value]
        if not all(close(g, w) for g, w in zip(got, want)) or int(row[4]) != truncated:
            return (f"{path.name} row {i + 2}: got {row[1:]}, reference "
                    f"{[f'{w:.6f}' for w in want] + [str(truncated)]}")
    return None


def projection_counts(path: Path, scoring, baselines: list[Baseline],
                      chunk_size: int) -> dict[str, float]:
    """Kernel work read off the output: customer-months, chunk steps, caps, clips.

    A clipped customer's survival drops to 0 in the clipped month, so the
    clip, if any, falls on ``truncated_at``.
    """
    truncated = np.array([int(r[4]) for r in read_rows(path)])
    months = truncated + 1
    chunk_steps = sum(int(months[i:i + chunk_size].max())
                      for i in range(0, months.size, chunk_size))
    alphas, _ = projection_alphas(scoring, baselines)
    last = scoring.tenure + truncated
    combined = sum(a * b.at(last) for a, b in zip(alphas, baselines))
    return {
        "pipeline.customer_months": int(months.sum()),
        "pipeline.chunk_steps": chunk_steps,
        "pipeline.capped_share": float(np.mean(truncated == MAX_HORIZON - 1)),
        "pipeline.clipped_customers": int(np.sum(combined >= 1.0)),
    }


def jeffreys_hazards(b: Baseline) -> list[float]:
    """The odds model's offset curve: the baseline's counts, Jeffreys-smoothed,
    looked up with the same pooling and tail rules; one rate per tenure
    0..tail_start."""
    tail_n = int(b.exposures[b.tail_start:].sum())
    tail = ((int(b.events[b.tail_start:].sum()) + 0.5) / (tail_n + 1.0) if tail_n
            else b.tail_rate)
    rates = []
    for t in range(b.tail_start):
        events, exposures = b.pooled(t)
        rates.append((events + 0.5) / (exposures + 1.0) if exposures else tail)
    return rates + [tail]


def check_model(path: Path, baseline: Baseline, cal, beta: np.ndarray,
                tolerance: float) -> str | None:
    """The odds fit converged to the likelihood's maximum, and that maximum
    lies within ``tolerance`` of the planted coefficients."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc["converged"] is not True:
        return f"{path.name}: fit did not converge"
    fitted = np.asarray(doc["beta"], dtype=np.float64)
    if fitted.shape != beta.shape:
        return f"{path.name}: {fitted.size} coefficients, planted {beta.size}"
    h = np.array(jeffreys_hazards(baseline))[np.minimum(cal.tenure, baseline.tail_start)]
    eta = np.log(h / (1.0 - h)) + cal.covariates @ fitted
    y = cal.churned
    log_likelihood = -float(np.sum(np.logaddexp(0.0, -eta) * y
                                   + np.logaddexp(0.0, eta) * (1 - y)))
    if not abs(doc["log_likelihood"] - log_likelihood) <= 1e-9 * abs(log_likelihood):
        return (f"{path.name}: log-likelihood {doc['log_likelihood']!r}, "
                f"recomputed {log_likelihood!r}")
    # Newton decrement: twice the log-likelihood still to gain from the fit.
    p = 1.0 / (1.0 + np.exp(-eta))
    ridge = float(doc["ridge"])
    gradient = cal.covariates.T @ (y - p) - ridge * fitted
    hessian = (cal.covariates * (p * (1.0 - p))[:, None]).T @ cal.covariates
    decrement = float(gradient @ np.linalg.solve(hessian + ridge * np.eye(beta.size), gradient))
    if not decrement <= 1e-6:
        return f"{path.name}: not at the maximum (Newton decrement {decrement:.3g})"
    error = float(np.max(np.abs(fitted - beta)))
    if not error <= tolerance:
        return f"{path.name}: max |beta - planted| = {error:.4f} > {tolerance:.4f}"
    return None


def check_simulation(out_dir: Path, spec: dict, sample: np.ndarray) -> str | None:
    """Row counts, and sampled truth, scoring and calibration rows recomputed."""
    n = spec["n_customers"]
    files = {name: read_rows(out_dir / f"{name}.csv")
             for name in ("truth", "scoring", "calibration")}
    for name, rows in files.items():
        if len(rows) != n:
            return f"{name}.csv: {len(rows)} rows for {n} customers"
    shape = spec["baseline_shape"]
    dist = spec["alpha_dist"]
    margin = spec["margin"]
    r = spec["discount_monthly"]
    width = max(6, len(str(n - 1)))

    def rate(t: int) -> float:
        return shape["h1"] if t < shape["change_t"] else shape["h2"]

    for i in sample.tolist():
        rng = np.random.default_rng(np.random.SeedSequence((spec["seed"], i)))
        alpha = float(rng.lognormal(dist["mu"], dist["sigma"]))
        t0 = i % (spec["max_tenure"] + 1)
        hazard = min(1.0, alpha * rate(t0))
        churned = int(rng.random() < hazard)
        survival = 1.0
        ert = 0.0
        path = []
        for j in range(MAX_HORIZON):
            survival *= 1.0 - min(1.0, alpha * rate(t0 + j))
            path.append(survival)
            ert += survival
            if survival < EPS:
                break
        months = np.arange(1, len(path) + 1, dtype=np.float64)
        value = float(np.sum(np.array(path) * margin * (1.0 + r) ** (-months)))
        cid = f"c{i:0{width}d}"
        truth = files["truth"][i]
        if truth[0] != cid or not all(
                close(float(g), w) for g, w in zip(truth[1:], (alpha, ert, value))):
            return f"truth.csv row {i + 2}: got {truth}, reference {[alpha, ert, value]}"
        scoring = files["scoring"][i]
        if scoring[:2] != [cid, str(t0)] or not close(float(scoring[2]), hazard):
            return f"scoring.csv row {i + 2}: got {scoring}, reference score {hazard}"
        if files["calibration"][i] != [cid, str(t0), str(churned)]:
            return f"calibration.csv row {i + 2}: got {files['calibration'][i]}"
    return None
