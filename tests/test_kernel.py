"""The batch projection kernel against month-by-month stepping.

``truncated_survival_sum`` is the reference: it steps every month to eps or
the horizon. The kernel steps only to the tail start and closes the rest of
the sum in closed form, so ``truncated_at`` must agree exactly and ERT and
CLV to 1e-12 relative (the gap left by summing in a different order).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import contextlib
import csv
import io
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clvkit import dataio
from clvkit.cli import main
from clvkit.dataio import ScoringBatch, ScoringRecord
from clvkit.errors import DegenerateBaseline, OffsetUndefined
from clvkit.odds import OddsModel, expit, logit, project_with_odds_model
from clvkit.pipeline import score_causes, score_stream_competing
from clvkit.projection import (
    ProjectionConfig,
    coefficients,
    expected_remaining_tenure,
    project_batch,
    project_competing,
    project_customer,
)
from clvkit.simulate import (
    DecayingShape,
    FixedAlpha,
    FlatShape,
    LognormalAlpha,
    SimSpec,
    StepShape,
    generate_cohort,
    pcg64_states,
    truncated_survival_sum,
)
from clvkit.survival import (
    BaselineHazard,
    hazard_at,
    jeffreys_view,
    lookup,
    save_baseline,
)
from clvkit.valuation import DiscountSpec, MarginSpec, annual_to_monthly_rate, clv

from conftest import baseline_from_rates

REL = 1e-12


@dataclass(frozen=True)
class Case:
    """One customer: resolved tables with matching alphas, plus economics."""

    tables: tuple[tuple[float, ...], ...]
    alphas: tuple[float, ...]
    t0: int
    eps: float
    max_horizon: int
    margin: float = 1.0
    rate: float = 0.0


def stepping(case: Case) -> tuple[float, float, int]:
    def hazard(j: int) -> float:
        t = case.t0 + j
        total = None
        for table, alpha in zip(case.tables, case.alphas):
            term = alpha * table[min(t, len(table) - 1)]
            total = term if total is None else total + term
        return min(1.0, total)

    ert, _, path, truncated = truncated_survival_sum(hazard, case.eps, case.max_horizon)
    value = clv(path, MarginSpec.const(case.margin), DiscountSpec(case.rate))
    return ert, value, truncated


def kernel(cases: list[Case]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    first = cases[0]
    tables = [np.array(t) for t in first.tables]
    alphas = [np.array([c.alphas[k] for c in cases]) for k in range(len(tables))]
    return project_batch(tables, alphas, np.array([c.t0 for c in cases]),
                         np.array([c.margin for c in cases]), DiscountSpec(first.rate),
                         ProjectionConfig(first.eps, first.max_horizon))


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(got), abs(want))


rates = st.one_of(st.just(0.0), st.floats(0.0, 0.3), st.floats(0.0, 1.0))
alphas = st.one_of(st.just(0.0), st.floats(0.0, 5.0))
# Margins of either sign, away from the subnormal range where relative
# precision runs out for every summation order.
margins = st.one_of(st.just(0.0), st.floats(0.01, 100.0), st.floats(-100.0, -0.01))


@st.composite
def tables_and_alphas(draw):
    causes = draw(st.integers(1, 2))
    tables = tuple(
        tuple(draw(st.lists(st.floats(0.0, 0.3), min_size=n, max_size=n))) + (draw(rates),)
        for n in draw(st.lists(st.integers(0, 40), min_size=causes, max_size=causes)))
    return tables, tuple(draw(alphas) for _ in tables)


@st.composite
def cases(draw):
    tables, alpha = draw(tables_and_alphas())
    return Case(tables, alpha, t0=draw(st.integers(0, 60)),
                eps=draw(st.floats(1e-9, 0.5)), max_horizon=draw(st.integers(1, 1500)),
                margin=draw(margins),
                rate=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))))


@settings(max_examples=400, deadline=None)
@given(case=cases())
# clipped tail: q == 0
@example(case=Case(((0.1, 0.5),), (2.5,), t0=0, eps=1e-6, max_horizon=1200))
# alpha 0 and tail rate 0: q == 1, sums run to the horizon
@example(case=Case(((0.1, 0.2),), (0.0,), t0=0, eps=1e-6, max_horizon=300, rate=0.01))
@example(case=Case(((0.1, 0.0),), (1.5,), t0=0, eps=1e-6, max_horizon=300))
@example(case=Case(((0.1, 0.0),), (1.5,), t0=0, eps=1e-6, max_horizon=300, rate=0.02))
# already in the tail
@example(case=Case(((0.3, 0.2, 0.01),), (1.2,), t0=9, eps=1e-6, max_horizon=1200, rate=0.004))
# tail start beyond the horizon
@example(case=Case(((0.01,) * 40 + (0.5,),), (1.0,), t0=0, eps=1e-6, max_horizon=10))
# survival below eps before the tail
@example(case=Case(((0.9, 0.9, 0.9, 0.01),), (1.0,), t0=0, eps=0.01, max_horizon=1200))
@example(case=Case(((0.2, 1.0, 0.3),), (1.0,), t0=0, eps=1e-6, max_horizon=1200))
# competing causes with different tail starts
@example(case=Case(((0.05, 0.02), (0.01,) * 12 + (0.004,)), (1.3, 0.7), t0=3,
                   eps=1e-6, max_horizon=1200, margin=10.0, rate=0.01))
def test_kernel_matches_month_stepping(case):
    ert, value, truncated = kernel([case])
    want_ert, want_value, want_truncated = stepping(case)
    assert int(truncated[0]) == want_truncated
    assert close(float(ert[0]), want_ert)
    assert close(float(value[0]), want_value)


@settings(max_examples=200, deadline=None)
@given(case=cases(), scale=st.floats(-100.0, 100.0), other=margins)
def test_clv_is_linear_in_margin(case, scale, other):
    # CLV(scale * m + other) = scale * CLV(m) + CLV(other), in the kernel (three
    # customers differing only in margin) and in clv() on the stepped path; ERT
    # does not depend on the margin at all.
    mixed = scale * case.margin + other
    ert, value, truncated = kernel([replace(case, margin=m)
                                    for m in (case.margin, other, mixed)])
    assert ert[0] == ert[1] == ert[2] and truncated[0] == truncated[1] == truncated[2]
    _, _, path, _ = truncated_survival_sum(
        lambda j: min(1.0, sum(a * t[min(case.t0 + j, len(t) - 1)]
                               for t, a in zip(case.tables, case.alphas))),
        case.eps, case.max_horizon)
    discount = DiscountSpec(case.rate)
    stepped = [clv(path, MarginSpec.const(m), discount) for m in (case.margin, other, mixed)]
    for v_m, v_other, v_mixed in (value.tolist(), stepped):
        size = abs(scale * v_m) + abs(v_other)
        assert abs(v_mixed - (scale * v_m + v_other)) <= 1e-12 * size + 1e-300


@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                      st.integers(2**64, 2**160)),
       indices=st.lists(st.integers(0, 2**32 - 1), max_size=6))
@example(seed=0, indices=[])
@example(seed=2**32, indices=[1, 2**32 - 1])
@example(seed=2**96, indices=[5])
def test_bulk_seeding_matches_numpy(seed, indices):
    # Entropy words(seed) + words(i) of 2 to 7 words: shorter than the pool of
    # four, filling it, and running past it into the extra mixing rounds.
    indices = [0] + indices
    states, incs = pcg64_states(seed, np.array(indices, dtype=np.int64))
    for i, state, inc in zip(indices, states, incs):
        expected = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
        assert (state, inc) == (expected["state"], expected["inc"])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_batch_equals_rows_one_at_a_time(data):
    tables, _ = data.draw(tables_and_alphas())
    n = data.draw(st.integers(1, 12))
    batch = [Case(tables, tuple(data.draw(alphas) for _ in tables),
                  t0=data.draw(st.integers(0, 50)), eps=1e-6, max_horizon=400,
                  margin=data.draw(margins), rate=0.003)
             for _ in range(n)]
    together = kernel(batch)
    for i, case in enumerate(batch):
        alone = kernel([case])
        for got, want in zip(together, alone):
            assert got[i] == want[0]


# One table per cause; both tails start late enough that customers stop in
# every way before them. Per cause: an alpha that clips the summed hazard at
# 1 (alpha * h0 > 1), one that falls below eps before the tail start, one
# that reaches the closed-form tail and 0, which runs to max_horizon.
ORDER_TABLES = ((0.3,) * 10 + (0.1,) * 20 + (0.02,), (0.05,) * 25 + (0.0,))
ORDER_ALPHAS = ((4.0, 0.0), (2.5, 1.0), (0.3, 0.5), (0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(causes=st.integers(1, 2), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       config=st.sampled_from([ProjectionConfig(1e-3, 1200), ProjectionConfig(1e-6, 20),
                               ProjectionConfig(1e-9, 45)]))
# Either holds customers that clip, stop below the tail start, stop in the
# closed-form tail and run to max_horizon.
@example(causes=1, seed=0, n=60, config=ProjectionConfig(1e-3, 1200))
@example(causes=2, seed=0, n=60, config=ProjectionConfig(1e-3, 1200))
def test_shuffled_batch_equals_one_customer_calls_bitwise(causes, seed, n, config):
    # The kernel orders customers by how many months they step; the result
    # must not show that order, down to the sign of a zero.
    rng = np.random.default_rng(seed)
    tables = [np.array(table) for table in ORDER_TABLES[:causes]]
    picked = np.array(ORDER_ALPHAS)[rng.integers(0, len(ORDER_ALPHAS), n), :causes]
    alphas = [picked[:, c] * rng.choice([1.0, 1.0001], n) for c in range(causes)]
    t0 = rng.integers(0, 40, n)
    margins = rng.choice([-0.0, 0.0, -7.5, 12.0, 1e-300], n)
    discount = DiscountSpec(float(rng.choice([0.0, 0.01])))
    batch = project_batch(tables, alphas, t0, margins, discount, config)
    for i in range(n):
        alone = project_batch(tables, [alpha[i:i + 1] for alpha in alphas], t0[i:i + 1],
                              margins[i:i + 1], discount, config)
        for got, want in zip(batch, alone):
            assert got[i:i + 1].tobytes() == want.tobytes()


def test_resolve_matches_hazard_at():
    rates = [0.2, 0.1, 0.05, 0.02, 0.0, 0.0, 0.01, 0.03]
    for min_events in (0, 5, 50):
        baseline = replace(baseline_from_rates(rates, exposure=100, tail_start=6),
                           min_events=min_events)
        table = baseline.table
        assert len(table) == baseline.tail_start + 1
        for t in range(20):
            assert table[min(t, baseline.tail_start)] == hazard_at(baseline, t)


def test_chunk_size_one_equals_batched_with_mixed_switch_months(tmp_path):
    # Two causes whose tails start at 5 and 13: customers below, between and
    # beyond both switch to the closed form in different months, within a
    # chunk and across chunk boundaries.
    rates_v = [0.04, 0.035, 0.03, 0.03, 0.025, 0.02, 0.02, 0.02]
    rates_i = [0.01, 0.012, 0.014, 0.016, 0.018, 0.02, 0.018, 0.016,
               0.014, 0.012, 0.01, 0.008, 0.006, 0.005, 0.005, 0.005]
    paths = {"v": tmp_path / "v.json", "i": tmp_path / "i.json"}
    save_baseline(paths["v"], baseline_from_rates(rates_v, exposure=1000, tail_start=5))
    save_baseline(paths["i"], baseline_from_rates(rates_i, exposure=1000, tail_start=13))
    rng = np.random.default_rng(31)
    scoring = tmp_path / "scoring.csv"
    dataio.write_scoring(scoring, (
        ScoringRecord(f"c{i}", int(rng.integers(0, 20)), float(rng.uniform(-5, 20)),
                      score_v=float(rng.uniform(0.0, 0.2)),
                      score_inv=float(rng.uniform(0.0, 0.05)))
        for i in range(600)), mode="competing")
    outputs = {}
    for chunk in ("1", "7", "8192"):
        out = tmp_path / f"chunk{chunk}.csv"
        assert main(["score", "--competing", "--baseline", str(paths["v"]),
                     "--baseline-inv", str(paths["i"]), "--scoring", str(scoring),
                     "--out", str(out), "--discount-annual", "0.1",
                     "--chunk-size", chunk]) == 0
        outputs[chunk] = out.read_bytes()
    assert outputs["1"] == outputs["7"] == outputs["8192"]
    truncated = {row.split(",")[-1] for row in outputs["1"].decode().splitlines()[1:]}
    assert len(truncated) > 10


def _truth_by_stepping(spec: SimSpec, cohort) -> None:
    f_v = spec.competing
    shape = spec.baseline_shape
    for rec, truth in zip(cohort.scoring, cohort.truth):
        if f_v is None:
            alpha = truth.true_alpha

            def hazard(j, t0=rec.tenure, a=alpha):
                return min(1.0, a * shape.rate(t0 + j))
        else:
            def hazard(j, t0=rec.tenure, av=spec.alpha_dist.a, ai=spec.alpha_dist_inv.a):
                r = shape.rate(t0 + j)
                return min(1.0, av * f_v * r + ai * (1.0 - f_v) * r)

        ert, _, path, _ = truncated_survival_sum(hazard, spec.projection.eps,
                                                 spec.projection.max_horizon)
        value = clv(path, MarginSpec.const(spec.margin), DiscountSpec(spec.discount_monthly))
        assert abs(truth.true_ert - ert) <= 1e-9 * ert
        assert abs(truth.true_clv - value) <= 1e-9 * abs(value)


def test_simulator_truth_matches_month_stepping_for_every_shape():
    economics = dict(margin=12.0, discount_monthly=0.006)
    for shape in (FlatShape(0.05), StepShape(0.2, 0.03, 7), DecayingShape(0.3, 0.97)):
        spec = SimSpec(baseline_shape=shape, alpha_dist=LognormalAlpha(0.0, 0.6),
                       n_customers=60, max_tenure=15, seed=3, **economics)
        _truth_by_stepping(spec, generate_cohort(spec))
    spec = SimSpec(baseline_shape=StepShape(0.2, 0.03, 7), alpha_dist=FixedAlpha(1.5),
                   alpha_dist_inv=FixedAlpha(0.5), competing=0.7,
                   n_customers=40, max_tenure=15, seed=4, **economics)
    _truth_by_stepping(spec, generate_cohort(spec))


# Single-customer APIs against the batch kernel, on baselines drawn from
# counts: empty and sparse bins pool at any of several thresholds, tail
# starts anywhere in the observed range, and rates up to 1 make large alphas
# clip.

@st.composite
def baselines(draw):
    exposures = np.array(draw(st.lists(st.one_of(st.just(0), st.integers(1, 300)),
                                       min_size=1, max_size=40)), dtype=np.int64)
    events = np.array([draw(st.integers(0, min(int(e), 12))) for e in exposures],
                      dtype=np.int64)
    with np.errstate(invalid="ignore"):
        hazards = np.where(exposures > 0, events / np.maximum(exposures, 1), np.nan)
    return BaselineHazard(hazards, exposures, events,
                          tail_start=draw(st.integers(0, exposures.size)),
                          tail_rate=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                                   st.floats(0.0, 1.0))),
                          min_events=draw(st.sampled_from([0, 1, 5, 50])))

configs = st.builds(ProjectionConfig, eps=st.floats(1e-9, 0.5),
                    max_horizon=st.integers(1, 1500))
tenures = st.integers(0, 60)


def assert_agrees_with_kernel(ert, path, truncated, tables, alphas, t0, config):
    k_ert, _, k_truncated = project_batch(
        tables, [np.array([a]) for a in alphas], np.array([t0]), np.ones(1),
        DiscountSpec(), config)
    assert truncated == int(k_truncated[0])
    assert len(path) == truncated + 1
    assert ert == float(k_ert[0])
    assert np.all(np.diff(path) <= 0.0)


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures, config=configs,
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(5.0, 500.0)))
def test_expected_remaining_tenure_agrees_with_kernel(baseline, t0, config, alpha):
    ert, path, truncated = expected_remaining_tenure(alpha, baseline, t0, config)
    assert_agrees_with_kernel(ert, path, truncated, (baseline.table,),
                              (alpha,), t0, config)


def scaled_alpha(score, baseline, t0):
    # A score with no finite coefficient raises DegenerateBaseline, which
    # test_score_over_vanishing_hazard_is_degenerate covers.
    h0 = hazard_at(baseline, t0)
    assume(h0 > 0.0 or score == 0.0)
    alpha = score / h0 if h0 > 0.0 else 0.0
    assume(math.isfinite(alpha))
    return alpha


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures, config=configs,
       score=st.floats(0.0, 1.0))
def test_project_customer_agrees_with_kernel(baseline, t0, config, score):
    alpha = scaled_alpha(score, baseline, t0)
    projection = project_customer(score, baseline, t0, config)
    assert projection.alpha == alpha
    assert_agrees_with_kernel(projection.ert_months, projection.survival_path,
                              projection.truncated_at, (baseline.table,),
                              (alpha,), t0, config)


@settings(max_examples=200, deadline=None)
@given(baseline_v=baselines(), baseline_inv=baselines(), t0=tenures,
       config=configs, score_v=st.floats(0.0, 1.0), score_inv=st.floats(0.0, 1.0))
def test_project_competing_agrees_with_kernel(baseline_v, baseline_inv, t0,
                                              config, score_v, score_inv):
    alphas = (scaled_alpha(score_v, baseline_v, t0),
              scaled_alpha(score_inv, baseline_inv, t0))
    projection = project_competing(score_v, score_inv, baseline_v, baseline_inv, t0,
                                   config)
    assert (projection.alpha_v, projection.alpha_inv) == alphas
    tables = (baseline_v.table, baseline_inv.table)
    assert_agrees_with_kernel(projection.ert_months, projection.survival_path,
                              projection.truncated_at, tables, alphas, t0, config)


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures, config=configs)
def test_odds_projection_at_zero_beta_is_unit_alpha_on_jeffreys_view(
        baseline, t0, config):
    model = OddsModel(beta=np.zeros(2), ridge=0.0, log_likelihood=0.0, iterations=1,
                      converged=True, baseline_sha=baseline.content_sha())
    view = jeffreys_view(baseline)
    ert, path, truncated = expected_remaining_tenure(1.0, view, t0, config)
    # The odds model has no log-odds offset where the view's hazard is 0 or 1;
    # it must fail at the first such tenure the projection reaches.
    undefined = [t0 + j for j in range(truncated + 1)
                 if not 0.0 < hazard_at(view, t0 + j) < 1.0]
    if undefined:
        with pytest.raises(OffsetUndefined) as err:
            project_with_odds_model(model, [0.7, -1.2], baseline, t0, config)
        assert err.value.tenure == undefined[0]
        return
    projection = project_with_odds_model(model, [0.7, -1.2], baseline, t0, config)
    assert projection.ert_months == ert
    assert np.array_equal(projection.survival_path, path)
    assert projection.truncated_at == truncated


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures, config=configs,
       beta=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=2, max_size=2))
def test_odds_projection_equals_kernel_on_odds_table(baseline, t0, config, beta):
    model = OddsModel(beta=np.array(beta), ridge=0.0, log_likelihood=0.0, iterations=1,
                      converged=True, baseline_sha=baseline.content_sha())
    x = np.array([0.7, -1.2])
    try:
        projection = project_with_odds_model(model, x, baseline, t0, config)
    except OffsetUndefined:
        return  # where it must fail is pinned by the zero-beta test above
    # The odds transform of every entry of the resolved Jeffreys table, at unit alpha.
    table = jeffreys_view(baseline).table
    lin = float(model.beta @ x)
    defined = (table > 0.0) & (table < 1.0)
    hazards = (table if lin == 0.0
               else np.where(defined, expit(logit(np.where(defined, table, 0.5)) + lin), table))
    assert_agrees_with_kernel(projection.ert_months, projection.survival_path,
                              projection.truncated_at, (hazards,), (1.0,), t0, config)
    assert np.array_equal(projection.hazard_path,
                          hazards[np.minimum(t0 + np.arange(projection.truncated_at + 1),
                                             len(hazards) - 1)])


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures, config=configs,
       alpha=st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.floats(5.0, 500.0)))
def test_survival_path_is_the_stepped_product(baseline, t0, config, alpha):
    # np.cumprod multiplies in month order, as stepping does: the paths agree
    # bit for bit over the months both hold.
    _, path, _ = expected_remaining_tenure(alpha, baseline, t0, config)
    table = baseline.table
    _, _, stepped, _ = truncated_survival_sum(
        lambda j: min(1.0, alpha * float(table[min(t0 + j, len(table) - 1)])),
        config.eps, config.max_horizon)
    months = min(len(path), len(stepped))
    assert path[:months].tobytes() == stepped[:months].tobytes()


# The paper's identities as properties of the batch kernel: alpha absorbs
# the scale of the baseline, and ERT and CLV fall as the score or the
# discount rate rises.

def _project(table, scores, t0, margins, rate=0.0):
    """Each customer's alpha and the kernel's (ert, clv, truncated_at), under
    the one alpha rule (``coefficients``) and the default truncation."""
    (alpha,), _ = coefficients([scores], [table], t0)
    return alpha, *project_batch((table,), (alpha,), t0, margins, DiscountSpec(rate),
                                 ProjectionConfig())


# Scores of 0, or normal floats. A subnormal score holds fewer than 53
# significant bits, so its alpha under a scaled baseline can differ by far
# more than the few roundings the invariance test below allows for; a
# normal score of at least 1e-300 over a hazard of at most 1 keeps alpha
# normal too.
normal_scores = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), scale=st.floats(0.25, 4.0),
       customers=st.lists(st.tuples(tenures, normal_scores, st.floats(0.0, 100.0)),
                          min_size=1, max_size=20),
       rate=st.sampled_from([0.0, 0.004]))
def test_scaling_the_baseline_leaves_unclipped_customers_unchanged(
        baseline, scale, customers, rate):
    # A hazard that a scale of 0.25 or more can take below the smallest
    # normal float, such as 5e-324 times 0.5 (which underflows to 0), is set
    # to 0: its scaled copy is not exact, so the invariance does not hold.
    table = baseline.table
    table = np.where(table < np.finfo(float).tiny / 0.25, 0.0, table)
    t0, scores, margins = (np.array(column) for column in zip(*customers))
    # A positive score over a vanishing hazard has no alpha (DegenerateBaseline).
    scores = np.where(lookup(table, t0) > 1e-300, scores, 0.0)
    base = _project(table, scores, t0, margins, rate)
    scaled = _project(table * scale, scores, t0, margins, rate)
    for i, start in enumerate(np.minimum(t0, len(table) - 1).tolist()):
        path, scaled_path = base[0][i] * table[start:], scaled[0][i] * (table * scale)[start:]
        highest = max(path.max(), scaled_path.max())
        if highest >= 1.0:
            continue  # clipped
        assert np.allclose(scaled_path, path, rtol=1e-12, atol=0.0), i
        assert scaled[3][i] == base[3][i]
        # With u = 2**-53: each run's hazard is alpha * entry rounded, with
        # alpha = score / entry at t0 rounded and the scaled entries c * entry
        # rounded, so the two hazards differ by at most 6u relative. A
        # month's factor 1 - h then differs by at most 6u * h / (1 - h), and
        # while survival stays above eps = 1e-6 the hazards add up to at most
        # ln(1e6) < 14: the survivals, and ERT and CLV, differ by at most
        # 6u * 14 / (1 - h) < 1e-14 / (1 - h) from that. Each run's own
        # roundings put a survival at most 2u a month (the factor and the
        # product) and a sum at most u a term from exact: 3u * 1200 over the
        # 1200-month horizon, under 8e-13 between the two runs. Both add up
        # to less than 1e-12 / (1 - h).
        tolerance = 1e-12 / (1.0 - highest)
        assert math.isclose(scaled[1][i], base[1][i], rel_tol=tolerance), i
        assert math.isclose(scaled[2][i], base[2][i], rel_tol=tolerance), i


@settings(max_examples=200, deadline=None)
@given(baseline=baselines(), t0=tenures,
       scores=st.lists(normal_scores, min_size=2, max_size=20),
       margin=st.floats(0.0, 100.0),
       annual=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5))
def test_ert_and_clv_fall_as_the_score_or_the_discount_rate_rises(
        baseline, t0, scores, margin, annual):
    table = baseline.table
    assume(lookup(table, t0) > 1e-300)
    scores = np.sort(scores)
    tenure, margins = np.full(scores.size, t0), np.full(scores.size, margin)
    _, ert, value, _ = _project(table, scores, tenure, margins)
    assert (np.diff(ert) <= 0.0).all() and (np.diff(value) <= 0.0).all()
    values = [_project(table, scores, tenure, margins, annual_to_monthly_rate(rate))[2]
              for rate in sorted(annual)]
    assert (np.diff(values, axis=0) <= 0.0).all()


def test_score_over_vanishing_hazard_is_degenerate():
    # 0.5 / 5e-324 overflows: no finite alpha, as for a zero hazard.
    baseline = BaselineHazard([0.1], [10], [1], tail_start=1, tail_rate=5e-324)
    for project in (lambda t0: project_customer(0.5, baseline, t0),
                    lambda t0: project_competing(0.5, 0.0, baseline, baseline, t0)):
        project(0)
        with pytest.raises(DegenerateBaseline):
            project(3)


def test_negative_tenure_is_rejected_by_the_kernel():
    # Unchecked, t0 = -3 read the table through wrapped negative indices and
    # returned a finite ERT.
    table = np.array([0.2, 0.1, 0.05])
    for t0 in ([-3], [4, 0, -1, 7]):
        with pytest.raises(ValueError, match="^tenure must be >= 0$"):
            project_batch((table,), (np.ones(len(t0)),), np.array(t0), np.zeros(len(t0)),
                          DiscountSpec(), ProjectionConfig())


def test_curve_baseline_column_matches_hazard_at_on_pooled_bins(tmp_path):
    exposures = np.array([400, 30, 0, 12, 250, 2, 0, 0, 90, 300, 300, 300], dtype=np.int64)
    events = np.array([40, 2, 0, 1, 20, 1, 0, 0, 3, 9, 9, 9], dtype=np.int64)
    with np.errstate(invalid="ignore"):
        hazards = np.where(exposures > 0, events / np.maximum(exposures, 1), np.nan)
    baseline = BaselineHazard(hazards, exposures, events, tail_start=9, tail_rate=0.03,
                              min_events=8)
    path = tmp_path / "baseline.json"
    save_baseline(path, baseline)
    out = tmp_path / "curve.csv"
    assert main(["curve", "--baseline", str(path), "--alpha", "1.7", "--t0", "0",
                 "--horizon", "15", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["baseline_hazard"]) for r in rows] == [
        hazard_at(baseline, t) for t in range(15)]
    pooled = [t for t in range(9) if np.isnan(hazards[t])
              or hazard_at(baseline, t) != hazards[t]]
    assert len(pooled) >= 5


# Single risk is one cause of the same scoring path: a second cause with a
# zero hazard and zero scores adds nothing, through the CLI and byte for byte.

_NULL_CAUSE = {"version": 1, "hazards": [0.0], "exposures": [10], "events": [0],
               "tail_start": 0, "tail_rate": 0.0, "smoothing": "none"}


def _score_cli(argv: list[str]) -> tuple[int, str, bytes | None]:
    """Exit code, standard error and output of ``score`` with ``argv``."""
    out = Path(argv[argv.index("--out") + 1])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["score", *argv])
    return code, err.getvalue(), out.read_bytes() if out.exists() else None


@settings(max_examples=60, deadline=None)
@given(baseline=baselines(),
       customers=st.lists(st.tuples(tenures, st.floats(0.0, 1.0),
                                    st.floats(-100.0, 100.0)), min_size=1, max_size=12),
       discount=st.sampled_from([[], ["--discount-annual", "0.1"]]),
       chunk_size=st.sampled_from(["1", str(dataio.SCORING_BATCH_SIZE)]))
def test_null_second_cause_is_single_risk_through_cli(baseline, customers,
                                                      discount, chunk_size):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_baseline(tmp / "v.json", baseline)
        (tmp / "null.json").write_text(json.dumps(_NULL_CAUSE), encoding="utf-8")
        ids = [f"c{i}" for i in range(len(customers))]
        dataio.write_scoring(tmp / "single.csv", [
            ScoringRecord(cid, t, m, churn_score=s) for cid, (t, s, m) in zip(ids, customers)])
        dataio.write_scoring(tmp / "competing.csv", [
            ScoringRecord(cid, t, m, score_v=s, score_inv=0.0)
            for cid, (t, s, m) in zip(ids, customers)], mode="competing")
        options = ["--baseline", str(tmp / "v.json"), "--chunk-size", chunk_size, *discount]
        single = _score_cli([*options, "--scoring", str(tmp / "single.csv"),
                             "--out", str(tmp / "single_out.csv")])
        competing = _score_cli([*options, "--competing", "--baseline-inv",
                                str(tmp / "null.json"), "--scoring", str(tmp / "competing.csv"),
                                "--out", str(tmp / "competing_out.csv")])
    assert competing == single


@settings(max_examples=40, deadline=None)
@given(baseline_v=baselines(), baseline_inv=baselines(),
       customers=st.lists(st.tuples(tenures, st.floats(0.0, 0.5), st.floats(0.0, 0.5),
                                    st.floats(-100.0, 100.0)), min_size=1, max_size=12),
       chunk_size=st.sampled_from([1, dataio.SCORING_BATCH_SIZE]))
def test_score_stream_competing_is_the_scorer(baseline_v, baseline_inv, customers,
                                              chunk_size):
    # Each cause pools at its own baseline's threshold: the library's rows are
    # score_causes' and, through each baseline's document, the CLI's.
    assume(baseline_v.min_events != baseline_inv.min_events)
    tables = (baseline_v.table, baseline_inv.table)
    # A positive score over a vanishing hazard has no alpha (DegenerateBaseline).
    records = [ScoringRecord(f"c{i}", t, m,
                             score_v=s_v if lookup(tables[0], t) > 1e-300 else 0.0,
                             score_inv=s_inv if lookup(tables[1], t) > 1e-300 else 0.0)
               for i, (t, s_v, s_inv, m) in enumerate(customers)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_baseline(tmp / "v.json", baseline_v)
        save_baseline(tmp / "inv.json", baseline_inv)
        # Scored as the CLI reads them: the file rounds scores and margins.
        dataio.write_scoring(tmp / "scoring.csv", records, mode="competing")
        records = list(dataio.read_scoring(tmp / "scoring.csv", "competing"))
        rows = list(score_stream_competing(records, baseline_v, baseline_inv,
                                           chunk_size=chunk_size))
        causes = [("score_v", baseline_v), ("score_inv", baseline_inv)]
        assert rows == [row for batch in score_causes([ScoringBatch.from_records(records)],
                                                      causes)
                        for row in batch.rows()]
        dataio.write_projections(tmp / "rows.csv", rows)
        assert _score_cli(["--competing", "--baseline", str(tmp / "v.json"),
                           "--baseline-inv", str(tmp / "inv.json"),
                           "--scoring", str(tmp / "scoring.csv"),
                           "--out", str(tmp / "out.csv")]) \
            == (0, "", (tmp / "rows.csv").read_bytes())
