from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from clvkit import odds
from clvkit.errors import (
    BaselineMismatch,
    EmptyCalibration,
    FitDiverged,
    InvalidDocument,
    InvalidRecord,
    OffsetUndefined,
)
from clvkit.odds import (
    OddsModel,
    PersonPeriodRow,
    fit_odds_batches,
    fit_odds_columns,
    fit_odds_model,
    log_likelihood,
    model_from_dict,
    load_model,
    predict_hazard_odds,
    project_with_odds_model,
    save_model,
    score_vector,
)
from clvkit.projection import ProjectionConfig, expected_remaining_tenure, project_hazard
from clvkit.survival import BaselineHazard, hazard_at, jeffreys_view


def flat_view_baseline(bins=12):
    """Raw counts chosen so the Jeffreys view is exactly 0.1 everywhere:
    (7 + 0.5) / (74 + 1) per bin, and the same pooled over the tail bin."""
    exposures = np.full(bins, 74, dtype=np.int64)
    events = np.full(bins, 7, dtype=np.int64)
    return BaselineHazard(events / exposures, exposures, events, bins - 1, 7 / 74)


def varying_baseline():
    exposures = np.full(6, 10_000, dtype=np.int64)
    events = np.array([1200, 1000, 800, 650, 500, 400], dtype=np.int64)
    return BaselineHazard(events / exposures, exposures, events, 5, 400 / 10_000)


def generate_model_rows(baseline, beta, n, seed, max_tenure=None):
    """Draw person-periods from the odds model itself (its own likelihood),
    with offsets taken from the smoothed view exactly as the fitter does."""
    view = jeffreys_view(baseline)
    if max_tenure is None:
        max_tenure = baseline.t_max
    rng = np.random.default_rng(seed)
    tenures = rng.integers(0, max_tenure + 1, size=n)
    X = rng.normal(size=(n, len(beta)))
    offsets = np.array([logit(hazard_at(view, int(t))) for t in range(max_tenure + 1)])
    h = expit(offsets[tenures] + X @ np.asarray(beta))
    y = (rng.random(n) < h).astype(int)
    rows = [PersonPeriodRow(int(t), int(out), tuple(x))
            for t, out, x in zip(tenures, y, X)]
    return rows, X, y


class TestLikelihoodAndGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        baseline = varying_baseline()
        rows, _, _ = generate_model_rows(baseline, (0.4, -0.2), n=2_000, seed=42)
        view = jeffreys_view(baseline)
        X = np.array([r.covariates for r in rows])
        y = np.array([r.outcome for r in rows], dtype=float)
        offsets = np.array([logit(hazard_at(view, r.tenure)) for r in rows])
        rng = np.random.default_rng(7)
        for ridge in (0.0, 0.5):
            for _ in range(5):
                beta = rng.normal(scale=0.8, size=2)
                analytic = score_vector(beta, X, y, offsets, ridge)
                for k in range(2):
                    h = 1e-4 * max(1.0, abs(beta[k]))
                    up, down = beta.copy(), beta.copy()
                    up[k] += h
                    down[k] -= h
                    fd = (log_likelihood(up, X, y, offsets, ridge)
                          - log_likelihood(down, X, y, offsets, ridge)) / (2 * h)
                    assert analytic[k] == pytest.approx(fd, rel=1e-6)


def _two_term_log_likelihood(eta, y):
    """The log-likelihood as each row's two terms weighted by y and 1 - y."""
    return float(-(np.logaddexp(0.0, -eta) * y + np.logaddexp(0.0, eta) * (1.0 - y)).sum())


def _bits(x):
    return np.float64(x).view(np.int64).item()


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(
           st.one_of(st.floats(-1e8, 1e8), st.sampled_from([0.0, -0.0, 5e-324, 36.7, -745.2]),
                     st.sampled_from([math.inf, -math.inf])),
           st.sampled_from([0.0, 1.0])), min_size=1, max_size=40))
def test_log_likelihood_equals_the_two_term_form_bit_for_bit(rows):
    eta, y = map(np.array, zip(*rows))
    X = np.zeros((len(eta), 1))
    with np.errstate(invalid="ignore"):  # inf * 0 in the two-term form
        expected = _two_term_log_likelihood(eta, y)
        assert _bits(log_likelihood(np.zeros(1), X, y, eta)) == _bits(expected)


class TestFit:
    def test_zero_covariates_reduce_to_baseline(self):
        baseline = flat_view_baseline()
        rows = [PersonPeriodRow(t % 4, int(t % 9 == 0), (0.0,)) for t in range(200)]
        model = fit_odds_model(rows, baseline, ridge=0.0)
        assert model.converged
        assert np.array_equal(model.beta, [0.0])
        for t in range(6):
            assert predict_hazard_odds(model, [0.0], baseline, t) == 0.1

    def test_recovers_generating_coefficients(self):
        baseline = varying_baseline()
        true_beta = (0.7, -0.3)
        rows, _, _ = generate_model_rows(baseline, true_beta, n=50_000, seed=20240314)
        model = fit_odds_model(rows, baseline, ridge=0.0)
        assert model.converged
        assert model.beta[0] == pytest.approx(0.7, abs=0.05)
        assert model.beta[1] == pytest.approx(-0.3, abs=0.05)

    def test_objective_nondecreasing_over_accepted_steps(self):
        baseline = varying_baseline()
        rows, _, _ = generate_model_rows(baseline, (0.5, 0.2), n=5_000, seed=3)
        model = fit_odds_model(rows, baseline)
        diffs = np.diff(model.objective_path)
        assert np.all(diffs >= 0.0)

    def test_perfect_separation_diverges_without_ridge(self):
        baseline = flat_view_baseline()
        rows = [PersonPeriodRow(0, 1, (1.0,)), PersonPeriodRow(0, 0, (-1.0,))]
        with pytest.raises(FitDiverged):
            fit_odds_model(rows, baseline, ridge=0.0)

    def test_separation_tamed_by_ridge(self):
        baseline = flat_view_baseline()
        rows = [PersonPeriodRow(0, 1, (1.0,)), PersonPeriodRow(0, 0, (-1.0,))]
        model = fit_odds_model(rows, baseline, ridge=1e-2)
        assert model.converged
        assert np.all(np.isfinite(model.beta))

    def test_empty_rows(self):
        with pytest.raises(EmptyCalibration):
            fit_odds_model([], flat_view_baseline())

    def test_batches_of_any_size_fit_as_the_whole_columns(self):
        # Batches are re-cut into 2048-row blocks, so where a batch ends never
        # changes the model, down to its last bit.
        rows, X, y = generate_model_rows(varying_baseline(), (0.5, -0.2), n=7_000, seed=8)
        tenure = np.array([r.tenure for r in rows])
        whole = fit_odds_columns(tenure, y, X, varying_baseline())
        for cuts in ([2048, 4096], [100, 3000, 3001, 5000], [1, 2047, 2049, 6999]):
            batches = zip(*(np.split(a, cuts) for a in (tenure, y, X)))
            model = fit_odds_batches(batches, varying_baseline())
            assert model.to_dict() == whole.to_dict(), cuts
            assert model.objective_path == whole.objective_path

    def test_ragged_row_past_the_first_block_names_its_row_in_the_whole_input(self):
        # The fit checks its rows 2048 at a time; row 2500 lies in the second
        # block, 452 rows into it.
        rows = [PersonPeriodRow(i % 4, int(i % 9 == 0), (0.1 * (i % 7), 1.0))
                for i in range(3_000)]
        rows[2500] = PersonPeriodRow(1, 0, (0.5,))
        with pytest.raises(InvalidRecord, match=r"^record 2500: expected 2 covariates, got 1$") as err:
            fit_odds_model(rows, flat_view_baseline())
        assert err.value.row == 2500

    def test_log_likelihood_reported_unpenalized(self):
        baseline = varying_baseline()
        rows, _, _ = generate_model_rows(baseline, (0.3,), n=3_000, seed=5)
        model = fit_odds_model(rows, baseline, ridge=1e-6)
        view = jeffreys_view(baseline)
        X = np.array([r.covariates for r in rows])
        y = np.array([r.outcome for r in rows], dtype=float)
        offsets = np.array([logit(hazard_at(view, r.tenure)) for r in rows])
        assert model.log_likelihood == pytest.approx(
            log_likelihood(model.beta, X, y, offsets, ridge=0.0), rel=1e-12)


class TestPredict:
    def test_zero_linear_predictor_is_baseline(self):
        baseline = flat_view_baseline()
        model = OddsModel(beta=np.array([0.7, -0.3]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True,
                          baseline_sha=baseline.content_sha())
        assert predict_hazard_odds(model, [0.0, 0.0], baseline, 2) == 0.1

    def test_hand_computed_odds_scaling(self):
        # baseline 0.1 -> odds 1/9; times 2 -> 2/9; back to a rate -> 2/11
        baseline = flat_view_baseline()
        model = OddsModel(beta=np.array([math.log(2.0)]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True,
                          baseline_sha=baseline.content_sha())
        got = predict_hazard_odds(model, [1.0], baseline, 3)
        assert got == pytest.approx(2 / 11, rel=1e-12)

    def test_strictly_inside_unit_interval(self):
        baseline = varying_baseline()
        rng = np.random.default_rng(11)
        model = OddsModel(beta=np.array([2.0, -1.5]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True, baseline_sha="x")
        for _ in range(200):
            x = rng.normal(scale=3.0, size=2)
            t = int(rng.integers(0, 40))
            h = predict_hazard_odds(model, x, baseline, t)
            assert 0.0 < h < 1.0

    def test_offset_undefined_beyond_empty_tail(self):
        exposures = np.array([100, 100], dtype=np.int64)
        events = np.array([10, 10], dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events,
                                  tail_start=2, tail_rate=0.0)
        model = OddsModel(beta=np.array([1.0]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True, baseline_sha="x")
        with pytest.raises(OffsetUndefined) as err:
            predict_hazard_odds(model, [1.0], baseline, 5)
        assert err.value.tenure == 5


class TestProjection:
    def test_log3_on_flat_tenth(self):
        # Odds 1/9 times 3 is 1/3, i.e. a constant hazard of 1/4; the
        # geometric closed form gives (1 - 1/4) / (1/4) = 3 months.
        baseline = flat_view_baseline()
        model = OddsModel(beta=np.array([math.log(3.0)]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True,
                          baseline_sha=baseline.content_sha())
        projection = project_with_odds_model(model, [1.0], baseline, 0)
        assert np.all(projection.hazard_path == pytest.approx(0.25, rel=1e-12))
        assert projection.ert_months == pytest.approx(3.0, abs=1e-3)
        assert projection.alpha == pytest.approx(3.0, rel=1e-12)

    def test_rejects_a_baseline_other_than_the_fitted_one(self):
        fitted, other = flat_view_baseline(), varying_baseline()
        model = OddsModel(beta=np.array([0.2]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True, baseline_sha=fitted.content_sha())
        project_with_odds_model(model, [1.0], fitted, 0)
        with pytest.raises(BaselineMismatch) as err:
            project_with_odds_model(model, [1.0], other, 0)
        assert err.value.expected_sha == fitted.content_sha()
        assert err.value.actual_sha == other.content_sha()

    def test_zero_beta_matches_unit_alpha_on_smoothed_baseline(self):
        baseline = varying_baseline()
        view = jeffreys_view(baseline)
        model = OddsModel(beta=np.array([0.0]), ridge=0.0, log_likelihood=0.0,
                          iterations=1, converged=True,
                          baseline_sha=baseline.content_sha())
        odds_projection = project_with_odds_model(model, [1.0], baseline, 1)
        ert, path, truncated = expected_remaining_tenure(1.0, view, 1)
        assert odds_projection.ert_months == ert
        assert np.array_equal(odds_projection.survival_path, path)
        horizon = len(odds_projection.hazard_path)
        assert np.array_equal(odds_projection.hazard_path,
                              project_hazard(1.0, view, 1, horizon))

    def test_simulated_cohort_survival_calibration(self):
        # Mean predicted 12-month survival against the empirical fraction.
        baseline = varying_baseline()
        beta = np.array([0.6, -0.4])
        view = jeffreys_view(baseline)
        rng = np.random.default_rng(909)
        n = 40_000
        X = rng.normal(size=(n, 2))
        h0 = np.array([hazard_at(view, t) for t in range(12)])
        h = expit(logit(h0)[None, :] + (X @ beta)[:, None])
        predicted = np.prod(1.0 - h, axis=1)
        survived = np.all(rng.random((n, 12)) >= h, axis=1)
        assert float(np.mean(predicted)) == pytest.approx(
            float(np.mean(survived)), abs=0.01)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        baseline = flat_view_baseline()
        rows = [PersonPeriodRow(t % 3, int(t % 7 == 0), (float(t % 5 - 2),))
                for t in range(300)]
        model = fit_odds_model(rows, baseline)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.beta, model.beta)
        assert loaded.ridge == model.ridge
        assert loaded.log_likelihood == model.log_likelihood
        assert loaded.iterations == model.iterations
        assert loaded.converged == model.converged
        assert loaded.baseline_sha == baseline.content_sha()

    def test_exact_key_set_enforced(self):
        doc = {"version": 1, "beta": [0.1], "ridge": 0.0, "log_likelihood": -1.0,
               "iterations": 3, "converged": True, "baseline_sha": "abc"}
        model_from_dict(doc)
        doc["extra"] = 1
        with pytest.raises(ValueError):
            model_from_dict(doc)


class TestLoadModelErrors:
    GOOD = {"version": 1, "beta": [0.1], "ridge": 0.0, "log_likelihood": -1.0,
            "iterations": 3, "converged": True, "baseline_sha": "abc"}

    def check(self, path):
        with pytest.raises(InvalidDocument) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1, "beta": [0.1', encoding="utf-8")
        self.check(path)

    def test_wrong_key_set(self, tmp_path):
        path = tmp_path / "model.json"
        doc = {k: v for k, v in self.GOOD.items() if k != "ridge"}
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.check(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**self.GOOD, "version": 2}), encoding="utf-8")
        self.check(path)

    @pytest.mark.parametrize("text", ["[" * 200_000, json.dumps({**GOOD, "iterations": 2.5}),
                                      json.dumps({**GOOD, "iterations": True}),
                                      json.dumps({**GOOD, "iterations": "@"}).replace(
                                          '"@"', "1e999"),
                                      json.dumps({**GOOD, "beta": [2**1100]}),
                                      json.dumps({**GOOD, "beta": ["0.1"]}),
                                      json.dumps({**GOOD, "ridge": "0"}),
                                      json.dumps({**GOOD, "log_likelihood": "-1"}),
                                      json.dumps({**GOOD, "converged": "false"}),
                                      json.dumps({**GOOD, "converged": 1}),
                                      json.dumps({**GOOD, "baseline_sha": 5}),
                                      json.dumps({**GOOD, "ridge": -5.0}),
                                      json.dumps({**GOOD, "log_likelihood": 3.0}),
                                      json.dumps({**GOOD, "iterations": -2}),
                                      json.dumps({**GOOD, "baseline_sha": ""})],
                             ids=["nested", "fraction", "bool", "infinite", "huge beta",
                                  "string beta", "string ridge", "string log-likelihood",
                                  "string converged", "number converged", "number sha",
                                  "negative ridge", "positive log-likelihood",
                                  "negative iterations", "empty sha"])
    def test_unreadable_values(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        self.check(path)


class TestLogisticFunctions:
    """The module's own logit/expit against scipy.special as the oracle."""

    def test_match_scipy(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 801), [-1e300, 1e300]])
        assert np.allclose(odds.expit(x), expit(x), rtol=1e-14, atol=0.0)
        p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 999), [5e-324, 1e-300]])
        assert np.allclose(odds.logit(p), logit(p), rtol=1e-12, atol=1e-15)

    def test_expit_finite_without_warnings_for_extreme_inputs(self):
        x = np.array([-np.finfo(float).max, -1e4, -800.0, 800.0, 1e4, np.finfo(float).max])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            h = odds.expit(x)
        assert np.all(np.isfinite(h))
        assert np.all((h >= 0.0) & (h <= 1.0))
