from __future__ import annotations

import re

import numpy as np
import pytest

from clvkit.dataio import ScoringRecord
from clvkit.errors import DegenerateBaseline
from clvkit.pipeline import score_stream
from clvkit.projection import (
    CustomerProjection,
    ProjectionConfig,
    compute_alpha,
    expected_remaining_tenure,
    project_competing,
    project_customer,
    project_hazard,
)
from clvkit.simulate import FixedAlpha, SimSpec, StepShape, generate_cohort, true_ert
from clvkit.survival import (
    BaselineHazard,
    estimate_cause_specific,
    estimate_hazard_by_tenure,
    extrapolate_tail,
    hazard_at,
)

from conftest import baseline_from_rates


def flat_baseline(rate, bins=6, exposure=10_000):
    return baseline_from_rates([rate] * bins, exposure=exposure, tail_start=0)


def geometric_ert(h):
    """Closed form for a constant hazard: sum over j>=1 of (1-h)^j."""
    return (1.0 - h) / h


class TestComputeAlpha:
    def test_paper_scenario_ratio(self):
        baseline = flat_baseline(0.01)
        assert compute_alpha(0.013, baseline, 5) == pytest.approx(1.3, rel=1e-12)

    def test_score_equal_to_baseline(self):
        baseline = baseline_from_rates([0.05, 0.08, 0.02], exposure=1000, tail_start=2)
        score = hazard_at(baseline, 1)
        assert compute_alpha(score, baseline, 1) == 1.0

    def test_zero_score(self):
        assert compute_alpha(0.0, flat_baseline(0.1), 3) == 0.0

    def test_zero_baseline_with_positive_score(self):
        baseline = flat_baseline(0.0)
        with pytest.raises(DegenerateBaseline):
            compute_alpha(0.2, baseline, 0)

    def test_zero_baseline_with_zero_score(self):
        assert compute_alpha(0.0, flat_baseline(0.0), 0) == 0.0

    def test_linear_in_score(self):
        baseline = flat_baseline(0.08)
        s = 0.3
        assert compute_alpha(2 * s, baseline, 2) == pytest.approx(
            2 * compute_alpha(s, baseline, 2), rel=1e-15)

    def test_out_of_range_score(self):
        with pytest.raises(ValueError):
            compute_alpha(1.2, flat_baseline(0.1), 0)


class TestBatchScoringChecksInputs:
    # The scalar projection rejects these; so does every batch scorer,
    # naming the customer. Unchecked, tenure -1 read the tail rate through
    # the table's last entry (alpha 2.0) and score 1.5 gave alpha 15.
    @pytest.mark.parametrize("tenure, score, message", [
        (-1, 0.1, "tenure must be >= 0"),
        (-5, 0.1, "tenure must be >= 0"),
        (2, 1.5, "churn score must lie in [0, 1], got 1.5"),
        (2, float("nan"), "churn score must lie in [0, 1], got nan"),
    ])
    def test_score_stream_rejects_what_project_customer_rejects(self, tenure, score, message):
        baseline = baseline_from_rates([0.1, 0.1, 0.05], exposure=100, tail_start=2)
        records = [ScoringRecord("c1", 1, 10.0, churn_score=0.1),
                   ScoringRecord("c2", tenure, 10.0, churn_score=score)]
        with pytest.raises(ValueError) as caught:
            list(score_stream(records, baseline))
        assert str(caught.value) == f"customer 'c2': {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_customer(score, baseline, tenure)


class TestProjectHazard:
    def test_unit_alpha_is_baseline_continuation(self, fixture_baseline):
        path = project_hazard(1.0, fixture_baseline, 10, 40)
        expected = np.array([hazard_at(fixture_baseline, 10 + j) for j in range(40)])
        assert np.array_equal(path, expected)

    def test_clipping_at_one(self):
        baseline = flat_baseline(0.3)
        path = project_hazard(5.0, baseline, 0, 4)
        assert np.all(path == 1.0)

    def test_scaled_fixture_curve(self, fixture_baseline):
        path = project_hazard(1.3, fixture_baseline, 18, 24)
        expected = np.array([1.3 * hazard_at(fixture_baseline, 18 + j) for j in range(24)])
        assert np.array_equal(path, expected)
        assert np.all(path < 1.0)


class TestExpectedRemainingTenure:
    def test_constant_half(self):
        ert, path, truncated = expected_remaining_tenure(1.0, flat_baseline(0.5), 0)
        assert ert == pytest.approx(geometric_ert(0.5), abs=1e-4)
        assert truncated == len(path) - 1

    def test_constant_tenth(self):
        ert, _, _ = expected_remaining_tenure(
            1.0, flat_baseline(0.1), 0, ProjectionConfig(eps=1e-6))
        assert ert == pytest.approx(geometric_ert(0.1), abs=1e-3)

    def test_zero_alpha_hits_horizon_cap(self):
        config = ProjectionConfig(eps=1e-6, max_horizon=48)
        ert, path, truncated = expected_remaining_tenure(0.0, flat_baseline(0.1), 0, config)
        assert ert == 48.0
        assert truncated == 47
        assert np.all(path == 1.0)

    def test_truncation_bound_audit(self):
        # With a positive hazard floor h, the discarded tail after
        # truncation is below eps * (1 - h) / h.
        h = 0.2
        config = ProjectionConfig(eps=1e-4)
        ert, path, truncated = expected_remaining_tenure(1.0, flat_baseline(h), 0, config)
        long_cfg = ProjectionConfig(eps=1e-15, max_horizon=2000)
        full_ert, _, _ = expected_remaining_tenure(1.0, flat_baseline(h), 0, long_cfg)
        assert full_ert - ert < config.eps * (1 - h) / h

    def test_monotone_in_alpha(self, fixture_baseline):
        erts = [expected_remaining_tenure(a, fixture_baseline, 6)[0]
                for a in (0.25, 0.5, 1.0, 1.5, 3.0, 8.0)]
        assert all(a > b for a, b in zip(erts, erts[1:]))

    def test_bounds(self, fixture_baseline):
        ert, path, truncated = expected_remaining_tenure(1.3, fixture_baseline, 18)
        assert ert <= truncated + 1
        assert ert >= path[0]


class TestProjectCustomer:
    def test_score_passthrough_exact_on_dyadic_ratio(self):
        baseline = flat_baseline(0.25)
        projection = project_customer(0.125, baseline, 0)
        assert projection.hazard_path[0] == 0.125

    def test_score_passthrough_general(self, fixture_baseline):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t0 = int(rng.integers(0, 30))
            score = float(rng.uniform(0.0, 0.5))
            projection = project_customer(score, fixture_baseline, t0)
            assert projection.hazard_path[0] == pytest.approx(score, rel=1e-12)

    def test_matches_expected_remaining_tenure(self, fixture_baseline):
        projection = project_customer(0.05, fixture_baseline, 3)
        alpha = compute_alpha(0.05, fixture_baseline, 3)
        ert, path, truncated = expected_remaining_tenure(alpha, fixture_baseline, 3)
        assert projection.alpha == alpha
        assert projection.ert_months == ert
        assert np.array_equal(projection.survival_path, path)
        assert projection.truncated_at == truncated

    def test_survival_path_is_the_running_product_bitwise(self, fixture_baseline):
        projection = project_customer(0.07, fixture_baseline, 2)
        survival, expected = 1.0, []
        for h in projection.hazard_path.tolist():
            survival *= 1.0 - h
            expected.append(survival)
        assert len(expected) > 100
        assert projection.survival_path.tolist() == expected

    def test_path_sum_invariant(self, fixture_baseline):
        projection = project_customer(0.1, fixture_baseline, 0)
        assert projection.ert_months == pytest.approx(
            float(np.sum(projection.survival_path)), abs=1e-9)

    def test_clipped_path_survival_reaches_zero(self):
        baseline = flat_baseline(0.3)
        unclipped = project_customer(0.3, baseline, 0)  # alpha = 1
        clipped = project_hazard(5.0, baseline, 0, 3)
        assert np.all(clipped == 1.0)
        ert, path, truncated = expected_remaining_tenure(5.0, baseline, 0)
        assert path[0] == 0.0
        assert truncated == 0
        assert ert == 0.0
        assert unclipped.ert_months > 0  # sanity: alpha = 1 customer survives


def competing_snapshot(seed=17, n_per_tenure=1024, bins=16):
    """Deterministic snapshot with both causes; bin sizes are powers of two
    so every count ratio is exact in floating point."""
    rng = np.random.default_rng(seed)
    from clvkit.dataio import CalibrationRecord
    records = []
    for t in range(bins):
        d_v = int(rng.integers(8, 40))
        d_i = int(rng.integers(8, 40))
        for i in range(n_per_tenure):
            if i < d_v:
                records.append(CalibrationRecord(f"t{t}c{i}", t, 1, "V"))
            elif i < d_v + d_i:
                records.append(CalibrationRecord(f"t{t}c{i}", t, 1, "I"))
            else:
                records.append(CalibrationRecord(f"t{t}c{i}", t, 0))
    return records


class TestProjectCompeting:
    def test_vanishing_cause_matches_single_risk(self):
        baseline_v = flat_baseline(0.1)
        baseline_zero = baseline_from_rates([0.0] * 6, exposure=10_000, tail_start=0)
        combined = project_competing(0.2, 0.0, baseline_v, baseline_zero, 2)
        single = project_customer(0.2, baseline_v, 2)
        assert np.array_equal(combined.hazard_path, single.hazard_path)
        assert combined.ert_months == single.ert_months
        assert combined.alpha_v == single.alpha
        assert combined.alpha_inv == 0.0

    def test_unit_alphas_reproduce_whole_base_hazard(self):
        records = competing_snapshot()
        baseline_all = extrapolate_tail(estimate_hazard_by_tenure(records), 12)
        bv, bi = estimate_cause_specific(records)
        bv = extrapolate_tail(bv, 12)
        bi = extrapolate_tail(bi, 12)
        t0 = 3
        score_v = hazard_at(bv, t0)
        score_inv = hazard_at(bi, t0)
        projection = project_competing(score_v, score_inv, bv, bi, t0)
        assert projection.alpha_v == 1.0
        assert projection.alpha_inv == 1.0
        expected = project_hazard(1.0, baseline_all, t0, len(projection.hazard_path))
        assert np.array_equal(projection.hazard_path, expected)
        assert projection.alpha == 1.0

    def test_integer_count_additivity_any_snapshot(self):
        records = competing_snapshot(seed=31, n_per_tenure=500, bins=10)
        baseline_all = estimate_hazard_by_tenure(records)
        bv, bi = estimate_cause_specific(records)
        assert np.array_equal(bv.events + bi.events, baseline_all.events)
        assert np.array_equal(bv.exposures, baseline_all.exposures)
        assert np.max(np.abs(bv.hazards + bi.hazards - baseline_all.hazards)) < 1e-15

    def test_two_cause_simulation_recovers_true_ert(self):
        # Oracle: the truth file evaluates the summation directly on the true
        # combined hazard path. Cohort means are compared; per-customer noise
        # at this sample size is binomial, not a method error.
        spec = SimSpec(baseline_shape=StepShape(0.1, 0.06, 4),
                       alpha_dist=FixedAlpha(2.0), alpha_dist_inv=FixedAlpha(0.5),
                       competing=0.6, n_customers=80_000, max_tenure=9, seed=404)
        cohort = generate_cohort(spec)
        bv, bi = estimate_cause_specific(cohort.calibration)
        bv = extrapolate_tail(bv, 4)
        bi = extrapolate_tail(bi, 4)
        sample = cohort.scoring[:2000]
        estimated = [project_competing(r.score_v, r.score_inv, bv, bi, r.tenure).ert_months
                     for r in sample]
        expected = [t.true_ert for t in cohort.truth[:2000]]
        assert abs(np.mean(estimated) - np.mean(expected)) / np.mean(expected) < 0.02


class TestTrueErtOracle:
    def test_flat_half(self):
        assert true_ert([0.5] * 60) == pytest.approx(1.0, abs=1e-4)

    def test_scaled_flat(self):
        assert true_ert([min(1.0, 2.0 * 0.1)] * 200) == pytest.approx(
            geometric_ert(0.2), abs=1e-3)

    def test_step_path_direct_summation(self):
        def hazard(j):
            return 0.09 * 1.3 if j < 8 else 0.05 * 1.3

        survival = 1.0
        expected = 0.0
        for j in range(1200):
            survival *= 1.0 - hazard(j)
            expected += survival
            if survival < 1e-6:
                break
        assert true_ert(hazard) == expected

    def test_oracle_matches_estimator_on_true_inputs(self):
        baseline = flat_baseline(0.08)
        alpha = 1.7
        est, _, _ = expected_remaining_tenure(alpha, baseline, 0)
        oracle = true_ert(lambda j: min(1.0, alpha * 0.08))
        assert est == pytest.approx(oracle, abs=1e-9)


class TestCustomerProjectionInvariants:
    def test_validation(self):
        with pytest.raises(ValueError):
            CustomerProjection(alpha=-1.0, hazard_path=np.array([0.1]),
                               survival_path=np.array([0.9]), ert_months=0.9,
                               truncated_at=0)
        with pytest.raises(ValueError):
            CustomerProjection(alpha=1.0, hazard_path=np.array([1.5]),
                               survival_path=np.array([0.9]), ert_months=0.9,
                               truncated_at=0)
        with pytest.raises(ValueError):
            CustomerProjection(alpha=1.0, hazard_path=np.array([0.1, 0.1]),
                               survival_path=np.array([0.5, 0.9]), ert_months=1.4,
                               truncated_at=1)
