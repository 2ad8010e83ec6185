from __future__ import annotations

import hashlib

import numpy as np
import pytest

from clvkit import dataio, simulate
from clvkit.projection import expected_remaining_tenure
from clvkit.simulate import (
    DecayingShape,
    FixedAlpha,
    FlatShape,
    LognormalAlpha,
    SimSpec,
    StepShape,
    generate_cohort,
    simspec_from_dict,
    true_ert,
    write_truth,
)
from clvkit.survival import estimate_hazard_by_tenure, extrapolate_tail

from conftest import baseline_from_rates


def geometric_ert(h):
    return (1.0 - h) / h


class TestShapes:
    def test_flat(self):
        assert FlatShape(0.1).rate(0) == 0.1
        assert FlatShape(0.1).rate(500) == 0.1

    def test_step(self):
        shape = StepShape(0.2, 0.04, 12)
        assert shape.rate(11) == 0.2
        assert shape.rate(12) == 0.04

    def test_decaying(self):
        shape = DecayingShape(0.3, 0.9)
        assert shape.rate(0) == 0.3
        assert shape.rate(2) == 0.3 * 0.81
        assert all(shape.rate(t) > shape.rate(t + 1) for t in range(20))


class TestGenerateCohort:
    def test_one_month_churn_rate_matches_planted_hazard(self):
        # Binomial standard error at n=200k is about 0.00067; 0.003 is 4+ sigma.
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(1.0),
                       n_customers=200_000, max_tenure=9, seed=1)
        cohort = generate_cohort(spec)
        rate = sum(r.churned for r in cohort.calibration) / len(cohort.calibration)
        assert rate == pytest.approx(0.1, abs=0.003)

    def test_deterministic_in_seed(self):
        spec = SimSpec(baseline_shape=FlatShape(0.08), alpha_dist=LognormalAlpha(0.0, 0.4),
                       n_customers=500, max_tenure=5, seed=77, score_noise_sigma=0.1)
        a = generate_cohort(spec)
        b = generate_cohort(spec)
        assert a.calibration == b.calibration
        assert a.scoring == b.scoring
        assert a.truth == b.truth

    def test_zero_alpha_means_no_churners(self):
        spec = SimSpec(baseline_shape=FlatShape(0.2), alpha_dist=FixedAlpha(0.0),
                       n_customers=2_000, max_tenure=3, seed=5)
        cohort = generate_cohort(spec)
        assert sum(r.churned for r in cohort.calibration) == 0
        assert all(r.churn_score == 0.0 for r in cohort.scoring)

    def test_perfect_scores_carry_true_hazard(self):
        spec = SimSpec(baseline_shape=StepShape(0.2, 0.05, 3), alpha_dist=FixedAlpha(1.5),
                       n_customers=100, max_tenure=5, seed=9)
        cohort = generate_cohort(spec)
        for rec in cohort.scoring:
            expected = min(1.0, 1.5 * (0.2 if rec.tenure < 3 else 0.05))
            assert rec.churn_score == expected

    def test_round_robin_tenures_give_even_exposure(self):
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(1.0),
                       n_customers=1_000, max_tenure=9, seed=2)
        cohort = generate_cohort(spec)
        baseline = estimate_hazard_by_tenure(cohort.calibration)
        assert np.all(baseline.exposures == 100)

    def test_hazard_clipping_counted(self):
        spec = SimSpec(baseline_shape=FlatShape(0.4), alpha_dist=FixedAlpha(3.0),
                       n_customers=50, max_tenure=2, seed=3)
        cohort = generate_cohort(spec)
        assert cohort.clipped_hazards == 50
        assert all(r.churn_score == 1.0 for r in cohort.scoring)

    def test_competing_clipping_counted_once_per_customer(self):
        # A customer whose summed hazard clips also has its score pair
        # normalised; without noise that is one clipped customer, not two.
        spec = SimSpec(baseline_shape=FlatShape(0.4), alpha_dist=LognormalAlpha(0.5, 0.8),
                       alpha_dist_inv=LognormalAlpha(0.0, 0.6), competing=0.7,
                       n_customers=300, max_tenure=2, seed=13)
        cohort = generate_cohort(spec)
        drawn = []
        for i in range(spec.n_customers):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
            drawn.append((rng.lognormal(0.5, 0.8), rng.lognormal(0.0, 0.6)))
        alpha_v, alpha_inv = np.array(drawn).T
        f, b = spec.competing, 0.4
        expected = int((alpha_v * f * b + alpha_inv * (1 - f) * b > 1).sum())
        assert 0 < expected < spec.n_customers
        assert cohort.clipped_hazards == expected

    def test_clipped_noisy_competing_scores(self, monkeypatch):
        # Raw cause hazards (1.2, 0.3) sum to 1.5: the shares of 1 are
        # (0.8, 0.2). Noise (0.5, 1.0) gives (0.4, 0.2), which sums below 1
        # and stands; noise (2.0, 1.0) gives (1.6, 0.2), normalised by 1.8.
        class Stream:
            def __init__(self, uniforms, noises):
                self.uniforms, self.noises = list(uniforms), list(noises)

            def random(self):
                return self.uniforms.pop(0)

            def lognormal(self, mean, sigma):
                return self.noises.pop(0)

        streams = [Stream([0.99, 0.5], [0.5, 1.0]), Stream([0.99, 0.5], [2.0, 1.0])]
        monkeypatch.setattr(simulate, "_customer_streams", lambda seed, n: iter(streams))
        # 4.8 * 0.5 * 0.5 and 1.2 * 0.5 * 0.5 scale by powers of two: exactly 1.2 and 0.3.
        spec = SimSpec(baseline_shape=FlatShape(0.5), alpha_dist=FixedAlpha(4.8),
                       alpha_dist_inv=FixedAlpha(1.2), competing=0.5, n_customers=2,
                       max_tenure=0, seed=1, score_noise_sigma=1.0)
        cohort = generate_cohort(spec)
        scores = [(r.score_v, r.score_inv) for r in cohort.scoring]
        assert scores[0] == pytest.approx((0.4, 0.2), rel=1e-15)
        assert scores[1] == pytest.approx((1.6 / 1.8, 0.2 / 1.8), rel=1e-15)
        assert all(s.uniforms == s.noises == [] for s in streams)
        assert [r.churned for r in cohort.calibration] == [1, 1]
        assert cohort.clipped_hazards == 2

    @pytest.mark.parametrize("competing", [None, 0.6])
    def test_overflowing_noise_still_gives_scores_in_unit_interval(self, competing):
        # Noise this wide overflows to inf or underflows to 0 for most
        # customers; an infinite score reads 1, as min(1, x) gives for one cause.
        spec = SimSpec(baseline_shape=FlatShape(0.3), alpha_dist=FixedAlpha(1.0),
                       competing=competing, n_customers=400, max_tenure=3, seed=6,
                       score_noise_sigma=400.0)
        batch = generate_cohort(spec).scoring_batch
        scores = [batch.churn_score] if competing is None else [batch.score_v, batch.score_inv]
        total = sum(scores)
        assert np.all((total >= 0.0) & (total <= 1.0))
        assert np.any(total == 1.0) and np.any(total < 0.3)

    def test_competing_mode_produces_causes_and_subscores(self):
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(2.0),
                       alpha_dist_inv=FixedAlpha(0.5), competing=0.6,
                       n_customers=5_000, max_tenure=4, seed=12)
        cohort = generate_cohort(spec)
        churners = [r for r in cohort.calibration if r.churned]
        assert churners and all(r.cause in ("V", "I") for r in churners)
        assert all(r.cause is None for r in cohort.calibration if not r.churned)
        for rec in cohort.scoring:
            assert rec.score_v == 2.0 * 0.6 * 0.1
            assert rec.score_inv == 0.5 * 0.4 * 0.1
        # voluntary share of churn should track its share of the hazard
        share = sum(r.cause == "V" for r in churners) / len(churners)
        assert share == pytest.approx((2.0 * 0.6) / (2.0 * 0.6 + 0.5 * 0.4), abs=0.05)


class TestStreams:
    def test_each_customer_draws_from_its_own_stream(self):
        # A seed of two words, plus the customer index: each customer's alpha
        # is the first draw of a generator seeded from (seed, i) alone.
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=LognormalAlpha(0.2, 0.7),
                       n_customers=300, max_tenure=5, seed=2**40 + 3)
        cohort = generate_cohort(spec)
        for i, truth in enumerate(cohort.truth):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, i)))
            assert truth.true_alpha == rng.lognormal(0.2, 0.7)

    @pytest.mark.parametrize("wrong", [0, 9])
    def test_seeding_mismatch_raises(self, monkeypatch, wrong):
        bulk = simulate.pcg64_states

        def off_by_one(seed, indices):
            states, incs = bulk(seed, indices)
            states[wrong] ^= 1
            return states, incs

        monkeypatch.setattr(simulate, "pcg64_states", off_by_one)
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(1.0),
                       n_customers=10, max_tenure=3, seed=5)
        with pytest.raises(RuntimeError, match=f"customer {wrong} "):
            generate_cohort(spec)

    @pytest.mark.parametrize("competing", [None, 0.6])
    def test_batches_and_records_write_the_same_bytes(self, tmp_path, competing):
        spec = SimSpec(baseline_shape=StepShape(0.3, 0.05, 4),
                       alpha_dist=LognormalAlpha(0.0, 0.8), competing=competing,
                       n_customers=400, max_tenure=9, seed=31, score_noise_sigma=0.4,
                       margin=7.5)
        cohort = generate_cohort(spec)
        mode = "single" if competing is None else "competing"
        for form, (cal, sco, tru) in {
                "batch": (cohort.calibration_batch, cohort.scoring_batch, cohort.truth_batch),
                "records": (cohort.calibration, cohort.scoring, cohort.truth)}.items():
            assert dataio.write_calibration(tmp_path / f"c_{form}", cal, mode) == 400
            assert dataio.write_scoring(tmp_path / f"s_{form}", sco, mode) == 400
            assert write_truth(tmp_path / f"t_{form}", tru) == 400
        for name in "cst":
            assert (tmp_path / f"{name}_batch").read_bytes() == \
                (tmp_path / f"{name}_records").read_bytes()


class TestTrueErt:
    def test_flat_half(self):
        assert true_ert([0.5] * 80) == pytest.approx(1.0, abs=1e-4)

    def test_flat_tenth_alpha_two(self):
        assert true_ert([0.2] * 200) == pytest.approx(geometric_ert(0.2), abs=1e-3)

    def test_exhausted_sequence_raises(self):
        with pytest.raises(IndexError):
            true_ert([0.001] * 10)

    def test_truth_matches_estimator_fed_true_inputs(self):
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(1.3),
                       n_customers=40, max_tenure=3, seed=21)
        cohort = generate_cohort(spec)
        baseline = baseline_from_rates([0.1] * 4, exposure=1000, tail_start=0)
        for rec, truth in zip(cohort.scoring, cohort.truth):
            est, _, _ = expected_remaining_tenure(1.3, baseline, rec.tenure)
            assert est == pytest.approx(truth.true_ert, abs=1e-9)

    def test_truth_clv_is_margin_times_ert_when_undiscounted(self):
        spec = SimSpec(baseline_shape=FlatShape(0.1), alpha_dist=FixedAlpha(1.0),
                       n_customers=20, max_tenure=3, seed=4, margin=12.5)
        cohort = generate_cohort(spec)
        for t in cohort.truth:
            assert t.true_clv == pytest.approx(12.5 * t.true_ert, rel=1e-9)


class TestSpecParsing:
    def test_full_document(self):
        doc = {
            "baseline_shape": {"kind": "step", "h1": 0.2, "h2": 0.05, "change_t": 6},
            "alpha_dist": {"kind": "lognormal", "mu": 0.0, "sigma": 0.3},
            "n_customers": 100, "max_tenure": 12, "seed": 5,
            "competing": 0.7, "alpha_dist_inv": {"kind": "fixed", "a": 0.5},
            "score_noise_sigma": 0.05, "margin": 20.0, "discount_monthly": 0.004,
            "eps": 1e-5, "max_horizon": 600,
        }
        spec = simspec_from_dict(doc)
        assert spec.baseline_shape == StepShape(0.2, 0.05, 6)
        assert spec.alpha_dist == LognormalAlpha(0.0, 0.3)
        assert spec.alpha_dist_inv == FixedAlpha(0.5)
        assert spec.projection.max_horizon == 600

    def test_unknown_keys_rejected(self):
        doc = {"baseline_shape": {"kind": "flat", "h": 0.1},
               "alpha_dist": {"kind": "fixed", "a": 1.0},
               "n_customers": 10, "max_tenure": 2, "seed": 1, "bogus": True}
        with pytest.raises(ValueError):
            simspec_from_dict(doc)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError):
            simspec_from_dict({"alpha_dist": {"kind": "fixed", "a": 1.0},
                               "n_customers": 10, "max_tenure": 2, "seed": 1})


    REQUIRED = {"baseline_shape": {"kind": "flat", "h": 0.1},
                "alpha_dist": {"kind": "fixed", "a": 1.0},
                "n_customers": 10, "max_tenure": 2, "seed": 1}

    def test_omitted_keys_take_the_dataclass_defaults(self):
        default = SimSpec(FlatShape(0.1), FixedAlpha(1.0), n_customers=10, max_tenure=2, seed=1)
        assert simspec_from_dict(self.REQUIRED) == default
        nulls = {"competing": None, "alpha_dist_inv": None}
        assert simspec_from_dict(self.REQUIRED | nulls) == default

    @pytest.mark.parametrize("key", ["margin", "eps", "max_horizon", "score_noise_sigma"])
    def test_null_is_no_default_where_the_default_is_a_value(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            simspec_from_dict(self.REQUIRED | {key: None})

    def test_first_missing_key_in_field_order(self):
        doc = {key: self.REQUIRED[key] for key in ("alpha_dist", "seed")}
        with pytest.raises(ValueError, match="^simulation spec missing key: baseline_shape$"):
            simspec_from_dict(doc)
        with pytest.raises(ValueError, match="^simulation spec missing key: n_customers$"):
            simspec_from_dict(doc | {"baseline_shape": self.REQUIRED["baseline_shape"]})


class TestGoldenFiles:
    """Pin the seed-to-output mapping; a change here breaks replayability of
    archived cohorts and must be deliberate."""

    SPEC = SimSpec(baseline_shape=FlatShape(0.12), alpha_dist=LognormalAlpha(0.0, 0.5),
                   n_customers=50, max_tenure=9, seed=20240601, score_noise_sigma=0.2,
                   margin=15.0, discount_monthly=0.005)

    # sha256 digests of the three generated files (from the reference run)
    GOLDEN = {
        "calibration.csv": "7e170fb83a510fa5ffc46a04cb580e69511d4d2fa1f333234aa6a7a2bdbf9c50",
        "scoring.csv": "0851cc7d20419fa16c38937e06260c9277385083c546dec84ba6f9d10baafbd3",
        "truth.csv": "a2ce79c681c0966242abcb20161bec9febd4ab5e425b5d492558d33496d364d7",
    }

    def test_byte_stable_outputs(self, tmp_path):
        cohort = generate_cohort(self.SPEC)
        dataio.write_calibration(tmp_path / "calibration.csv", cohort.calibration)
        dataio.write_scoring(tmp_path / "scoring.csv", cohort.scoring)
        write_truth(tmp_path / "truth.csv", cohort.truth)
        for name, expected in self.GOLDEN.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, f"{name} digest changed: {digest}"

    COMPETING_SPEC = SimSpec(baseline_shape=StepShape(0.1, 0.04, 5),
                             alpha_dist=LognormalAlpha(0.0, 0.4),
                             alpha_dist_inv=LognormalAlpha(-0.5, 0.3), competing=0.7,
                             n_customers=60, max_tenure=9, seed=20240602,
                             score_noise_sigma=0.3, margin=20.0, discount_monthly=0.004)

    # Competing risks with score noise and no clipped customer.
    COMPETING_GOLDEN = {
        "calibration.csv": "4ebe055864d33aa401659c64cd74e85774f909db3bdb230bef5b8af1deae2f70",
        "scoring.csv": "b8104e8808dfdbbede5dec2ba90feab7966aa2724e3021c80913569e238d80b7",
        "truth.csv": "0a378b3c0cd64956161aa703f23ed555989c3af843b76eb6f9989917b17d4454",
    }

    def test_competing_byte_stable_outputs(self, tmp_path):
        cohort = generate_cohort(self.COMPETING_SPEC)
        assert cohort.clipped_hazards == 0
        dataio.write_calibration(tmp_path / "calibration.csv", cohort.calibration_batch,
                                 "competing")
        dataio.write_scoring(tmp_path / "scoring.csv", cohort.scoring_batch, "competing")
        write_truth(tmp_path / "truth.csv", cohort.truth_batch)
        for name, expected in self.COMPETING_GOLDEN.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, f"{name} digest changed: {digest}"
