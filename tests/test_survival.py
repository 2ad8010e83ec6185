from __future__ import annotations

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvkit import survival
from clvkit.cli import main
from clvkit.dataio import (
    CAUSES,
    MAX_CALIBRATION_TENURE,
    CalibrationBatch,
    CalibrationRecord,
    ScoringRecord,
    write_scoring,
)
from clvkit.errors import (
    EmptyCalibration,
    EmptyTail,
    InsufficientData,
    InvalidHazard,
    InvalidRecord,
    NotMonotone,
)
from clvkit.odds import (
    OddsModel,
    fit_odds_columns,
    predict_hazard_odds,
    project_with_odds_model,
)
from clvkit.projection import compute_alpha, project_customer, project_hazard
from clvkit.simulate import FixedAlpha, FlatShape, SimSpec, StepShape, generate_cohort
from clvkit.survival import (
    BaselineHazard,
    EventHistory,
    baseline_from_dict,
    detect_tail_start,
    estimate_cause_specific,
    estimate_causes,
    estimate_hazard_by_tenure,
    extrapolate_tail,
    hazard_at,
    hazard_to_survival,
    jeffreys_view,
    kaplan_meier,
    load_baseline,
    pooling_windows,
    save_baseline,
    survival_to_hazard,
)

from conftest import baseline_from_rates


def records_at(tenure, n, churned):
    return [CalibrationRecord(f"t{tenure}-{i}", tenure, 1 if i < churned else 0)
            for i in range(n)]


class TestEstimateHazardByTenure:
    def test_direct_ratio(self):
        baseline = estimate_hazard_by_tenure(records_at(5, 10, churned=2))
        assert baseline.hazards[5] == 0.2
        assert baseline.exposures[5] == 10
        assert baseline.events[5] == 2

    def test_zero_events(self):
        baseline = estimate_hazard_by_tenure(records_at(5, 10, churned=0))
        assert baseline.hazards[5] == 0.0

    def test_jeffreys_smoothing(self):
        baseline = estimate_hazard_by_tenure(records_at(5, 10, churned=2), "jeffreys")
        assert baseline.hazards[5] == (2 + 0.5) / (10 + 1)
        assert baseline.smoothing == "jeffreys"

    def test_unsmoothed_bins_equal_count_ratio(self):
        rng = np.random.default_rng(7)
        records = [CalibrationRecord(f"c{i}", int(rng.integers(0, 8)), int(rng.random() < 0.3))
                   for i in range(500)]
        baseline = estimate_hazard_by_tenure(records)
        for t in range(baseline.t_max + 1):
            if baseline.exposures[t] > 0:
                assert baseline.hazards[t] == baseline.events[t] / baseline.exposures[t]

    def test_gap_bins_marked_absent_not_zero(self):
        records = records_at(0, 5, 1) + records_at(2, 5, 0)
        baseline = estimate_hazard_by_tenure(records)
        assert np.isnan(baseline.hazards[1])
        assert baseline.exposures[1] == 0

    def test_empty_input(self):
        with pytest.raises(EmptyCalibration):
            estimate_hazard_by_tenure([])

    def test_bad_churn_flag(self):
        records = [CalibrationRecord("a", 0, 0), CalibrationRecord("b", 1, 2)]
        with pytest.raises(InvalidRecord) as err:
            estimate_hazard_by_tenure(records)
        assert err.value.row == 1

    def test_negative_tenure(self):
        with pytest.raises(InvalidRecord):
            estimate_hazard_by_tenure([CalibrationRecord("a", -1, 0)])

    def test_tenure_past_ceiling(self):
        # Counting sizes its arrays by the largest tenure: 10**12 months once
        # asked numpy for 7.28 TiB. Record and column inputs both stop first.
        at_ceiling = CalibrationRecord("a", MAX_CALIBRATION_TENURE, 0)
        assert estimate_hazard_by_tenure([at_ceiling]).t_max == MAX_CALIBRATION_TENURE
        for tenure in (MAX_CALIBRATION_TENURE + 1, 10**12):
            with pytest.raises(InvalidRecord) as err:
                estimate_hazard_by_tenure([at_ceiling, CalibrationRecord("b", tenure, 0)])
            assert err.value.row == 1
            assert str(MAX_CALIBRATION_TENURE) in err.value.reason
            batch = CalibrationBatch(("a",), np.array([tenure]), np.array([0]), None, None)
            with pytest.raises(InvalidRecord):
                estimate_causes([batch], ())

    def test_recovers_known_constant_hazard(self):
        # Oracle: the generator's planted rate. 20k exposure per tenure bin
        # keeps the +-0.005 check at more than 3 binomial sigma.
        spec = SimSpec(baseline_shape=FlatShape(0.05), alpha_dist=FixedAlpha(1.0),
                       n_customers=100_000, max_tenure=4, seed=20240301)
        cohort = generate_cohort(spec)
        baseline = estimate_hazard_by_tenure(cohort.calibration)
        for t in range(5):
            assert baseline.hazards[t] == pytest.approx(0.05, abs=0.005)

    def test_error_shrinks_with_sample_size(self):
        errors = []
        for n in (1_000, 10_000, 100_000):
            spec = SimSpec(baseline_shape=FlatShape(0.05), alpha_dist=FixedAlpha(1.0),
                           n_customers=n, max_tenure=4, seed=99)
            baseline = estimate_hazard_by_tenure(generate_cohort(spec).calibration)
            errors.append(float(np.max(np.abs(baseline.hazards - 0.05))))
        assert errors[0] > errors[1] > errors[2]

    def test_partition_and_merge_counts_match_sequential(self):
        rng = np.random.default_rng(11)
        records = [CalibrationRecord(f"c{i}", int(rng.integers(0, 6)), int(rng.random() < 0.2))
                   for i in range(300)]
        full = estimate_hazard_by_tenure(records)
        size = full.t_max + 1
        events = np.zeros(size, dtype=np.int64)
        exposures = np.zeros(size, dtype=np.int64)
        for part in (records[:100], records[100:150], records[150:]):
            partial = estimate_hazard_by_tenure(part)
            events[:partial.t_max + 1] += partial.events
            exposures[:partial.t_max + 1] += partial.exposures
        assert np.array_equal(events, full.events)
        assert np.array_equal(exposures, full.exposures)
        merged_rates = events[exposures > 0] / exposures[exposures > 0]
        assert np.array_equal(merged_rates, full.hazards[exposures > 0])


class TestCauseSpecific:
    def test_events_split_by_cause_over_common_exposures(self):
        records = []
        for i in range(20):
            cause = None
            churned = 0
            if i < 3:
                churned, cause = 1, "V"
            elif i < 8:
                churned, cause = 1, "I"
            records.append(CalibrationRecord(f"c{i}", 2, churned, cause))
        bv, bi = estimate_cause_specific(records)
        assert bv.events[2] == 3 and bi.events[2] == 5
        assert bv.exposures[2] == bi.exposures[2] == 20

    def test_missing_cause_rejected(self):
        with pytest.raises(InvalidRecord):
            estimate_cause_specific([CalibrationRecord("a", 0, 1, None)])

    def test_batches_without_a_cause_column_rejected(self):
        # A churner must name its cause; a batch with no cause column names none.
        batch = CalibrationBatch(("a", "b"), np.array([0, 1]), np.array([0, 1]), None, None)
        with pytest.raises(InvalidRecord, match="record 1: churner needs cause V or I, got None"):
            estimate_causes([batch], CAUSES)


class TestKaplanMeier:
    def test_hand_product_limit(self):
        histories = [EventHistory(1, True)] * 2 + [EventHistory(2, False)] * 8
        curve = kaplan_meier(histories)
        # d_1 = 2, n_1 = 10, no other events
        assert curve[0] == 1.0
        assert curve[1] == 0.8
        assert curve[2] == 0.8

    def test_all_censored(self):
        curve = kaplan_meier([EventHistory(d, False) for d in (0, 3, 5)])
        assert np.all(curve == 1.0)

    def test_two_event_times(self):
        # n_1 = 10 (2 events), n_2 = 8 (1 event, 7 censored at 2)
        histories = ([EventHistory(1, True)] * 2 + [EventHistory(2, True)]
                     + [EventHistory(2, False)] * 7)
        curve = kaplan_meier(histories)
        assert curve[1] == 0.8
        assert curve[2] == 0.8 * (1 - 1 / 8)
        assert curve[2] == pytest.approx(0.7, abs=1e-12)

    def test_event_at_duration_zero(self):
        curve = kaplan_meier([EventHistory(0, True), EventHistory(0, False),
                              EventHistory(1, False), EventHistory(1, False)])
        assert curve[0] == 0.75

    def test_empty(self):
        with pytest.raises(EmptyCalibration):
            kaplan_meier([])

    def test_nonincreasing_in_unit_interval(self):
        rng = np.random.default_rng(3)
        histories = [EventHistory(int(rng.integers(0, 20)), bool(rng.random() < 0.5))
                     for _ in range(200)]
        curve = kaplan_meier(histories)
        assert np.all(curve[1:] <= curve[:-1])
        assert np.all((curve >= 0) & (curve <= 1))


class TestConversions:
    def test_flat_survival_zero_hazard(self):
        assert np.array_equal(survival_to_hazard([1.0, 1.0]), [0.0, 0.0])

    def test_inverts_product(self):
        hazards = survival_to_hazard([0.9, 0.72])
        assert hazards[0] == pytest.approx(0.1, abs=1e-15)
        assert hazards[1] == pytest.approx(0.2, abs=1e-15)

    def test_zero_survival_pins_hazard_to_one(self):
        assert np.array_equal(survival_to_hazard([0.5, 0.0, 0.0]), [0.5, 1.0, 1.0])

    def test_increasing_curve_rejected(self):
        with pytest.raises(NotMonotone):
            survival_to_hazard([0.5, 0.6])

    def test_hazard_to_survival_products(self):
        assert np.array_equal(hazard_to_survival([0.0, 0.0, 0.0]), [1.0, 1.0, 1.0])
        assert np.array_equal(hazard_to_survival([0.5]), [0.5])
        out = hazard_to_survival([0.1, 0.2])
        assert out[0] == 0.9 and out[1] == 0.9 * 0.8

    def test_out_of_range_hazard(self):
        with pytest.raises(InvalidHazard) as err:
            hazard_to_survival([0.1, 1.2])
        assert err.value.index == 1

    def test_round_trip_identity(self):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            length = int(rng.integers(1, 60))
            hazards = rng.uniform(0.0, 0.9, size=length)
            if rng.random() < 0.2:
                hazards[int(rng.integers(0, length))] = 1.0  # forces trailing zeros
            curve = np.cumprod(1.0 - hazards)
            back = hazard_to_survival(survival_to_hazard(curve))
            assert np.max(np.abs(back - curve)) < 1e-12


def scan_tail_windows(baseline, window, rel_tol):
    """Independent brute-force check: exposure-weighted window means for
    every adjacent pair, flagging which pairs agree within rel_tol."""
    n = baseline.exposures
    weighted = np.where(n > 0, baseline.hazards, 0.0) * n
    flags = {}
    for s in range(baseline.t_max - 2 * window + 2):
        n1 = n[s:s + window].sum()
        n2 = n[s + window:s + 2 * window].sum()
        if n1 == 0 or n2 == 0:
            flags[s] = False
            continue
        m1 = weighted[s:s + window].sum() / n1
        m2 = weighted[s + window:s + 2 * window].sum() / n2
        flags[s] = abs(m1 - m2) <= rel_tol * max(m1, m2)
    return flags


class TestDetectTailStart:
    def test_constant_hazard_stable_at_origin(self):
        baseline = baseline_from_rates([0.04] * 24, exposure=1000)
        assert detect_tail_start(baseline, window=6, rel_tol=0.1) == 0

    def test_step_down_detected_at_change_point(self):
        rates = [0.2] * 12 + [0.04] * 12
        baseline = baseline_from_rates(rates, exposure=1000)
        flags = scan_tail_windows(baseline, 6, 0.1)
        assert all(flags[s] for s in range(12, max(flags) + 1))
        assert not flags[11]
        assert detect_tail_start(baseline, window=6, rel_tol=0.1) == 12

    def test_strictly_decreasing_falls_back_to_percentile(self):
        # h(t) = 0.5 / (t + 1) with exposure 100 * (t + 1), so events = 50
        exposures = np.array([100 * (t + 1) for t in range(24)], dtype=np.int64)
        events = np.full(24, 50, dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events,
                                  tail_start=24, tail_rate=0.05)
        flags = scan_tail_windows(baseline, 6, 0.001)
        assert not any(flags.values())
        # 90th percentile (lower) of observed tenures 0..23: index floor(0.9 * 23) = 20
        assert detect_tail_start(baseline, window=6, rel_tol=0.001) == 20

    def test_too_few_tenures(self):
        baseline = baseline_from_rates([0.1] * 8, exposure=100)
        with pytest.raises(InsufficientData):
            detect_tail_start(baseline, window=6)

    def test_deterministic(self, fixture_baseline):
        first = detect_tail_start(fixture_baseline)
        assert all(detect_tail_start(fixture_baseline) == first for _ in range(3))


class TestExtrapolateTail:
    def test_pooled_ratio(self):
        exposures = np.array([500, 100, 100], dtype=np.int64)
        events = np.array([50, 4, 6], dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events, 3, 0.1)
        tailed = extrapolate_tail(baseline, 1)
        assert tailed.tail_rate == 10 / 200
        assert tailed.tail_start == 1
        assert np.array_equal(tailed.hazards, baseline.hazards)

    def test_single_bin_tail(self):
        baseline = baseline_from_rates([0.1, 0.03], exposure=100)
        assert extrapolate_tail(baseline, 1).tail_rate == 0.03

    def test_empty_tail(self):
        exposures = np.array([100, 0], dtype=np.int64)
        events = np.array([10, 0], dtype=np.int64)
        baseline = BaselineHazard(np.array([0.1, np.nan]), exposures, events, 2, 0.1)
        with pytest.raises(EmptyTail):
            extrapolate_tail(baseline, 1)

    def test_recovers_simulated_tail_rate(self):
        spec = SimSpec(baseline_shape=StepShape(0.12, 0.06, 12), alpha_dist=FixedAlpha(1.0),
                       n_customers=100_000, max_tenure=30, seed=77)
        baseline = estimate_hazard_by_tenure(generate_cohort(spec).calibration)
        tailed = extrapolate_tail(baseline, 24)
        assert tailed.tail_rate == pytest.approx(0.06, abs=0.005)


class TestHazardAt:
    def test_tail_region(self):
        baseline = baseline_from_rates([0.1, 0.2], exposure=100, tail_start=1)
        assert hazard_at(baseline, 1) == baseline.tail_rate
        assert hazard_at(baseline, 500) == baseline.tail_rate

    def test_unpooled_bin(self):
        exposures = np.array([500, 500], dtype=np.int64)
        events = np.array([25, 25], dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events, 2, 0.05, min_events=5)
        assert hazard_at(baseline, 0) == 0.05

    def test_sparse_bin_pools_neighbors(self):
        exposures = np.array([40, 10, 50], dtype=np.int64)
        events = np.array([4, 1, 5], dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events, 3, 0.1, min_events=5)
        assert hazard_at(baseline, 1) == (1 + 4 + 5) / (10 + 40 + 50)

    def test_absent_bin_filled_by_pooling(self):
        exposures = np.array([100, 0, 100], dtype=np.int64)
        events = np.array([10, 0, 30], dtype=np.int64)
        baseline = BaselineHazard(np.array([0.1, np.nan, 0.3]), exposures, events, 3, 0.2,
                                  min_events=0)
        assert hazard_at(baseline, 1) == 40 / 200

    def test_total_and_deterministic(self, fixture_baseline):
        sample = list(range(40)) + [100, 999, 10_000]
        values = [hazard_at(fixture_baseline, t) for t in sample]
        assert all(0.0 <= v <= 1.0 for v in values)
        again = [hazard_at(fixture_baseline, t) for t in sample]
        assert values == again

    def test_negative_tenure_rejected(self, fixture_baseline):
        with pytest.raises(ValueError):
            hazard_at(fixture_baseline, -1)


class TestJeffreysView:
    def test_rates_recomputed_from_counts(self):
        baseline = baseline_from_rates([0.1, 0.0, 0.2], exposure=100, tail_start=2)
        view = jeffreys_view(baseline)
        assert view.hazards[0] == (10 + 0.5) / 101
        assert view.hazards[1] == 0.5 / 101
        assert view.tail_rate == (20 + 0.5) / 101
        assert view.smoothing == "jeffreys"

    def test_idempotent(self):
        baseline = baseline_from_rates([0.1, 0.2], exposure=100, tail_start=1)
        once = jeffreys_view(baseline)
        twice = jeffreys_view(once)
        assert np.array_equal(once.hazards, twice.hazards)
        assert once.tail_rate == twice.tail_rate

    @pytest.mark.parametrize("min_events", [None, 0, 8])
    def test_keeps_the_pooling_threshold(self, min_events):
        baseline = replace(baseline_from_rates([0.1, 0.0, 0.2], exposure=100, tail_start=2),
                           min_events=min_events)
        assert jeffreys_view(baseline).min_events == min_events


class TestTableIsResolvedOnce:
    # The baseline owns its resolved table: the first lookup builds it and
    # every later lookup, projection and odds call on that baseline reads it.
    def test_repeated_calls_resolve_the_baseline_and_its_view_once(self, monkeypatch):
        resolved = []

        def counted(baseline):
            resolved.append(baseline)
            return pooling_windows(baseline)

        monkeypatch.setattr(survival, "pooling_windows", counted)
        baseline = baseline_from_rates([0.2, 0.1, 0.0, 0.05, 0.02, 0.03], exposure=100,
                                       tail_start=4)
        for t in range(8):
            hazard_at(baseline, t)
            compute_alpha(0.1, baseline, t)
            project_customer(0.1, baseline, t)
        assert len(resolved) == 1 and resolved[0] is baseline

        rng = np.random.default_rng(3)
        tenure = np.arange(60) % 6
        outcome = (np.arange(60) % 5 == 0).astype(np.int64)
        model = fit_odds_columns(tenure, outcome, rng.normal(size=(60, 2)), baseline)
        for t in range(8):
            predict_hazard_odds(model, [0.5, -0.2], baseline, t)
            project_with_odds_model(model, [0.5, -0.2], baseline, t)
        assert len(resolved) == 2 and resolved[1] is jeffreys_view(baseline)

    def test_table_is_read_only(self, fixture_baseline):
        with pytest.raises(ValueError):
            fixture_baseline.table[0] = 0.5
        with pytest.raises(AttributeError):
            fixture_baseline.table = np.zeros(3)
        assert hazard_at(fixture_baseline, 0) == fixture_baseline.hazards[0]

    def test_replace_resolves_its_own_table(self):
        baseline = BaselineHazard([0.2, 0.1, 0.0, 0.05, 0.02, 0.03], [100] * 6,
                                  [20, 10, 0, 5, 2, 3], tail_start=5, tail_rate=0.03,
                                  min_events=0)
        before = baseline.table.copy()
        moved = replace(baseline, tail_start=2)
        assert len(moved.table) == 3 and moved.table[-1] == moved.tail_rate
        sparse = replace(baseline, min_events=50)
        assert sparse.table[2] != baseline.table[2] == 0.0
        assert np.array_equal(baseline.table, before)
        assert jeffreys_view(moved).tail_start == 2


class TestSerialization:
    def test_round_trip(self, tmp_path, fixture_baseline):
        path = tmp_path / "baseline.json"
        save_baseline(path, replace(fixture_baseline, min_events=3))
        loaded = load_baseline(path)
        assert np.array_equal(loaded.hazards, fixture_baseline.hazards)
        assert np.array_equal(loaded.exposures, fixture_baseline.exposures)
        assert np.array_equal(loaded.events, fixture_baseline.events)
        assert loaded.tail_start == fixture_baseline.tail_start
        assert loaded.tail_rate == fixture_baseline.tail_rate
        assert loaded.min_events == 3

    def test_absent_bins_serialize_as_null(self, tmp_path):
        exposures = np.array([100, 0], dtype=np.int64)
        events = np.array([10, 0], dtype=np.int64)
        baseline = BaselineHazard(np.array([0.1, np.nan]), exposures, events, 1, 0.1)
        path = tmp_path / "b.json"
        save_baseline(path, baseline)
        assert '"hazards": [\n  0.1,\n  null\n ]' in path.read_text() or "null" in path.read_text()
        loaded = load_baseline(path)
        assert np.isnan(loaded.hazards[1])
        assert loaded.min_events is None

    def test_unknown_keys_rejected(self):
        doc = baseline_from_rates([0.1], exposure=10).to_dict()
        doc["extra"] = 1
        with pytest.raises(ValueError):
            baseline_from_dict(doc)

    def test_wrong_version_rejected(self):
        doc = baseline_from_rates([0.1], exposure=10).to_dict()
        doc["version"] = 2
        with pytest.raises(ValueError):
            baseline_from_dict(doc)

    def test_content_sha_tracks_values(self, fixture_baseline):
        other = extrapolate_tail(fixture_baseline, 24)
        assert fixture_baseline.content_sha() == fixture_baseline.content_sha()
        assert fixture_baseline.content_sha() != other.content_sha()

    def test_content_sha_leaves_out_the_pooling_threshold(self, fixture_baseline):
        for min_events in (0, 5, 50):
            assert replace(fixture_baseline, min_events=min_events).content_sha() \
                == fixture_baseline.content_sha()


class TestLoadedBaselineMatchesCli:
    """A baseline read back from its document pools at its own threshold, so
    the library's numbers for it are the ones the CLI writes for that file."""

    @pytest.fixture
    def saved(self, tmp_path):
        # Jeffreys rates, so that the odds model's view is the baseline
        # itself. Tenure 1 holds 1 event of 2: at threshold 0 it keeps its
        # own rate, 0.5; at the default of 5 it would pool to 29.5 / 201.
        exposures = np.array([99, 2, 99, 199], dtype=np.int64)
        events = np.array([9, 1, 19, 19], dtype=np.int64)
        counts = BaselineHazard(events / exposures, exposures, events, 3, 19 / 199)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(jeffreys_view(counts).to_dict() | {"min_events": 0}),
                        encoding="utf-8")
        return path

    def test_hazards_and_curve(self, saved, tmp_path):
        loaded = load_baseline(saved)
        assert isinstance(loaded, BaselineHazard)
        assert hazard_at(loaded, 1) == 0.5
        out = tmp_path / "curve.csv"
        assert main(["curve", "--baseline", str(saved), "--alpha", "1.5", "--t0", "0",
                     "--horizon", "6", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["baseline_hazard"]) for r in rows] == [hazard_at(loaded, t)
                                                               for t in range(6)]
        assert [float(r["scaled_hazard"]) for r in rows] \
            == project_hazard(1.5, loaded, 0, 6).tolist()
        assert float(rows[1]["scaled_hazard"]) == 0.75

    def test_projections_and_odds_model(self, saved, tmp_path):
        loaded = load_baseline(saved)
        customers = [("c1", 1, 0.5), ("c2", 0, 0.19), ("c3", 2, 0.039), ("c4", 7, 0.0975)]
        scoring, out = tmp_path / "scoring.csv", tmp_path / "out.csv"
        write_scoring(scoring, [ScoringRecord(cid, t, 10.0, churn_score=s)
                                for cid, t, s in customers])
        assert main(["score", "--baseline", str(saved), "--scoring", str(scoring),
                     "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row, (cid, t0, score) in zip(rows, customers, strict=True):
            projection = project_customer(score, loaded, t0)
            assert (row["customer_id"], row["alpha"], row["ert_months"], row["truncated_at"]) \
                == (cid, f"{projection.alpha:.6f}", f"{projection.ert_months:.6f}",
                    str(projection.truncated_at))
        # Pooled at the default threshold, c1's alpha and ERT would differ.
        assert rows[0]["alpha"] == "1.000000"
        default = project_customer(0.5, replace(loaded, min_events=None), 1)
        assert f"{default.ert_months:.6f}" != rows[0]["ert_months"]
        # At beta 0 the odds projection is the unit-alpha one: c1's.
        model = OddsModel(beta=np.zeros(1), ridge=0.0, log_likelihood=-1.0, iterations=1,
                          converged=True, baseline_sha=loaded.content_sha())
        odds = project_with_odds_model(model, [0.3], loaded, 1)
        assert (f"{odds.ert_months:.6f}", str(odds.truncated_at)) \
            == (rows[0]["ert_months"], rows[0]["truncated_at"])


class TestSnapshotKaplanMeierEquivalence:
    """A snapshot built from a full-history risk set gives the same hazards
    as the product-limit route: the counts are identical integers."""

    @staticmethod
    def expand_to_snapshot(histories):
        records = []
        for k, h in enumerate(histories):
            for t in range(h.duration + 1):
                churned = int(h.churned and t == h.duration)
                records.append(CalibrationRecord(f"h{k}t{t}", t, churned))
        return records

    @staticmethod
    def brute_force_counts(histories):
        max_d = max(h.duration for h in histories)
        deaths = np.zeros(max_d + 1, dtype=np.int64)
        at_risk = np.zeros(max_d + 1, dtype=np.int64)
        for u in range(max_d + 1):
            at_risk[u] = sum(1 for h in histories if h.duration >= u)
            deaths[u] = sum(1 for h in histories if h.churned and h.duration == u)
        return deaths, at_risk

    def test_counts_identity_random_histories(self):
        rng = np.random.default_rng(21)
        histories = [EventHistory(int(rng.integers(0, 12)), bool(rng.random() < 0.4))
                     for _ in range(400)]
        deaths, at_risk = self.brute_force_counts(histories)
        baseline = estimate_hazard_by_tenure(self.expand_to_snapshot(histories))
        assert np.array_equal(baseline.events, deaths)
        assert np.array_equal(baseline.exposures, at_risk)
        km_hazards = survival_to_hazard(kaplan_meier(histories))
        mask = at_risk > 0
        assert np.max(np.abs(km_hazards[mask] - baseline.hazards[mask])) < 1e-12

    def test_exact_agreement_on_dyadic_risk_sets(self):
        # Risk sets sized as powers of two make every float division exact,
        # so the integer-count identity survives into the float hazards.
        histories = []
        histories += [EventHistory(0, True)] * 16 + [EventHistory(0, False)] * 16
        histories += [EventHistory(1, True)] * 8 + [EventHistory(1, False)] * 8
        histories += [EventHistory(2, True)] * 2 + [EventHistory(2, False)] * 14
        baseline = estimate_hazard_by_tenure(self.expand_to_snapshot(histories))
        km_hazards = survival_to_hazard(kaplan_meier(histories))
        assert np.array_equal(km_hazards, baseline.hazards)


# Reference implementations: the scalar expanding-window pooling loop and the
# start-by-start tail scan that the array versions replaced. The array
# versions must agree with them bit for bit.
def reference_hazard_at(baseline, t):
    if t < 0:
        raise ValueError("tenure must be >= 0")
    min_events = 5 if baseline.min_events is None else baseline.min_events
    if t >= baseline.tail_start:
        return baseline.tail_rate
    events = baseline.events
    exposures = baseline.exposures
    if events[t] >= min_events and exposures[t] > 0:
        return float(baseline.hazards[t])
    t_max = baseline.t_max
    lo = hi = t
    pooled_e = int(events[t])
    pooled_n = int(exposures[t])
    while (pooled_e < min_events or pooled_n == 0) and (lo > 0 or hi < t_max):
        if lo > 0:
            lo -= 1
            pooled_e += int(events[lo])
            pooled_n += int(exposures[lo])
        if hi < t_max:
            hi += 1
            pooled_e += int(events[hi])
            pooled_n += int(exposures[hi])
    if pooled_n == 0:
        return baseline.tail_rate
    if baseline.smoothing == "jeffreys":
        return (pooled_e + 0.5) / (pooled_n + 1.0)
    return pooled_e / pooled_n


def reference_detect_tail_start(baseline, window=6, rel_tol=0.10):
    if window < 1:
        raise ValueError("window must be >= 1")
    exposures = baseline.exposures
    observed = np.flatnonzero(exposures > 0)
    if observed.size < 2 * window:
        raise InsufficientData(
            f"need at least {2 * window} observed tenures, have {observed.size}")
    weighted = np.where(exposures > 0, baseline.hazards, 0.0) * exposures

    def window_mean(a, b):
        n = int(exposures[a:b].sum())
        return float(weighted[a:b].sum() / n) if n > 0 else None

    last = baseline.t_max - 2 * window + 1

    def stable(s):
        m1 = window_mean(s, s + window)
        m2 = window_mean(s + window, s + 2 * window)
        if m1 is None or m2 is None:
            return False
        return abs(m1 - m2) <= rel_tol * max(m1, m2)

    if not stable(last):
        return int(np.percentile(observed, 90, method="lower"))
    start = last
    while start > 0 and stable(start - 1):
        start -= 1
    return start


@st.composite
def count_baselines(draw, max_bins=30):
    """A baseline from drawn counts: sparse, empty or all-empty bins included."""
    n = draw(st.integers(1, max_bins))
    exposure_cap = draw(st.sampled_from([0, 3, 40, 2000]))
    exposures = np.array(draw(st.lists(st.integers(0, exposure_cap), min_size=n, max_size=n)),
                         dtype=np.int64)
    share = draw(st.floats(0.0, 1.0))
    events = np.floor(exposures * np.array(
        draw(st.lists(st.floats(0.0, share), min_size=n, max_size=n)))).astype(np.int64)
    smoothing = draw(st.sampled_from(["none", "jeffreys"]))
    hazards = np.full(n, np.nan)
    seen = exposures > 0
    if draw(st.booleans()):  # as a baseline document may hold them
        hazards[seen] = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))[:seen.sum()]
    elif smoothing == "jeffreys":
        hazards[seen] = (events[seen] + 0.5) / (exposures[seen] + 1.0)
    else:
        hazards[seen] = events[seen] / exposures[seen]
    return BaselineHazard(hazards, exposures, events, tail_start=draw(st.integers(0, n)),
                          tail_rate=draw(st.floats(0.0, 1.0)), smoothing=smoothing)


class TestPoolingAgainstScalarLoop:
    @settings(max_examples=500, deadline=None)
    @given(baseline=count_baselines(), min_events=st.sampled_from([0, 1, 5, 50]))
    def test_resolve_and_hazard_at_match_the_loop_bitwise(self, baseline, min_events):
        baseline = replace(baseline, min_events=min_events)
        want = [reference_hazard_at(baseline, t) for t in range(baseline.t_max + 2)]
        table = baseline.table
        assert len(table) == baseline.tail_start + 1
        assert [float(h).hex() for h in table[np.minimum(range(len(want)), len(table) - 1)]] \
            == [h.hex() for h in want]
        assert [hazard_at(baseline, t).hex() for t in range(len(want))] \
            == [h.hex() for h in want]

    @settings(max_examples=100, deadline=None)
    @given(baseline=count_baselines(), min_events=st.sampled_from([0, 1, 5, 50]))
    def test_all_zero_exposure_takes_the_tail_rate(self, baseline, min_events):
        empty = BaselineHazard(np.full(baseline.t_max + 1, np.nan),
                               np.zeros(baseline.t_max + 1, dtype=np.int64),
                               np.zeros(baseline.t_max + 1, dtype=np.int64),
                               baseline.tail_start, baseline.tail_rate, baseline.smoothing,
                               min_events)
        table = empty.table
        assert np.all(table == empty.tail_rate)
        assert all(reference_hazard_at(empty, t) == empty.tail_rate
                   for t in range(empty.t_max + 2))

    @settings(max_examples=300, deadline=None)
    @given(baseline=count_baselines(), min_events=st.sampled_from([0, 1, 5, 50]))
    def test_windows_are_the_loops_windows(self, baseline, min_events):
        lo, hi, pooled = pooling_windows(replace(baseline, min_events=min_events))
        t = np.arange(baseline.tail_start)
        assert np.array_equal(pooled, (baseline.events[t] < min_events)
                              | (baseline.exposures[t] == 0))
        assert np.array_equal(lo[~pooled], t[~pooled]) and np.array_equal(hi[~pooled], t[~pooled])
        # Symmetric about the tenure until cut at the observed range.
        assert np.all((t - lo == hi - t) | (lo == 0) | (hi == baseline.t_max))

    def test_hazard_at_is_total_for_huge_tenures(self, fixture_baseline):
        assert hazard_at(fixture_baseline, 10**30) == fixture_baseline.tail_rate

    def test_zero_exposure_bin_pools_at_min_events_zero(self):
        exposures = np.array([100, 0, 100, 100], dtype=np.int64)
        events = np.array([10, 0, 20, 5], dtype=np.int64)
        baseline = BaselineHazard(np.array([0.1, np.nan, 0.2, 0.05]), exposures, events, 4, 0.05,
                                  min_events=0)
        _, _, pooled = pooling_windows(baseline)
        assert pooled.tolist() == [False, True, False, False]
        assert hazard_at(baseline, 1) == 30 / 200


class TestTailDetectionAgainstScan:
    @settings(max_examples=500, deadline=None)
    @given(baseline=count_baselines(max_bins=40), window=st.integers(1, 12),
           rel_tol=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.1, 0.3]))
    def test_matches_the_start_by_start_scan(self, baseline, window, rel_tol):
        try:
            want = reference_detect_tail_start(baseline, window, rel_tol)
        except InsufficientData:
            with pytest.raises(InsufficientData):
                detect_tail_start(baseline, window, rel_tol)
            return
        assert detect_tail_start(baseline, window, rel_tol) == want

    def test_window_sums_round_as_slice_sums(self):
        # A flat curve is stable at rel_tol 0 only if every window's float
        # sum rounds alike; differences of a running sum would not.
        exposures = np.full(40, 7, dtype=np.int64)
        baseline = BaselineHazard(np.full(40, 0.1), exposures, np.ones(40, dtype=np.int64),
                                  40, 0.1)
        for window in range(1, 13):
            assert reference_detect_tail_start(baseline, window, 0.0) == 0
            assert detect_tail_start(baseline, window, 0.0) == 0

    def test_fallback_matches_the_scan(self):
        exposures = np.array([100 * (t + 1) for t in range(30)], dtype=np.int64)
        events = np.full(30, 50, dtype=np.int64)
        baseline = BaselineHazard(events / exposures, exposures, events, 30, 0.05)
        for window in range(1, 13):
            want = reference_detect_tail_start(baseline, window, 0.001)
            assert want == int(np.percentile(np.arange(30), 90, method="lower"))
            assert detect_tail_start(baseline, window, 0.001) == want
