from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvkit import dataio
from clvkit.cli import main
from clvkit.odds import load_model
from clvkit.survival import hazard_at, jeffreys_view, load_baseline, save_baseline

from conftest import baseline_from_rates, fixture_curve_rates


SIM_SPEC = {
    "baseline_shape": {"kind": "flat", "h": 0.1},
    "alpha_dist": {"kind": "fixed", "a": 1.0},
    "n_customers": 2_000,
    "max_tenure": 19,
    "seed": 7,
    "margin": 10.0,
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_one_line_error(capsys, code, expected_code, *needles):
    """The command failed with ``expected_code`` and one stderr line, no traceback."""
    err = capsys.readouterr().err
    assert code == expected_code
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


@pytest.fixture
def score_inputs(tmp_path, fixture_baseline):
    """A saved baseline and a small single-risk scoring file."""
    baseline = tmp_path / "baseline.json"
    save_baseline(baseline, fixture_baseline)
    scoring = tmp_path / "scoring.csv"
    dataio.write_scoring(scoring, [dataio.ScoringRecord("c1", 3, 10.0, churn_score=0.05)])
    return ["--baseline", str(baseline), "--scoring", str(scoring),
            "--out", str(tmp_path / "p.csv")]


@pytest.fixture
def cohort_dir(tmp_path):
    spec = write_json(tmp_path / "spec.json", SIM_SPEC)
    out = tmp_path / "cohort"
    assert main(["simulate", "--spec", str(spec), "--out-dir", str(out)]) == 0
    return out


class TestSimulateCommand:
    def test_writes_three_files(self, cohort_dir):
        for name in ("calibration.csv", "scoring.csv", "truth.csv"):
            assert (cohort_dir / name).exists()

    def test_seed_override_changes_output(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SIM_SPEC)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--spec", str(spec), "--out-dir", str(a)]) == 0
        assert main(["simulate", "--spec", str(spec), "--out-dir", str(b),
                     "--seed", "8"]) == 0
        assert (a / "calibration.csv").read_bytes() != (b / "calibration.csv").read_bytes()

    def test_bad_spec_is_usage_error(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"bogus": 1})
        assert main(["simulate", "--spec", str(spec), "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("change, key", [
        ({"seed": -1}, "seed"),
        ({"alpha_dist": {"kind": "lognormal", "mu": 0.0, "sigma": -0.5}}, "alpha_dist.sigma"),
        ({"alpha_dist": {"kind": "lognormal", "mu": 0.0, "sigma": "nan"}}, "alpha_dist.sigma"),
        ({"alpha_dist": {"kind": "lognormal", "mu": 0.0, "sigma": "inf"}}, "alpha_dist.sigma"),
        ({"competing": 0.5, "alpha_dist_inv": {"kind": "lognormal", "mu": 0.0, "sigma": -1}},
         "alpha_dist_inv.sigma"),
        ({"alpha_dist": {"kind": "fixed", "a": -1.0}}, "alpha_dist.a"),
        ({"baseline_shape": {"kind": "flat", "h": -0.5}}, "baseline_shape.h"),
        ({"baseline_shape": {"kind": "flat", "h": 1.5}}, "baseline_shape.h"),
        ({"baseline_shape": {"kind": "step", "h1": 0.1, "h2": 2.0, "change_t": 3}},
         "baseline_shape.h2"),
        ({"baseline_shape": {"kind": "decaying", "a": 1.2, "b": 0.9}}, "baseline_shape.a"),
        ({"baseline_shape": {"kind": "decaying", "a": 0.3, "b": 0.0}}, "baseline_shape.b"),
        ({"baseline_shape": {"kind": "decaying", "a": 0.3, "b": 1.5}}, "baseline_shape.b"),
        ({"margin": "nan"}, "margin"),
        ({"discount_monthly": -0.01}, "discount_monthly"),
        ({"max_tenure": 100_001}, "max_tenure"),
        ({"alpha_dist_inv": {"kind": "fixed", "a": 9.0}}, "alpha_dist_inv"),
        ({"n_customers": 2.5}, "n_customers"),
        ({"baseline_shape": {"kind": "step", "h1": 0.1, "h2": 0.05, "change_t": 3.7}},
         "baseline_shape.change_t"),
    ])
    def test_out_of_range_spec_value_names_the_key(self, tmp_path, capsys, change, key):
        spec = write_json(tmp_path / "spec.json", SIM_SPEC | change)
        out = tmp_path / "x"
        code = main(["simulate", "--spec", str(spec), "--out-dir", str(out)])
        assert_one_line_error(capsys, code, 2, f"bad simulation spec: {key} must")
        assert not out.exists()

    def test_negative_seed_override_names_the_key(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SIM_SPEC)
        code = main(["simulate", "--spec", str(spec), "--out-dir", str(tmp_path / "x"),
                     "--seed", "-3"])
        assert_one_line_error(capsys, code, 2, "seed must be >= 0")


class TestBaselineCommand:
    @pytest.mark.parametrize("tail_start", ["20", "-1"])
    def test_out_of_range_tail_start_is_usage_error(self, cohort_dir, tmp_path, capsys,
                                                    tail_start):
        code = main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--out", str(tmp_path / "b.json"), f"--tail-start={tail_start}"])
        assert_one_line_error(capsys, code, 2, "--tail-start")

    def test_estimates_and_extrapolates(self, cohort_dir, tmp_path):
        out = tmp_path / "baseline.json"
        code = main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--out", str(out), "--tail-start", "12"])
        assert code == 0
        loaded = load_baseline(out)
        assert loaded.tail_start == 12
        assert loaded.t_max == 19
        assert loaded.min_events is None

    def test_min_events_persisted(self, cohort_dir, tmp_path):
        out = tmp_path / "baseline.json"
        assert main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--out", str(out), "--tail-start", "10", "--min-events", "8"]) == 0
        assert load_baseline(out).min_events == 8

    def test_tail_flags_mutually_exclusive(self, cohort_dir, tmp_path, capsys):
        # A usage error, found before the calibration file is opened.
        for calibration in (cohort_dir / "calibration.csv", tmp_path / "missing.csv"):
            code = main(["baseline", "--calibration", str(calibration),
                         "--out", str(tmp_path / "b.json"), "--tail-start", "5", "--auto-tail"])
            assert_one_line_error(capsys, code, 2, "mutually exclusive")
        assert not (tmp_path / "b.json").exists()

    def test_missing_file_is_validation_error(self, tmp_path):
        code = main(["baseline", "--calibration", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "b.json")])
        assert code == 1

    def test_invalid_row_reports_and_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("customer_id,tenure,churned\nc1,5,2\n", encoding="utf-8")
        assert main(["baseline", "--calibration", str(bad),
                     "--out", str(tmp_path / "b.json")]) == 1

    @pytest.mark.parametrize("customers, warned", [
        # 10 (t + 1) customers and 5 churns at tenure t: the hazard keeps
        # falling, so the last two windows (12-17, 18-23) differ by 28 %.
        pytest.param(lambda t: 10 * (t + 1), True, id="falling"),
        pytest.param(lambda t: 100, False, id="flat"),
    ])
    def test_tail_fallback_warns(self, tmp_path, caplog, customers, warned):
        calibration = tmp_path / "calibration.csv"
        dataio.write_calibration(calibration, [
            dataio.CalibrationRecord(f"c{t}-{i}", t, int(i < 5))
            for t in range(24) for i in range(customers(t))])
        out = tmp_path / "b.json"
        assert main(["baseline", "--calibration", str(calibration), "--out", str(out)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        if warned:
            assert len(warnings) == 1, warnings
            assert "90th-percentile observed tenure 20" in warnings[0]
            assert load_baseline(out).tail_start == 20
        else:
            assert warnings == []
            assert load_baseline(out).tail_start == 0

    def test_competing_tail_fallbacks_name_their_output(self, tmp_path, caplog):
        # Both causes' hazards keep falling (5 V and 5 I churns of 10 (t + 1)
        # customers at tenure t), so each curve falls back on its own.
        calibration = tmp_path / "calibration.csv"
        dataio.write_calibration(calibration, [
            dataio.CalibrationRecord(f"c{t}-{i}", t, int(i < 10), "VI"[i % 2] if i < 10 else "")
            for t in range(24) for i in range(10 * (t + 1))], "competing")
        out = tmp_path / "b.json"
        assert main(["baseline", "--calibration", str(calibration), "--out", str(out),
                     "--competing"]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2, warnings
        for warning, name in zip(warnings, ["b_v.json", "b_inv.json"]):
            assert warning.startswith(f"no stable tail for {tmp_path / name}: ")
            assert "90th-percentile observed tenure 20" in warning

    @pytest.mark.parametrize("min_events, pooled", [("0", 1), ("25", 3)])
    def test_sparse_warning_counts_the_bins_that_pool(self, tmp_path, caplog, min_events,
                                                      pooled):
        # No customer at tenure 1: at --min-events 0 only that empty bin
        # pools; at 25 every bin below the tail with fewer events does too.
        # Either way tenure 1 reads the window over tenures 0-2, 30 / 200.
        calibration = tmp_path / "calibration.csv"
        dataio.write_calibration(calibration, [
            dataio.CalibrationRecord(f"c{t}-{i}", t, int(i < churners))
            for t, churners in ((0, 10), (2, 20), (3, 5)) for i in range(100)])
        out = tmp_path / "b.json"
        assert main(["baseline", "--calibration", str(calibration), "--out", str(out),
                     "--tail-start", "3", "--min-events", min_events]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1, warnings
        assert warnings[0].startswith(f"{pooled} tenure bins hold fewer than {min_events} "
                                      "events or no exposure")
        assert hazard_at(load_baseline(out), 1) == 30 / 200

    def test_competing_writes_two_files(self, tmp_path):
        spec = dict(SIM_SPEC)
        spec.update({"competing": 0.6, "n_customers": 3_000})
        path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "cohort"
        assert main(["simulate", "--spec", str(path), "--out-dir", str(out)]) == 0
        code = main(["baseline", "--calibration", str(out / "calibration.csv"),
                     "--out", str(tmp_path / "base.json"), "--competing",
                     "--tail-start", "10"])
        assert code == 0
        assert (tmp_path / "base_v.json").exists()
        assert (tmp_path / "base_inv.json").exists()
        bv = load_baseline(tmp_path / "base_v.json")
        bi = load_baseline(tmp_path / "base_inv.json")
        assert np.array_equal(bv.exposures, bi.exposures)
        assert np.array_equal(bv.events + bi.events <= bv.exposures,
                              np.ones(len(bv.events), dtype=bool))

    @pytest.mark.parametrize("flags", [
        ["--auto-tail"],
        ["--tail-start", "10", "--smoothing", "jeffreys", "--min-events", "0"],
    ])
    def test_single_risk_reads_a_cause_labelled_file(self, tmp_path, flags):
        # The whole-base curve of a competing cohort: counting ignores causes.
        spec = write_json(tmp_path / "spec.json",
                          SIM_SPEC | {"competing": 0.6, "n_customers": 3_000})
        assert main(["simulate", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        labelled = tmp_path / "calibration.csv"
        with open(labelled, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["customer_id", "tenure", "churned", "cause"]
        assert {row[3] for row in rows[1:]} == {"", "V", "I"}
        stripped = tmp_path / "stripped.csv"
        stripped.write_text("".join(",".join(row[:3]) + "\n" for row in rows), encoding="utf-8")
        for path in (labelled, stripped):
            assert main(["baseline", "--calibration", str(path),
                         "--out", str(tmp_path / f"{path.stem}.json"), *flags]) == 0
        written = (tmp_path / "calibration.json").read_bytes()
        assert written == (tmp_path / "stripped.json").read_bytes()
        assert load_baseline(tmp_path / "calibration.json").events.sum() > 0

    @pytest.mark.parametrize("row, reason", [
        ("c2,4,1,X", "must be V or I for churners"),
        ("c2,4,1,", "must be V or I for churners"),
        ("c2,4,0,V", "must be empty unless churned"),
    ])
    def test_single_risk_checks_a_cause_column(self, tmp_path, capsys, row, reason):
        path = tmp_path / "c.csv"
        path.write_text(f"customer_id,tenure,churned,cause\nc1,3,1,I\n{row}\n",
                        encoding="utf-8")
        code = main(["baseline", "--calibration", str(path), "--out", str(tmp_path / "b.json")])
        assert_one_line_error(capsys, code, 1, "row 3", "'cause'", reason)


class TestScoreCommand:
    def test_end_to_end_and_clv_identity(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "projections.csv"
        assert main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--out", str(baseline), "--tail-start", "0"]) == 0
        assert main(["score", "--baseline", str(baseline),
                     "--scoring", str(cohort_dir / "scoring.csv"),
                     "--out", str(out), "--discount-monthly", "0"]) == 0
        rows = read_csv(out)
        assert len(rows) == SIM_SPEC["n_customers"]
        for row in rows:
            assert float(row["clv"]) == pytest.approx(10.0 * float(row["ert_months"]),
                                                      abs=1e-6 * 10)

    def test_output_order_matches_input(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "projections.csv"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        main(["score", "--baseline", str(baseline),
              "--scoring", str(cohort_dir / "scoring.csv"), "--out", str(out)])
        scored_ids = [r["customer_id"] for r in read_csv(out)]
        input_ids = [r.customer_id for r in dataio.read_scoring(cohort_dir / "scoring.csv")]
        assert scored_ids == input_ids

    def test_both_discount_flags_usage_error(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        code = main(["score", "--baseline", str(baseline),
                     "--scoring", str(cohort_dir / "scoring.csv"),
                     "--out", str(tmp_path / "p.csv"),
                     "--discount-annual", "0.1", "--discount-monthly", "0.01"])
        assert code == 2

    @pytest.mark.parametrize("option", ["--discount-annual", "--discount-monthly"])
    @pytest.mark.parametrize("by_config", [False, True])
    def test_negative_discount_is_usage_error(self, score_inputs, tmp_path, capsys,
                                              option, by_config):
        if by_config:
            cfg = write_json(tmp_path / "c.json", {option[2:].replace("-", "_"): -0.1})
            extra = ["--config", str(cfg)]
        else:
            extra = [f"{option}=-0.5"]
        code = main(["score", *score_inputs, *extra])
        assert_one_line_error(capsys, code, 2, f"{option} must be >= 0")
        assert not (tmp_path / "p.csv").exists()

    def test_discount_lowers_clv(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        flat = tmp_path / "flat.csv"
        disc = tmp_path / "disc.csv"
        main(["score", "--baseline", str(baseline),
              "--scoring", str(cohort_dir / "scoring.csv"), "--out", str(flat)])
        main(["score", "--baseline", str(baseline),
              "--scoring", str(cohort_dir / "scoring.csv"), "--out", str(disc),
              "--discount-annual", "0.12"])
        for a, b in zip(read_csv(flat), read_csv(disc)):
            assert float(b["clv"]) < float(a["clv"])
            assert a["ert_months"] == b["ert_months"]

    def test_competing_requires_inv_baseline(self, cohort_dir, tmp_path):
        code = main(["score", "--baseline", str(tmp_path / "b.json"),
                     "--scoring", str(cohort_dir / "scoring.csv"),
                     "--out", str(tmp_path / "p.csv"), "--competing"])
        assert code == 2

    def test_competing_end_to_end(self, tmp_path):
        spec = dict(SIM_SPEC)
        spec.update({"competing": 0.6, "n_customers": 3_000,
                     "alpha_dist": {"kind": "fixed", "a": 1.2},
                     "alpha_dist_inv": {"kind": "fixed", "a": 0.8}})
        path = write_json(tmp_path / "spec.json", spec)
        out = tmp_path / "cohort"
        assert main(["simulate", "--spec", str(path), "--out-dir", str(out)]) == 0
        assert main(["baseline", "--calibration", str(out / "calibration.csv"),
                     "--out", str(tmp_path / "base.json"), "--competing",
                     "--tail-start", "0"]) == 0
        code = main(["score", "--baseline", str(tmp_path / "base_v.json"),
                     "--baseline-inv", str(tmp_path / "base_inv.json"),
                     "--scoring", str(out / "scoring.csv"),
                     "--out", str(tmp_path / "proj.csv"), "--competing"])
        assert code == 0
        rows = read_csv(tmp_path / "proj.csv")
        assert len(rows) == 3_000
        assert all(float(r["ert_months"]) > 0 for r in rows)


    @pytest.mark.parametrize("flags, needle", [
        (["--eps", "2"], "eps"),
        (["--eps", "nan"], "--eps"),
        (["--max-horizon", "0"], "max_horizon"),
        (["--chunk-size", "0"], "--chunk-size"),
    ])
    def test_out_of_range_option_is_usage_error(self, score_inputs, tmp_path, capsys,
                                                flags, needle):
        code = main(["score", *score_inputs, *flags])
        assert_one_line_error(capsys, code, 2, needle)
        assert not (tmp_path / "p.csv").exists()

    def test_truncated_baseline_is_data_error(self, score_inputs, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        text = baseline.read_text(encoding="utf-8")
        baseline.write_text(text[:len(text) // 2], encoding="utf-8")
        code = main(["score", *score_inputs])
        assert_one_line_error(capsys, code, 1, str(baseline))

    def test_unknown_baseline_key_is_data_error(self, score_inputs, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["colour"] = "blue"
        write_json(baseline, doc)
        code = main(["score", *score_inputs])
        assert_one_line_error(capsys, code, 1, str(baseline), "colour")


class TestCurveCommand:
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_is_usage_error(self, tmp_path, fixture_baseline, capsys,
                                             alpha):
        path = tmp_path / "baseline.json"
        save_baseline(path, fixture_baseline)
        out = tmp_path / "curve.csv"
        code = main(["curve", "--baseline", str(path), f"--alpha={alpha}",
                     "--t0", "0", "--horizon", "5", "--out", str(out)])
        assert_one_line_error(capsys, code, 2, "--alpha")
        assert not out.exists()

    def test_unit_alpha_identity(self, tmp_path, fixture_baseline):
        path = tmp_path / "baseline.json"
        save_baseline(path, fixture_baseline)
        out = tmp_path / "curve.csv"
        assert main(["curve", "--baseline", str(path), "--alpha", "1.0",
                     "--t0", "0", "--horizon", "40", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 40
        for row in rows:
            assert row["scaled_hazard"] == row["baseline_hazard"]

    def test_survival_column_is_running_product(self, tmp_path, fixture_baseline):
        path = tmp_path / "baseline.json"
        save_baseline(path, fixture_baseline)
        out = tmp_path / "curve.csv"
        main(["curve", "--baseline", str(path), "--alpha", "1.3",
              "--t0", "18", "--horizon", "12", "--out", str(out)])
        rows = read_csv(out)
        survival = 1.0
        for row in rows:
            survival *= 1.0 - float(row["scaled_hazard"])
            assert float(row["survival"]) == survival


class TestFitOddsCommand:
    @pytest.mark.parametrize("flag", ["--ridge=-1", "--max-iter=0", "--tol=nan"])
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, flag):
        code = main(["fit-odds", "--calibration", str(tmp_path / "cal.csv"),
                     "--baseline", str(tmp_path / "b.json"), "--out", str(tmp_path / "m.json"),
                     flag])
        assert_one_line_error(capsys, code, 2, flag.split("=")[0])

    def test_fit_writes_model_json(self, tmp_path):
        rng = np.random.default_rng(15)
        baseline = baseline_from_rates([0.1] * 8, exposure=1000, tail_start=0)
        bpath = tmp_path / "baseline.json"
        save_baseline(bpath, baseline)
        records = []
        for i in range(1_500):
            x = float(rng.normal())
            t = int(rng.integers(0, 8))
            p = 1 / (1 + np.exp(-(np.log(0.1 / 0.9) + 0.8 * x)))
            records.append(dataio.CalibrationRecord(
                f"c{i}", t, int(rng.random() < p), covariates=(x,)))
        cal = tmp_path / "cal.csv"
        dataio.write_calibration(cal, records)
        out = tmp_path / "model.json"
        assert main(["fit-odds", "--calibration", str(cal), "--baseline", str(bpath),
                     "--out", str(out)]) == 0
        model = load_model(out)
        assert model.converged
        assert model.baseline_sha == baseline.content_sha()
        assert model.beta[0] == pytest.approx(0.8, abs=0.25)

    @pytest.mark.parametrize("max_iter, warned", [("1", True), ("50", False)])
    def test_unconverged_fit_warns(self, tmp_path, caplog, max_iter, warned):
        rng = np.random.default_rng(15)
        bpath = tmp_path / "baseline.json"
        save_baseline(bpath, baseline_from_rates([0.1] * 8, exposure=1000, tail_start=0))
        cal = tmp_path / "cal.csv"
        dataio.write_calibration(cal, [
            dataio.CalibrationRecord(f"c{i}", i % 8, int(rng.random() < 0.1),
                                     covariates=(float(rng.normal()),))
            for i in range(1_500)])
        out = tmp_path / "model.json"
        assert main(["fit-odds", "--calibration", str(cal), "--baseline", str(bpath),
                     "--out", str(out), "--max-iter", max_iter]) == 0
        assert load_model(out).converged is not warned
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == (["fit did not converge in 1 iterations (--max-iter 1); the "
                             "coefficients are not a maximum of the likelihood"]
                            if warned else [])

    def test_missing_covariates_fail(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        code = main(["fit-odds", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--baseline", str(baseline), "--out", str(tmp_path / "m.json")])
        assert code == 1


class TestConfigFile:
    def test_config_equals_flags(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        by_flags = tmp_path / "flags.csv"
        by_config = tmp_path / "config.csv"
        assert main(["score", "--baseline", str(baseline),
                     "--scoring", str(cohort_dir / "scoring.csv"),
                     "--out", str(by_flags), "--eps", "1e-5",
                     "--discount-monthly", "0.01"]) == 0
        cfg = write_json(tmp_path / "score.json", {
            "baseline": str(baseline),
            "scoring": str(cohort_dir / "scoring.csv"),
            "out": str(by_config),
            "eps": 1e-5,
            "discount_monthly": 0.01,
        })
        assert main(["score", "--config", str(cfg)]) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()

    def test_flags_override_config(self, cohort_dir, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
              "--out", str(baseline), "--tail-start", "0"])
        cfg = write_json(tmp_path / "score.json", {
            "baseline": str(baseline),
            "scoring": str(cohort_dir / "scoring.csv"),
            "out": str(tmp_path / "from_config.csv"),
        })
        override = tmp_path / "override.csv"
        assert main(["score", "--config", str(cfg), "--out", str(override)]) == 0
        assert override.exists()
        assert not (tmp_path / "from_config.csv").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"calibrationn": "x"})
        assert main(["baseline", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("eps", "abc"), ("max_horizon", "many"), ("max_horizon", 2.5), ("chunk_size", True),
    ])
    def test_mistyped_config_value_is_usage_error(self, score_inputs, tmp_path, capsys,
                                                  key, value):
        cfg = write_json(tmp_path / "score.json", {key: value})
        code = main(["score", *score_inputs, "--config", str(cfg)])
        assert_one_line_error(capsys, code, 2, "--" + key.replace("_", "-"))

    @pytest.mark.parametrize("key, value", [
        ("out", 5), ("calibration", ["c.csv"]), ("smoothing", 1),
        ("competing", "false"), ("auto_tail", "no"), ("auto_tail", 1),
    ])
    def test_mistyped_baseline_config_value_is_usage_error(self, cohort_dir, tmp_path,
                                                           capsys, key, value):
        doc = {"calibration": str(cohort_dir / "calibration.csv"),
               "out": str(tmp_path / "b.json"), key: value}
        cfg = write_json(tmp_path / "baseline.json", doc)
        code = main(["baseline", "--config", str(cfg)])
        assert_one_line_error(capsys, code, 2, "--" + key.replace("_", "-"), repr(value))
        assert not (tmp_path / "b.json").exists()

    def test_config_that_is_not_json_is_usage_error(self, score_inputs, tmp_path, capsys):
        cfg = tmp_path / "score.json"
        cfg.write_text('{"eps": ', encoding="utf-8")
        code = main(["score", *score_inputs, "--config", str(cfg)])
        assert_one_line_error(capsys, code, 2, str(cfg))

    def test_missing_required_after_merge(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"out": "x.json"})
        assert main(["baseline", "--config", str(cfg)]) == 2


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["baseline", "--frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_cli_import_leaves_scipy_out(self):
        code = "import sys, clvkit.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_module_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "clvkit.cli", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "baseline" in result.stdout

    def test_log_level_env(self, cohort_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LOG_LEVEL", "debug")
        baseline = tmp_path / "baseline.json"
        assert main(["baseline", "--calibration", str(cohort_dir / "calibration.csv"),
                     "--out", str(baseline), "--tail-start", "0"]) == 0


def python(code, blas_threads=None):
    """Run ``code`` in a fresh interpreter, with OPENBLAS_NUM_THREADS set to
    ``blas_threads`` or unset; its stdout, stripped."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestLazyImports:
    def test_package_import_loads_no_numpy_and_sets_nothing(self):
        code = ("import os, sys, clvkit; "
                "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)")
        assert python(code) == "False False"

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_cli_import_defaults_blas_to_one_thread(self, given, expected):
        code = "import os, clvkit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert python(code, blas_threads=given) == expected

    def test_cli_import_loads_only_what_every_command_uses(self):
        code = ("import sys, clvkit.cli; "
                "print(*sorted(m for m in sys.modules if m.startswith('clvkit')))")
        assert python(code) == "clvkit clvkit.cli clvkit.dataio clvkit.errors clvkit.survival"

    def test_cli_import_leaves_out_hashlib(self):
        # Only fit-odds hashes a baseline; OpenSSL costs every other command.
        code = "import sys, clvkit.cli; print('hashlib' in sys.modules, '_hashlib' in sys.modules)"
        assert python(code) == "False False"

    def test_every_export_is_its_submodules_object(self):
        code = """
import importlib, clvkit
for name in clvkit.__all__:
    value = getattr(clvkit, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("clvkit."), name
    assert getattr(home, name) is value, name
    assert name in dir(clvkit), name
print("ok")
"""
        assert python(code) == "ok"

    def test_star_import_binds_every_name(self):
        code = """
import clvkit
names = {}
exec("from clvkit import *", names)
print(sorted(set(clvkit.__all__) - set(names)))
"""
        assert python(code) == "[]"

    def test_unknown_attribute_raises_attribute_error(self):
        code = """
import clvkit
try:
    clvkit.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(clvkit, "cli"), clvkit.survival.__name__)
"""
        assert python(code).splitlines() == [
            "module 'clvkit' has no attribute 'no_such_name'", "False clvkit.survival"]


class TestDataErrors:
    def test_score_over_underflowing_tail_rate_is_degenerate(self, tmp_path, capsys):
        # 0.5 / 5e-324 overflows to inf: no finite alpha exists.
        baseline = write_json(tmp_path / "b.json", {
            "version": 1, "hazards": [0.1], "exposures": [10], "events": [1],
            "tail_start": 0, "tail_rate": 5e-324, "smoothing": "none"})
        scoring = tmp_path / "s.csv"
        scoring.write_text("customer_id,tenure,churn_score,margin\nc1,3,0.5,10\n",
                           encoding="utf-8")
        code = main(["score", "--baseline", str(baseline), "--scoring", str(scoring),
                     "--out", str(tmp_path / "p.csv")])
        assert_one_line_error(capsys, code, 1, "'c1'", "5e-324")

    def test_competing_score_over_underflowing_tail_rate_is_degenerate(self, tmp_path,
                                                                       capsys):
        doc = {"version": 1, "hazards": [0.1], "exposures": [10], "events": [1],
               "tail_start": 0, "tail_rate": 5e-324, "smoothing": "none"}
        tiny = write_json(tmp_path / "v.json", doc)
        normal = write_json(tmp_path / "i.json", {**doc, "tail_rate": 0.1})
        scoring = tmp_path / "s.csv"
        scoring.write_text("customer_id,tenure,score_v,score_inv,margin\nc1,3,0.5,0.1,10\n",
                           encoding="utf-8")
        code = main(["score", "--competing", "--baseline", str(tiny),
                     "--baseline-inv", str(normal), "--scoring", str(scoring),
                     "--out", str(tmp_path / "p.csv")])
        assert_one_line_error(capsys, code, 1, "'c1'", "5e-324")

    @pytest.mark.parametrize("command", ["baseline", "score"])
    def test_tenure_past_int64_is_data_error(self, score_inputs, tmp_path, capsys, command):
        if command == "score":
            path = tmp_path / "s.csv"
            path.write_text("customer_id,tenure,churn_score,margin\n"
                            "c1,99999999999999999999,0.5,10\n", encoding="utf-8")
            argv = ["score", *score_inputs[:2], "--scoring", str(path),
                    "--out", str(tmp_path / "p.csv")]
        else:
            path = tmp_path / "c.csv"
            path.write_text("customer_id,tenure,churned\nc1,99999999999999999999,1\n",
                            encoding="utf-8")
            argv = ["baseline", "--calibration", str(path), "--out", str(tmp_path / "b.json")]
        assert_one_line_error(capsys, main(argv), 1, "row 2", "'tenure'")


class TestScoreOutputIsAtomic:
    """A failed ``score`` leaves ``--out`` as it was and no temporary file behind."""

    def _run(self, tmp_path, argv, prior):
        out = tmp_path / "p.csv"
        if prior is not None:
            out.write_bytes(prior)
        before = {p.name for p in tmp_path.iterdir()}
        code = main([*argv, "--out", str(out)])
        assert code == 1
        if prior is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == prior
        assert {p.name for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("prior", [None, b"old,contents\n"])
    def test_duplicate_id_in_a_later_chunk(self, score_inputs, tmp_path, prior):
        scoring = tmp_path / "dup.csv"
        scoring.write_text("customer_id,tenure,churn_score,margin\n"
                           "c1,3,0.05,10\nc1,4,0.05,10\n", encoding="utf-8")
        self._run(tmp_path, ["score", *score_inputs[:2], "--scoring", str(scoring),
                             "--chunk-size", "1"], prior)

    @pytest.mark.parametrize("prior", [None, b"old,contents\n"])
    def test_degenerate_baseline_in_a_later_chunk(self, tmp_path, prior):
        baseline = write_json(tmp_path / "b.json", {
            "version": 1, "hazards": [0.1, 0.1], "exposures": [10, 10], "events": [1, 1],
            "tail_start": 1, "tail_rate": 5e-324, "smoothing": "none"})
        scoring = tmp_path / "s.csv"
        scoring.write_text("customer_id,tenure,churn_score,margin\n"
                           "c0,0,0.1,10\nc1,3,0.5,10\n", encoding="utf-8")
        self._run(tmp_path, ["score", "--baseline", str(baseline), "--scoring", str(scoring),
                             "--chunk-size", "1"], prior)

    def test_success_replaces_out(self, score_inputs, tmp_path):
        out = tmp_path / "p.csv"
        out.write_text("old\n", encoding="utf-8")
        assert main(["score", *score_inputs]) == 0
        assert read_csv(out)[0]["customer_id"] == "c1"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "baseline.json", "p.csv", "scoring.csv"]


class TestUnreadableInput:
    """Input csv cannot decode or read is exit 1 with one line naming the file."""

    @pytest.mark.parametrize("command", ["baseline", "score"])
    def test_not_utf8(self, score_inputs, tmp_path, capsys, command):
        path = tmp_path / "in.csv"
        path.write_bytes(b"\xff\xfec\x00u\x00s\x00")
        if command == "score":
            argv = ["score", *score_inputs[:2], "--scoring", str(path),
                    "--out", str(tmp_path / "p.csv")]
        else:
            argv = ["baseline", "--calibration", str(path), "--out", str(tmp_path / "b.json")]
        assert_one_line_error(capsys, main(argv), 1, str(path), "UTF-8")

    def test_oversized_field(self, score_inputs, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("customer_id,tenure,churn_score,margin\nc1,3,0.05,10\n"
                        f"c2,3,0.05,{'1' * 200_000}\n", encoding="utf-8")
        argv = ["score", *score_inputs[:2], "--scoring", str(path),
                "--out", str(tmp_path / "p.csv")]
        assert_one_line_error(capsys, main(argv), 1, str(path), "row 3", "field limit")
        assert not (tmp_path / "p.csv").exists()


def test_calibration_tenure_past_ceiling_is_data_error(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("customer_id,tenure,churned\nc1,1000000000000,1\n", encoding="utf-8")
    code = main(["baseline", "--calibration", str(path), "--out", str(tmp_path / "b.json")])
    assert_one_line_error(capsys, code, 1, "row 2", "'tenure'",
                          f"<= {dataio.MAX_CALIBRATION_TENURE}")
    assert not (tmp_path / "b.json").exists()


# Input files under random byte edits: every run ends in a result or a
# one-line error (exit 0 or 1), never in a traceback.

_EDIT_BYTES = [b'"', b"\r", b"\0", b"\xff", b",", b"\n"]


@functools.cache
def _valid_inputs() -> dict[str, bytes]:
    """A competing calibration file with a covariate, and a scoring file."""
    rng = np.random.default_rng(4)
    n = 60
    tenure = rng.integers(0, 12, n)
    churned = (rng.random(n) < 0.3).astype(np.int64)
    cause = np.where(churned == 1, np.where(rng.random(n) < 0.5, "V", "I"), "")
    ids = tuple(f"c{i}" for i in range(n))
    with tempfile.TemporaryDirectory() as tmp:
        cal, scoring = Path(tmp) / "cal.csv", Path(tmp) / "scoring.csv"
        dataio.write_calibration(cal, dataio.CalibrationBatch(
            ids, tenure, churned, cause, rng.normal(size=(n, 1))), "competing")
        dataio.write_scoring(scoring, dataio.ScoringBatch(
            ids, tenure, rng.normal(10.0, 2.0, n), rng.random(n) / 10), "single")
        return {"calibration": cal.read_bytes(), "scoring": scoring.read_bytes()}


@st.composite
def edited(draw, data: bytes) -> bytes:
    """``data`` with a few bytes inserted or replaced."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(_EDIT_BYTES))
        data[at:at + draw(st.sampled_from([0, 1]))] = byte
    return bytes(data)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), competing=st.booleans())
def test_edited_input_files_end_without_a_traceback(data, competing):
    inputs = _valid_inputs()
    calibration = data.draw(edited(inputs["calibration"]))
    scoring = data.draw(edited(inputs["scoring"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cal.csv").write_bytes(calibration)
        (tmp / "scoring.csv").write_bytes(scoring)
        save_baseline(tmp / "baseline.json", baseline_from_rates(fixture_curve_rates(),
                                                                 tail_start=25))
        runs = [
            ["baseline", "--calibration", str(tmp / "cal.csv"), "--out", str(tmp / "b.json"),
             *(["--competing"] if competing else [])],
            ["score", "--baseline", str(tmp / "baseline.json"), "--scoring",
             str(tmp / "scoring.csv"), "--out", str(tmp / "p.csv")]]
        for argv in runs:
            code, err = _run(argv)
            assert code in (0, 1) and "Traceback" not in err, (argv[0], err)
