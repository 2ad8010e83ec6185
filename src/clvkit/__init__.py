"""Customer survival curves, expected remaining tenure, and lifetime value.

The pipeline: estimate a baseline churn-hazard curve by tenure from a
one-month snapshot, extrapolate its stabilized tail, scale it per customer
with a coefficient derived from an external churn-model score, and turn the
projected survival path into expected remaining tenure and (discounted)
lifetime value. A covariate-based hazard-odds model is included as a
comparator, along with a cohort simulator that provides ground truth for
validation.

Every name in ``__all__`` loads on first use: ``import clvkit`` imports no
submodule (and so no numpy), and ``clvkit.generate_cohort`` imports
``clvkit.simulate`` when it is first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports from the package.
_EXPORTS = {
    "dataio": (
        "CalibrationBatch",
        "CalibrationRecord",
        "ProjectionBatch",
        "ProjectionRow",
        "ScoringBatch",
        "ScoringRecord",
        "read_calibration",
        "read_calibration_batches",
        "read_scoring",
        "read_scoring_batches",
        "write_projection_batches",
        "write_projections",
    ),
    "errors": (
        "BaselineMismatch",
        "ClvkitError",
        "DegenerateBaseline",
        "DuplicateCustomerId",
        "EmptyCalibration",
        "EmptyTail",
        "FitDiverged",
        "InsufficientData",
        "InvalidDocument",
        "InvalidHazard",
        "InvalidRate",
        "InvalidRecord",
        "InvalidValue",
        "MarginSeriesTooShort",
        "MissingColumn",
        "NotMonotone",
        "OffsetUndefined",
    ),
    "odds": (
        "OddsModel",
        "PersonPeriodRow",
        "fit_odds_batches",
        "fit_odds_columns",
        "fit_odds_model",
        "load_model",
        "predict_hazard_odds",
        "project_with_odds_model",
        "save_model",
    ),
    "pipeline": (
        "score_causes",
        "score_stream",
        "score_stream_competing",
    ),
    "projection": (
        "CustomerProjection",
        "ProjectionConfig",
        "compute_alpha",
        "expected_remaining_tenure",
        "project_batch",
        "project_competing",
        "project_customer",
        "project_hazard",
    ),
    "simulate": (
        "Cohort",
        "DecayingShape",
        "FixedAlpha",
        "FlatShape",
        "LognormalAlpha",
        "SimSpec",
        "StepShape",
        "TruthBatch",
        "TruthRecord",
        "generate_cohort",
        "true_ert",
    ),
    "survival": (
        "BaselineHazard",
        "EventHistory",
        "detect_tail_start",
        "estimate_cause_specific",
        "estimate_causes",
        "estimate_hazard_by_tenure",
        "extrapolate_tail",
        "hazard_at",
        "hazard_to_survival",
        "jeffreys_view",
        "kaplan_meier",
        "load_baseline",
        "save_baseline",
        "survival_to_hazard",
    ),
    "valuation": (
        "DiscountSpec",
        "MarginSpec",
        "annual_to_monthly_rate",
        "clv",
        "clv_constant",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        if name in _EXPORTS:
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
