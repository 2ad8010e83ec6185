"""Customer survival curves, expected remaining tenure, and lifetime value.

The pipeline: estimate a baseline churn-hazard curve by tenure from a
one-month snapshot, extrapolate its stabilized tail, scale it per customer
with a coefficient derived from an external churn-model score, and turn the
projected survival path into expected remaining tenure and (discounted)
lifetime value. A covariate-based hazard-odds model is included as a
comparator, along with a cohort simulator that provides ground truth for
validation.
"""

from .dataio import (
    CalibrationBatch,
    CalibrationRecord,
    ProjectionBatch,
    ProjectionRow,
    ScoringBatch,
    ScoringRecord,
    read_calibration,
    read_calibration_batches,
    read_scoring,
    read_scoring_batches,
    write_projection_batches,
    write_projections,
)
from .errors import (
    BaselineMismatch,
    ClvkitError,
    DegenerateBaseline,
    DuplicateCustomerId,
    EmptyCalibration,
    EmptyTail,
    FitDiverged,
    InsufficientData,
    InvalidDocument,
    InvalidHazard,
    InvalidRate,
    InvalidRecord,
    InvalidValue,
    MarginSeriesTooShort,
    MissingColumn,
    NotMonotone,
    OffsetUndefined,
)
from .odds import (
    OddsModel,
    PersonPeriodRow,
    fit_odds_columns,
    fit_odds_model,
    load_model,
    predict_hazard_odds,
    project_with_odds_model,
    save_model,
)
from .pipeline import (
    score_batches,
    score_batches_competing,
    score_stream,
    score_stream_competing,
)
from .projection import (
    CustomerProjection,
    ProjectionConfig,
    compute_alpha,
    expected_remaining_tenure,
    project_batch,
    project_competing,
    project_customer,
    project_hazard,
)
from .simulate import (
    Cohort,
    DecayingShape,
    FixedAlpha,
    FlatShape,
    LognormalAlpha,
    SimSpec,
    StepShape,
    TruthBatch,
    TruthRecord,
    generate_cohort,
    true_ert,
)
from .survival import (
    BaselineHazard,
    EventHistory,
    PoolingConfig,
    detect_tail_start,
    estimate_cause_specific,
    estimate_cause_specific_from_batches,
    estimate_hazard_by_tenure,
    estimate_hazard_from_batches,
    extrapolate_tail,
    hazard_at,
    hazard_to_survival,
    jeffreys_view,
    kaplan_meier,
    load_baseline,
    resolve,
    save_baseline,
    survival_to_hazard,
)
from .valuation import (
    DiscountSpec,
    MarginSpec,
    annual_to_monthly_rate,
    clv,
    clv_constant,
)

__version__ = "0.1.0"
