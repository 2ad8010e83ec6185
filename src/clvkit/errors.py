"""Exception types shared across the package.

Every error raised by library code derives from ClvkitError so callers
(including the CLI) can catch domain failures without trapping bugs.
"""

from __future__ import annotations


class ClvkitError(Exception):
    """Base class for all clvkit domain errors."""


class EmptyCalibration(ClvkitError):
    """No records were supplied where at least one is required."""


class InvalidRecord(ClvkitError):
    """A calibration or person-period record violates its domain."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"record {row}: {reason}")
        self.row = row
        self.reason = reason


class NotMonotone(ClvkitError):
    """A survival curve increases somewhere."""


class InvalidHazard(ClvkitError):
    """A hazard rate falls outside [0, 1]."""

    def __init__(self, index: int, value: float):
        super().__init__(f"hazard at index {index} is {value!r}, outside [0, 1]")
        self.index = index
        self.value = value


class InsufficientData(ClvkitError):
    """Too few observed tenures for the requested operation."""


class EmptyTail(ClvkitError):
    """The tail region contains no exposure, so no tail rate exists."""


class DegenerateBaseline(ClvkitError):
    """Baseline hazard is zero where a positive rate is required."""


class OffsetUndefined(ClvkitError):
    """Baseline hazard is 0 or 1 at a tenure, so its log-odds is undefined."""

    def __init__(self, tenure: int):
        super().__init__(f"baseline hazard at tenure {tenure} is 0 or 1; log-odds undefined")
        self.tenure = tenure


class BaselineMismatch(ClvkitError):
    """A model is applied to a baseline other than the one it was fitted on."""

    def __init__(self, expected_sha: str, actual_sha: str):
        super().__init__(f"model was fitted on baseline {expected_sha[:12]}, "
                         f"got baseline {actual_sha[:12]}")
        self.expected_sha = expected_sha
        self.actual_sha = actual_sha


class FitDiverged(ClvkitError):
    """Model fitting failed to make progress (e.g. perfect separation)."""

    def __init__(self, reason: str, last_beta=None, iterations: int = 0):
        super().__init__(f"fit diverged after {iterations} iterations: {reason}")
        self.reason = reason
        self.last_beta = last_beta
        self.iterations = iterations


class MarginSeriesTooShort(ClvkitError):
    """A per-period margin series does not cover the projection horizon."""


class InvalidRate(ClvkitError):
    """A discount rate is negative or not finite."""


class InvalidDocument(ClvkitError):
    """An input file cannot be decoded or parsed, or a JSON document fails validation."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class MissingColumn(ClvkitError):
    """A required CSV column is absent from the header."""

    def __init__(self, name: str):
        super().__init__(f"missing required column: {name}")
        self.name = name


class InvalidValue(ClvkitError):
    """A CSV cell fails validation."""

    def __init__(self, row: int, column: str, reason: str = ""):
        msg = f"row {row}, column {column!r}: invalid value"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)
        self.row = row
        self.column = column
        self.reason = reason


class DuplicateCustomerId(ClvkitError):
    """The same customer id appears twice in one file."""

    def __init__(self, customer_id: str, row: int):
        super().__init__(f"row {row}: duplicate customer_id {customer_id!r}")
        self.customer_id = customer_id
        self.row = row
