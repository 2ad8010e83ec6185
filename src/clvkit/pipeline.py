"""Batch scoring engine behind the command-line scorer.

Scores customers chunk by chunk through ``projection.project_batch``: each
customer steps month by month only until its tenure reaches the baseline's
tail start, and the constant-hazard rest of its survival sum is added in
closed form. ``truncated_at`` is the month that month-stepping would
report. Every customer's arithmetic is independent of chunk boundaries, so
output is bit-for-bit the same for any chunk size (chunk_size=1 is the
sequential reference). Output order always equals input order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .dataio import (
    SCORING_BATCH_SIZE,
    ProjectionBatch,
    ProjectionRow,
    ScoringBatch,
    ScoringRecord,
    chunks,
)
from .projection import ProjectionConfig, coefficients, project_batch
from .survival import BaselineHazard
from .valuation import DiscountSpec

# Customers scored per batch; the CLI reads scoring files in batches of this size.
DEFAULT_CHUNK_SIZE = SCORING_BATCH_SIZE

# One cause of churn: the scoring column of its score and its baseline.
Cause = tuple[str, BaselineHazard]


def score_causes(batches: Iterable[ScoringBatch], causes: Sequence[Cause], *,
                 config: ProjectionConfig | None = None,
                 discount: DiscountSpec | None = None) -> Iterator[ProjectionBatch]:
    """Score column batches against one baseline per cause, one output batch per input.

    Each cause scales its own baseline by its coefficient at the current
    tenure; the reported alpha is the combined coefficient, total score over
    total baseline hazard (with one cause, that cause's coefficient).
    """
    config = config or ProjectionConfig()
    discount = discount or DiscountSpec()
    columns = [column for column, _ in causes]
    tables = [baseline.table for _, baseline in causes]
    for batch in batches:
        scores = [getattr(batch, column) for column in columns]
        if any(score is None for score in scores):
            raise ValueError(f"records lack {'/'.join(columns)}")
        alphas, alpha = coefficients(scores, tables, batch.tenure, batch.ids)
        ert, clv, truncated = project_batch(tables, alphas, batch.tenure, batch.margin,
                                            discount, config)
        yield ProjectionBatch(batch.ids, alpha, ert, clv, truncated)


def _rows(records: Iterable[ScoringRecord], causes: Sequence[Cause],
          config: ProjectionConfig | None, discount: DiscountSpec | None,
          chunk_size: int) -> Iterator[ProjectionRow]:
    batches = map(ScoringBatch.from_records, chunks(records, chunk_size))
    for batch in score_causes(batches, causes, config=config, discount=discount):
        yield from batch.rows()


def score_stream(records: Iterable[ScoringRecord], baseline: BaselineHazard, *,
                 config: ProjectionConfig | None = None,
                 discount: DiscountSpec | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score single-risk customers, preserving input order."""
    return _rows(records, [("churn_score", baseline)], config, discount, chunk_size)


def score_stream_competing(records: Iterable[ScoringRecord],
                           baseline_v: BaselineHazard, baseline_inv: BaselineHazard, *,
                           config: ProjectionConfig | None = None,
                           discount: DiscountSpec | None = None,
                           chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score competing-risks customers against cause-specific baselines.

    The reported alpha is the combined coefficient at the current tenure:
    total score over total baseline hazard.
    """
    return _rows(records, [("score_v", baseline_v), ("score_inv", baseline_inv)],
                 config, discount, chunk_size)
