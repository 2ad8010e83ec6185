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

from typing import Iterable, Iterator

import numpy as np

from .dataio import (
    SCORING_BATCH_SIZE,
    ProjectionBatch,
    ProjectionRow,
    ScoringBatch,
    ScoringRecord,
    chunks,
)
from .errors import DegenerateBaseline
from .projection import ProjectionConfig, project_batch
from .survival import BaselineHazard, PoolingConfig, lookup, resolve
from .valuation import DiscountSpec

# Customers scored per batch; the CLI reads scoring files in batches of this size.
DEFAULT_CHUNK_SIZE = SCORING_BATCH_SIZE


def _alphas(scores: np.ndarray, h0: np.ndarray, ids) -> np.ndarray:
    """Scores over baseline hazards at the customers' tenures.

    As in ``projection._alpha``, a positive score over a hazard of 0, or one
    so small that the ratio overflows, has no finite coefficient.
    """
    zero = h0 == 0.0
    with np.errstate(over="ignore"):
        alpha = np.where(zero, 0.0, scores / np.where(zero, 1.0, h0))
    bad = (zero & (scores > 0.0)) | np.isinf(alpha)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DegenerateBaseline(
            f"customer {ids[i]!r}: baseline hazard at tenure is {float(h0[i])!r} even after "
            f"pooling, too small to scale a score of {float(scores[i])!r}")
    return alpha


def score_batches(batches: Iterable[ScoringBatch], baseline: BaselineHazard, *,
                  config: ProjectionConfig | None = None,
                  discount: DiscountSpec | None = None,
                  pooling: PoolingConfig | None = None) -> Iterator[ProjectionBatch]:
    """Score single-risk column batches, one projection batch per input batch."""
    config = config or ProjectionConfig()
    discount = discount or DiscountSpec()
    table = resolve(baseline, pooling)
    for batch in batches:
        if batch.churn_score is None:
            raise ValueError("records lack churn_score; use score_stream_competing")
        alpha = _alphas(batch.churn_score, lookup(table, batch.tenure), batch.ids)
        ert, clv, truncated = project_batch((table,), (alpha,), batch.tenure, batch.margin,
                                            discount, config)
        yield ProjectionBatch(batch.ids, alpha, ert, clv, truncated)


def score_batches_competing(batches: Iterable[ScoringBatch],
                            baseline_v: BaselineHazard, baseline_inv: BaselineHazard, *,
                            config: ProjectionConfig | None = None,
                            discount: DiscountSpec | None = None,
                            pooling_v: PoolingConfig | None = None,
                            pooling_inv: PoolingConfig | None = None,
                            ) -> Iterator[ProjectionBatch]:
    """Score competing-risks column batches against cause-specific baselines.

    The reported alpha is the combined coefficient at the current tenure:
    total score over total baseline hazard.
    """
    config = config or ProjectionConfig()
    discount = discount or DiscountSpec()
    table_v = resolve(baseline_v, pooling_v)
    table_i = resolve(baseline_inv, pooling_inv)
    for batch in batches:
        if batch.score_v is None or batch.score_inv is None:
            raise ValueError("records lack score_v/score_inv; use score_stream")
        t0 = batch.tenure
        scores_v, scores_i = batch.score_v, batch.score_inv
        h0_v = lookup(table_v, t0)
        h0_i = lookup(table_i, t0)
        alpha_v = _alphas(scores_v, h0_v, batch.ids)
        alpha_i = _alphas(scores_i, h0_i, batch.ids)
        h0_total = h0_v + h0_i
        alpha_out = np.where(h0_total > 0.0,
                             (scores_v + scores_i) / np.where(h0_total > 0.0, h0_total, 1.0),
                             0.0)
        ert, clv, truncated = project_batch((table_v, table_i), (alpha_v, alpha_i), t0,
                                            batch.margin, discount, config)
        yield ProjectionBatch(batch.ids, alpha_out, ert, clv, truncated)


def _rows(batches: Iterable[ProjectionBatch]) -> Iterator[ProjectionRow]:
    for batch in batches:
        yield from batch.rows()


def score_stream(records: Iterable[ScoringRecord], baseline: BaselineHazard, *,
                 config: ProjectionConfig | None = None,
                 discount: DiscountSpec | None = None,
                 pooling: PoolingConfig | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score single-risk customers, preserving input order."""
    batches = map(ScoringBatch.from_records, chunks(records, chunk_size))
    return _rows(score_batches(batches, baseline, config=config, discount=discount,
                               pooling=pooling))


def score_stream_competing(records: Iterable[ScoringRecord],
                           baseline_v: BaselineHazard, baseline_inv: BaselineHazard, *,
                           config: ProjectionConfig | None = None,
                           discount: DiscountSpec | None = None,
                           pooling_v: PoolingConfig | None = None,
                           pooling_inv: PoolingConfig | None = None,
                           chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score competing-risks customers (see ``score_batches_competing``)."""
    batches = map(ScoringBatch.from_records, chunks(records, chunk_size))
    return _rows(score_batches_competing(batches, baseline_v, baseline_inv, config=config,
                                         discount=discount, pooling_v=pooling_v,
                                         pooling_inv=pooling_inv))
