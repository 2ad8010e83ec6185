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

from .dataio import ProjectionRow, ScoringRecord
from .errors import DegenerateBaseline
from .projection import ProjectionConfig, project_batch
from .survival import BaselineHazard, PoolingConfig, lookup, resolve
from .valuation import DiscountSpec

DEFAULT_CHUNK_SIZE = 8192


def _chunks(records: Iterable[ScoringRecord], size: int) -> Iterator[list[ScoringRecord]]:
    chunk: list[ScoringRecord] = []
    for rec in records:
        chunk.append(rec)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _alphas(scores: np.ndarray, h0: np.ndarray, ids: list[str]) -> np.ndarray:
    zero = h0 == 0.0
    bad = zero & (scores > 0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DegenerateBaseline(
            f"customer {ids[i]!r}: baseline hazard at tenure is 0 even after pooling")
    return np.where(zero, 0.0, scores / np.where(zero, 1.0, h0))


def _rows(ids: list[str], alphas: np.ndarray, ert: np.ndarray, clv: np.ndarray,
          truncated: np.ndarray) -> list[ProjectionRow]:
    return [ProjectionRow(cid, a, e, v, k) for cid, a, e, v, k in
            zip(ids, alphas.tolist(), ert.tolist(), clv.tolist(), truncated.tolist())]


def score_stream(records: Iterable[ScoringRecord], baseline: BaselineHazard, *,
                 config: ProjectionConfig | None = None,
                 discount: DiscountSpec | None = None,
                 pooling: PoolingConfig | None = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score single-risk customers, preserving input order."""
    config = config or ProjectionConfig()
    discount = discount or DiscountSpec()
    table = resolve(baseline, pooling)
    for chunk in _chunks(records, chunk_size):
        if chunk[0].churn_score is None:
            raise ValueError("records lack churn_score; use score_stream_competing")
        ids = [r.customer_id for r in chunk]
        t0 = np.array([r.tenure for r in chunk], dtype=np.int64)
        scores = np.array([r.churn_score for r in chunk])
        margins = np.array([r.margin for r in chunk])
        alpha = _alphas(scores, lookup(table, t0), ids)
        ert, clv, truncated = project_batch((table,), (alpha,), t0, margins,
                                            discount, config)
        yield from _rows(ids, alpha, ert, clv, truncated)


def score_stream_competing(records: Iterable[ScoringRecord],
                           baseline_v: BaselineHazard, baseline_inv: BaselineHazard, *,
                           config: ProjectionConfig | None = None,
                           discount: DiscountSpec | None = None,
                           pooling_v: PoolingConfig | None = None,
                           pooling_inv: PoolingConfig | None = None,
                           chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[ProjectionRow]:
    """Score competing-risks customers against cause-specific baselines.

    The reported alpha is the combined coefficient at the current tenure:
    total score over total baseline hazard.
    """
    config = config or ProjectionConfig()
    discount = discount or DiscountSpec()
    table_v = resolve(baseline_v, pooling_v)
    table_i = resolve(baseline_inv, pooling_inv)
    for chunk in _chunks(records, chunk_size):
        if chunk[0].score_v is None or chunk[0].score_inv is None:
            raise ValueError("records lack score_v/score_inv; use score_stream")
        ids = [r.customer_id for r in chunk]
        t0 = np.array([r.tenure for r in chunk], dtype=np.int64)
        scores_v = np.array([r.score_v for r in chunk])
        scores_i = np.array([r.score_inv for r in chunk])
        margins = np.array([r.margin for r in chunk])
        h0_v = lookup(table_v, t0)
        h0_i = lookup(table_i, t0)
        alpha_v = _alphas(scores_v, h0_v, ids)
        alpha_i = _alphas(scores_i, h0_i, ids)
        h0_total = h0_v + h0_i
        alpha_out = np.where(h0_total > 0.0,
                             (scores_v + scores_i) / np.where(h0_total > 0.0, h0_total, 1.0),
                             0.0)
        ert, clv, truncated = project_batch((table_v, table_i), (alpha_v, alpha_i), t0,
                                            margins, discount, config)
        yield from _rows(ids, alpha_out, ert, clv, truncated)
