"""Rank correlation and group-sampling utilities.

The grouping protocol aggregates seeded random subsets of sentences
with corpus-style aggregation and correlates the two metrics across
groups. Both supported aggregations (node-count-weighted Struct-IoU and
micro-averaged F1) are ratios of sums, so each metric gives one
(numerator, denominator) tuple per sentence.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

__all__ = ["spearman", "group_sample"]


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """Each value's rank from 1, ties sharing their mean rank: the count
    below it plus (the count equal to it + 1) / 2."""
    _, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Returns nan when either list has zero rank variance (callers should
    flag such runs as degenerate). Values must be finite.
    """
    if len(xs) != len(ys):
        raise UsageError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise UsageError("need at least 2 points for a correlation")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise UsageError("cannot rank non-finite values")
    rx, ry = _average_ranks(xs), _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = np.sqrt((dx * dx).sum() * (dy * dy).sum())
    if denom == 0.0:
        return float("nan")
    return float((dx * dy).sum() / denom)


def group_sample(
    a: list[tuple[float, float]],
    b: list[tuple[float, float]],
    group_size: int,
    seed: int,
    groups: int,
) -> list[tuple[float, float]]:
    """The (a, b) aggregates of seeded random sentence groups.

    ``a`` and ``b`` hold each metric's per-sentence (numerator,
    denominator) tuples. Sentences are drawn without replacement within
    a group and independently (so with replacement) across groups.
    """
    if len(a) != len(b):
        raise UsageError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise UsageError("empty per-sentence record list")
    if group_size < 1:
        raise UsageError("group_size must be at least 1")
    if group_size > len(a):
        raise UsageError(
            f"group_size {group_size} exceeds corpus size {len(a)}"
        )
    if groups < 1:
        raise UsageError("need at least one group")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(groups):
        idx = rng.choice(len(a), size=group_size, replace=False)
        out.append(tuple(
            sum(recs[i][0] for i in idx) / sum(recs[i][1] for i in idx)
            for recs in (a, b)
        ))
    return out
