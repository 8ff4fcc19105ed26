"""Rank correlation and group-sampling utilities.

The grouping protocol aggregates seeded random subsets of sentences
with corpus-style aggregation and correlates the two metrics across
groups. Both supported aggregations (node-count-weighted Struct-IoU and
micro-averaged F1) are ratios of sums, so a per-sentence record carries
one numerator/denominator pair per metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = ["GroupRecord", "GroupedScores", "spearman", "group_sample"]


@dataclass(frozen=True)
class GroupRecord:
    """Per-sentence contributions to the two corpus aggregates."""

    a_num: float
    a_den: float
    b_num: float
    b_den: float


@dataclass(frozen=True)
class GroupedScores:
    groups: tuple[tuple[float, float], ...]

    def degenerate(self) -> bool:
        """True when either metric is constant across groups."""
        a = [g[0] for g in self.groups]
        b = [g[1] for g in self.groups]
        return len(set(a)) < 2 or len(set(b)) < 2


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
    per_sentence: list[GroupRecord],
    group_size: int,
    seed: int,
    groups: int,
) -> GroupedScores:
    """Aggregate seeded random sentence groups.

    Sentences are drawn without replacement within a group and
    independently (so with replacement) across groups.
    """
    if not per_sentence:
        raise UsageError("empty per-sentence record list")
    if group_size < 1:
        raise UsageError("group_size must be at least 1")
    if group_size > len(per_sentence):
        raise UsageError(
            f"group_size {group_size} exceeds corpus size {len(per_sentence)}"
        )
    if groups < 1:
        raise UsageError("need at least one group")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(groups):
        idx = rng.choice(len(per_sentence), size=group_size, replace=False)
        chosen = [per_sentence[i] for i in idx]
        a = sum(r.a_num for r in chosen) / sum(r.a_den for r in chosen)
        b = sum(r.b_num for r in chosen) / sum(r.b_den for r in chosen)
        out.append((a, b))
    return GroupedScores(groups=tuple(out))
