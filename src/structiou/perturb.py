"""Seeded word-boundary perturbations: noise, insert, delete.

All three take a perturbation level delta in [0, 1] and a numpy
Generator, and are deterministic given (input, delta, generator state).
Corpus runs derive one independent stream per sentence from
(seed, repetition, sentence index) so results do not depend on
processing order.

Noise jitters each interior boundary toward a neighbor by a uniform
fraction, updating left to right so each move sees the already-moved
left neighbor, and keeps the tree's shape. Insert splits words at
uniform positions with probability delta each. Delete removes interior
boundaries with probability delta each and merges each maximal run of
words a..b joined by deleted boundaries into one word. In all three
modes ``apply_perturbation`` returns the tree projected onto the
perturbed boundary rows.

Insert and delete then rebuild the tree in one pass, ``_regrouped``. A
word that comes from one input word (kept, or half of a split) takes
that word's leaf slot and label. A merged word takes the label of word
a and becomes a child of the lowest common ancestor of leaves a and b,
right before the ancestor's child that holds leaf b.
A node with nothing left below it is dropped. Every node's time comes
from the new boundary rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .treebank import BoundaryRow, BoundaryTable, ParseTree, project_to_time

__all__ = [
    "PerturbSpec",
    "sentence_rng",
    "perturb_noise",
    "perturb_insert",
    "perturb_delete",
    "apply_perturbation",
]

MODES = ("noise", "insert", "delete")

# Minimum word duration preserved by clamping, in seconds.
MIN_WORD = 1e-6


@dataclass(frozen=True)
class PerturbSpec:
    mode: str
    delta: float
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise UsageError(f"unknown perturbation mode {self.mode!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise UsageError(f"delta must be in [0, 1], got {self.delta}")


def sentence_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one sentence (and optional repetition)."""
    return np.random.default_rng(np.random.SeedSequence((seed, *stream)))


def _boundaries(table: BoundaryTable) -> list[float]:
    if not table.is_gap_free():
        raise DataError("perturbation requires a gap-free boundary table")
    return [table.rows[0].start] + [r.end for r in table.rows]


def perturb_noise(
    table: BoundaryTable, delta: float, rng: np.random.Generator
) -> BoundaryTable:
    """Jitter interior boundaries; endpoints and word count are kept.

    Boundary i moves toward its right neighbor for a positive draw and
    toward its (already updated) left neighbor for a negative one, by
    |r| of the distance, r ~ U(-delta, delta). Moves are clamped so
    every word keeps a positive duration.
    """
    if delta == 0.0 or len(table.rows) <= 1:
        return table
    b = _boundaries(table)
    n = len(table.rows)
    for i in range(1, n):
        r = float(rng.uniform(-delta, delta))
        target = b[i + 1] if r >= 0 else b[i - 1]
        moved = b[i] + abs(r) * (target - b[i])
        lo, hi = b[i - 1] + MIN_WORD, b[i + 1] - MIN_WORD
        if lo <= hi:
            b[i] = min(max(moved, lo), hi)
    rows = tuple(
        BoundaryRow(row.word, b[k], b[k + 1])
        for k, row in enumerate(table.rows)
    )
    return BoundaryTable(rows)


def _split_word_text(word: str) -> tuple[str, str]:
    if len(word) < 2:
        return word, word
    mid = (len(word) + 1) // 2
    return word[:mid], word[mid:]


def perturb_insert(
    tree: ParseTree, table: BoundaryTable, delta: float, rng: np.random.Generator
) -> tuple[ParseTree, BoundaryTable]:
    """Split each word into two with probability delta.

    A split word's preterminal is replaced by two preterminals with the
    same label, side by side under the original parent; ancestor
    intervals are unchanged. A word too short to split (under twice the
    minimum duration) keeps its draw but is left alone, as is the
    degenerate single-preterminal tree. ``tree`` is projected onto
    ``table``.
    """
    n = len(table.rows)
    if delta == 0.0 or n == 0:
        return tree, table
    triggers = rng.uniform(0.0, 1.0, size=n)
    replaced: dict[int, tuple] = {}
    root_is_leaf = tree.node_count == 1
    for i, row in enumerate(table.rows):
        if triggers[i] >= delta:
            continue
        point = float(rng.uniform(row.start, row.end))
        if root_is_leaf:
            continue
        lo, hi = row.start + MIN_WORD, row.end - MIN_WORD
        if lo > hi:
            continue
        point = min(max(point, lo), hi)
        left, right = _split_word_text(row.word)
        left_word, right_word = _split_word_text(tree.words[i])
        replaced[i] = (
            (BoundaryRow(left, row.start, point), left_word),
            (BoundaryRow(right, point, row.end), right_word),
        )
    if not replaced:
        return tree, table
    return _regrouped(tree, table, replaced, {})


def perturb_delete(
    tree: ParseTree, table: BoundaryTable, delta: float, rng: np.random.Generator
) -> tuple[ParseTree, BoundaryTable]:
    """Merge adjacent words across deleted boundaries, repairing the tree.

    Each interior boundary is deleted with probability delta. See the
    module docstring for the repair rule. ``tree`` is projected onto
    ``table``.
    """
    n = len(table.rows)
    if delta == 0.0 or n <= 1:
        return tree, table
    draws = rng.uniform(0.0, 1.0, size=n - 1)
    # runs[a] = b: words a..b merge, one run per maximal deleted stretch
    runs: dict[int, int] = {}
    a = 0  # the word after the last kept boundary
    for i in range(n - 1):
        if draws[i] < delta:
            runs[a] = i + 1
        else:
            a = i + 1
    if not runs:
        return tree, table
    replaced: dict[int, tuple] = {}
    merged: dict[tuple[int, int], tuple] = {}
    for a, b in runs.items():
        replaced.update(dict.fromkeys(range(a, b + 1), ()))
        span = table.rows[a : b + 1]
        merged[a, b] = (
            BoundaryRow("".join(r.word for r in span), span[0].start, span[-1].end),
            "".join(tree.words[a : b + 1]),
        )
    return _regrouped(tree, table, replaced, merged)


def _regrouped(
    tree: ParseTree, table: BoundaryTable, replaced: dict, merged: dict
) -> tuple[ParseTree, BoundaryTable]:
    """The tree and table with word k turned into the (row, word) pairs
    ``replaced[k]`` (kept when absent) and each run a..b into the one
    word ``merged[a, b]``, by the rule in the module docstring."""
    first = tree.first.tolist()
    leaf = [i for i, f in enumerate(first) if f == i]  # node of each word
    # before[p] = (label, (row, word)): a merged word, placed right
    # before input node p
    before: dict[int, tuple] = {}
    for (a, b), pair in merged.items():
        # The LCA is the first node after leaf b whose subtree reaches
        # back to leaf a. Its child holding leaf b starts at the least
        # first on the way.
        lca, place = leaf[b] + 1, leaf[b]
        while first[lca] > leaf[a]:
            place = min(place, first[lca])
            lca += 1
        before[place] = (tree.labels[leaf[a]], pair)

    labels: list[str] = []
    new_first: list[int] = []
    rows: list[BoundaryRow] = []
    words: list[str | None] = []
    # mark[i]: output size before input node i, after any word placed there
    mark: list[int] = []
    kept = enumerate(zip(table.rows, tree.words))
    for i, (label, f) in enumerate(zip(tree.labels, first)):
        if i in before:
            merged_label, (row, word) = before[i]
            labels.append(merged_label)
            new_first.append(len(new_first))
            rows.append(row)
            words.append(word)
        mark.append(len(labels))
        if f == i:
            k, pair = next(kept)
            for row, word in replaced.get(k, (pair,)):
                labels.append(label)
                new_first.append(len(new_first))
                rows.append(row)
                words.append(word)
        elif mark[f] < len(labels):  # else nothing is left below: dropped
            labels.append(label)
            new_first.append(mark[f])

    starts = [row.start for row in rows]
    ends = [row.end for row in rows]
    tree = ParseTree._of(tuple(labels), new_first, starts, ends, tuple(words))
    return tree, BoundaryTable(tuple(rows))


def apply_perturbation(
    tree: ParseTree, table: BoundaryTable, spec: PerturbSpec,
    rng: np.random.Generator,
) -> tuple[ParseTree, BoundaryTable]:
    """Dispatch one sentence through the chosen perturbation.

    ``tree`` is projected onto ``table``, and the returned tree is
    projected onto the returned table.
    """
    if spec.mode == "noise":
        new_table = perturb_noise(table, spec.delta, rng)
        return project_to_time(tree, new_table), new_table
    if spec.mode == "insert":
        return perturb_insert(tree, table, spec.delta, rng)
    return perturb_delete(tree, table, spec.delta, rng)
