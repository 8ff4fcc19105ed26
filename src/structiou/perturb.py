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
boundaries with probability delta each and repairs the tree as if
merging the two words at each deleted boundary, left to right: the
merged word's preterminal keeps the left label, hangs under the two
words' lowest common ancestor, and any internal node left childless is
pruned. In all three modes ``apply_perturbation`` returns the tree
projected onto the perturbed boundary rows.

Insert and delete build the perturbed tree's postorder arrays in one
pass over the input's, and take every node's time from the new
boundary rows. Insert writes a split preterminal twice, shifting every
later node by the splits before it. Delete turns each maximal run of
words a..b joined by deleted boundaries into one preterminal under the
LCA of leaves a and b: the first node after leaf b, in postorder,
whose ``first`` is at or before leaf a. Among the LCA's children it
goes in word order, right before the child holding leaf b, which
starts at the least ``first`` met on the way from b to the LCA. Then,
bottom up, a node with nothing left below it is dropped. Nodes that
stay keep their depth; the merged word lies one below its LCA.

This equals merging the run's boundaries one at a time. Each partial
word hangs under the LCA of the words merged into it so far, so the
last merge puts it under the LCA of the run's two ends. A node that an
earlier merge hung the partial word under keeps only what else lies
below it, which is what the one pass leaves there too, so both prune
the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .treebank import BoundaryRow, BoundaryTable, ParseTree, _hulls, project_to_time

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
    splits: dict[int, float] = {}
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
        splits[i] = min(max(point, lo), hi)
    if not splits:
        return tree, table

    rows: list[BoundaryRow] = []
    words: list[str | None] = []
    for k, (row, word) in enumerate(zip(table.rows, tree.words)):
        if k in splits:
            left_text, right_text = _split_word_text(row.word)
            rows.append(BoundaryRow(left_text, row.start, splits[k]))
            rows.append(BoundaryRow(right_text, splits[k], row.end))
            words.extend(_split_word_text(word or ""))
        else:
            rows.append(row)
            words.append(word)

    labels: list[str] = []
    first: list[int] = []
    depth: list[int] = []
    at: list[int] = []  # each input node's index in the output
    k = 0  # words so far
    for i, (label, f, d) in enumerate(
        zip(tree.labels, tree.first.tolist(), tree.depth.tolist())
    ):
        at.append(len(labels))
        copies = 1
        if f == i:
            copies += k in splits
            k += 1
        for _ in range(copies):
            labels.append(label)
            first.append(at[f] if f < i else len(first))
            depth.append(d)
    return _tree_over(labels, first, depth, words, rows)


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

    first, depth = tree.first.tolist(), tree.depth.tolist()
    leaf = [i for i, f in enumerate(first) if f == i]  # node of each word
    gone: set[int] = set()
    # merged[p] = (a, b, lca): a run's leaf, placed right before node p
    merged: dict[int, tuple[int, int, int]] = {}
    for a, b in runs.items():
        gone.update(leaf[a : b + 1])
        # The LCA is the first node after leaf b whose subtree reaches
        # back to leaf a. Its child holding leaf b starts at the least
        # first on the way; the merged leaf goes right before it.
        lca, place = leaf[b] + 1, leaf[b]
        while first[lca] > leaf[a]:
            place = min(place, first[lca])
            lca += 1
        merged[place] = (a, b, lca)

    rows: list[BoundaryRow] = []
    words: list[str | None] = []
    labels: list[str] = []
    new_first: list[int] = []
    new_depth: list[int] = []
    # mark[i]: output size before input node i, after any leaf placed there
    mark: list[int] = []
    kept = iter(zip(table.rows, tree.words))
    for i, (label, f) in enumerate(zip(tree.labels, first)):
        if i in merged:
            a, b, lca = merged[i]
            span = table.rows[a : b + 1]
            rows.append(BoundaryRow(
                "".join(r.word for r in span), span[0].start, span[-1].end
            ))
            words.append("".join(w or "" for w in tree.words[a : b + 1]))
            labels.append(tree.labels[leaf[a]])
            new_first.append(len(new_first))
            new_depth.append(depth[lca] + 1)
        mark.append(len(labels))
        if f == i:
            row, word = next(kept)
            if i in gone:
                continue
            rows.append(row)
            words.append(word)
        elif mark[f] == len(labels):
            continue  # nothing left below: pruned
        labels.append(label)
        new_first.append(mark[f])
        new_depth.append(depth[i])
    return _tree_over(labels, new_first, new_depth, words, rows)


def _tree_over(labels, first, depth, words, rows) -> tuple[ParseTree, BoundaryTable]:
    """The tree with these arrays, its node times taken from the rows."""
    first_array = np.array(first, dtype=np.int64)
    starts = np.array([row.start for row in rows], dtype=float)
    ends = np.array([row.end for row in rows], dtype=float)
    spans = _hulls(first_array, starts, ends)
    tree = ParseTree._of(tuple(labels), first_array, depth, *spans, tuple(words))
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
