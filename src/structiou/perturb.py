"""Seeded word-boundary perturbations: noise, insert, delete.

All three take a perturbation level delta in [0, 1] and a numpy
Generator, and are deterministic given (input, delta, generator state).
Corpus runs derive one independent stream per sentence from
(seed, repetition, sentence index) so results do not depend on
processing order.

Noise jitters each interior boundary toward a neighbor by a uniform
fraction, updating left to right so each move sees the already-moved
left neighbor. Insert splits words at uniform positions with
probability delta each. Delete removes interior boundaries with
probability delta each and repairs the tree: the two word preterminals
are merged into one (keeping the left label) attached under their
lowest common ancestor, and any internal node left childless is pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .intervals import OpenInterval
from .treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
)

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
            raise DataError(f"unknown perturbation mode {self.mode!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise DataError(f"delta must be in [0, 1], got {self.delta}")


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
    degenerate single-preterminal tree.
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

    new_rows: list[BoundaryRow] = []
    for i, row in enumerate(table.rows):
        if i in splits:
            left_text, right_text = _split_word_text(row.word)
            new_rows.append(BoundaryRow(left_text, row.start, splits[i]))
            new_rows.append(BoundaryRow(right_text, splits[i], row.end))
        else:
            new_rows.append(row)

    counter = [0]

    def rebuild(node: TreeNode) -> tuple[TreeNode, ...]:
        if node.is_leaf:
            i = counter[0]
            counter[0] += 1
            if i not in splits:
                return (node,)
            point = splits[i]
            left_text, right_text = _split_word_text(node.word or "")
            return (
                TreeNode(node.label, OpenInterval(node.start, point), word=left_text),
                TreeNode(node.label, OpenInterval(point, node.end), word=right_text),
            )
        kids = tuple(k for c in node.children for k in rebuild(c))
        return (TreeNode(node.label, node.interval, children=kids),)

    (root,) = rebuild(tree.root)
    return ParseTree(root), BoundaryTable(tuple(new_rows))


def perturb_delete(
    tree: ParseTree, table: BoundaryTable, delta: float, rng: np.random.Generator
) -> tuple[ParseTree, BoundaryTable]:
    """Merge adjacent words across deleted boundaries, repairing the tree.

    Each interior boundary is deleted with probability delta; deletions
    apply left to right. See the module docstring for the repair rule.
    """
    n = len(table.rows)
    if delta == 0.0 or n <= 1:
        return tree, table
    draws = rng.uniform(0.0, 1.0, size=n - 1)
    current_tree, current_table = tree, table
    for i in range(n - 1):
        if draws[i] < delta:
            boundary = table.rows[i].end
            k = _row_ending_at(current_table, boundary)
            current_tree, current_table = _merge_words(
                current_tree, current_table, k
            )
    return current_tree, current_table


def _row_ending_at(table: BoundaryTable, boundary: float) -> int:
    for k, row in enumerate(table.rows):
        if row.end == boundary:
            return k
    raise DataError(f"boundary {boundary} not found during deletion")


def _merge_words(
    tree: ParseTree, table: BoundaryTable, k: int
) -> tuple[ParseTree, BoundaryTable]:
    """Merge words k and k+1 of a projected tree and its table."""
    nodes, first = tree.nodes, tree.first.tolist()
    a, b = [i for i, f in enumerate(first) if f == i][k : k + 2]
    # the lowest node after b (in postorder) whose subtree reaches back to a
    lca = nodes[next(j for j in range(b + 1, len(nodes)) if first[j] <= a)]
    left_leaf, right_leaf = nodes[a], nodes[b]
    merged = TreeNode(
        left_leaf.label,
        OpenInterval(left_leaf.start, right_leaf.end),
        word=(left_leaf.word or "") + (right_leaf.word or ""),
    )

    def rebuild(node: TreeNode) -> TreeNode | None:
        if node is left_leaf or node is right_leaf:
            return None
        if node.is_leaf:
            return node
        kids = [r for r in (rebuild(c) for c in node.children) if r is not None]
        if node is lca:
            kids.append(merged)
            kids.sort(key=lambda c: c.start)
        if not kids:
            return None
        hull = OpenInterval(min(c.start for c in kids), max(c.end for c in kids))
        return TreeNode(node.label, hull, children=tuple(kids))

    root = rebuild(tree.root)
    assert root is not None

    row_left, row_right = table.rows[k], table.rows[k + 1]
    merged_row = BoundaryRow(
        row_left.word + row_right.word, row_left.start, row_right.end
    )
    rows = table.rows[:k] + (merged_row,) + table.rows[k + 2 :]
    return ParseTree(root), BoundaryTable(rows)


def apply_perturbation(
    tree: ParseTree, table: BoundaryTable, spec: PerturbSpec,
    rng: np.random.Generator,
) -> tuple[ParseTree, BoundaryTable]:
    """Dispatch one sentence through the chosen perturbation.

    Noise alters the table only; the caller re-projects the tree.
    """
    if spec.mode == "noise":
        return tree, perturb_noise(table, spec.delta, rng)
    if spec.mode == "insert":
        return perturb_insert(tree, table, spec.delta, rng)
    return perturb_delete(tree, table, spec.delta, rng)
