"""Exhaustive alignment solver for small trees, used to audit the DP.

Branch and bound over candidate node pairs sorted by weight, bounded by
either tree's sum of its nodes' heaviest remaining pairs. A hard guard
rejects trees of more than MAX_PAIR_PRODUCT node pairs.

Two matched pairs must use distinct nodes and have the same ancestry in
both trees. The non-crossing rule that the DP enforces needs no check
here: unrelated nodes of a valid tree are disjoint in time (see
``treebank.validate``), so of two crossing pairs at least one has IoU 0,
and the oracle matches only pairs with positive IoU.
``alignment_problems`` checks any alignment against these rules, the
labels, non-crossing and the objective.

Above the guard, ``ted_objective`` audits the solver instead: the
objective recast as Zhang & Shasha's tree edit distance, computed by a
plain scalar program. All of these read the trees' arrays, where node j
lies below node i iff ``first[i] <= j < i``.
"""

from __future__ import annotations

import enum

import numpy as np

from .align import Alignment, MatchMode
from .errors import CapacityError, UsageError
from .intervals import iou, iou_matrix
from .treebank import ParseTree, _respanned, parse_bracketed

__all__ = [
    "OracleVariant",
    "alignment_problems",
    "oracle_alignment",
    "random_timed_tree",
    "ted_objective",
]

MAX_PAIR_PRODUCT = 200
ALPHABET = ("A", "B", "C")  # random_timed_tree's labels


def _ancestors(tree: ParseTree, nodes: np.ndarray) -> np.ndarray:
    """anc[a, b] is True iff node nodes[a] is a strict ancestor of nodes[b]."""
    return (tree.first[nodes][:, None] <= nodes) & (nodes < nodes[:, None])


def _compatible(
    t1: ParseTree, t2: ParseTree, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """compat[a, b]: node pairs (rows[a], cols[a]) and (rows[b], cols[b])
    use distinct nodes and have the same ancestry in both trees."""
    same = _ancestors(t1, rows) == _ancestors(t2, cols)
    return same & same.T & (rows[:, None] != rows) & (cols[:, None] != cols)


def alignment_problems(
    t1: ParseTree,
    t2: ParseTree,
    alignment: Alignment,
    mode: MatchMode | str = MatchMode.LABELED,
) -> list[str]:
    """Return the constraints an alignment breaks; empty means feasible.

    Every pair's nodes must belong to their trees and, in labeled mode,
    share a label. Any two pairs must use distinct nodes and the same
    ancestry on both sides, and two unrelated pairs must keep their
    postorder (left-to-right) order on both sides. The pairs' IoU sum
    must equal the objective. Problems name a pair by its nodes'
    postorder indices.
    """
    mode = MatchMode(mode)
    index1, index2 = ({id(n): i for i, n in enumerate(t.nodes)} for t in (t1, t2))
    try:
        pairs = [(index1[id(p)], index2[id(q)]) for p, q in alignment.pairs]
    except KeyError:
        return ["alignment names a node outside its tree"]
    problems = []
    if mode is MatchMode.LABELED:
        problems += [f"pair {(i, j)} matches {t1.labels[i]} to {t2.labels[j]}"
                     for i, j in pairs if t1.labels[i] != t2.labels[j]]
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    compat = _compatible(t1, t2, rows, cols)
    anc1 = _ancestors(t1, rows)
    reordered = (rows[:, None] < rows) != (cols[:, None] < cols)
    crossed = compat & ~(anc1 | anc1.T) & reordered
    for bad, what in ((~compat, "share a node or disagree on ancestry"),
                      (crossed, "cross")):
        problems += [
            f"pairs {pairs[a]} and {pairs[b]} {what}"
            for a, b in zip(*np.nonzero(np.triu(bad, 1)))
        ]
    total = sum(iou(p.interval, q.interval) for p, q in alignment.pairs)
    if not abs(total - alignment.objective) <= 1e-9 * max(1.0, total):
        problems.append(
            f"matched IoU sum {total!r} != objective {alignment.objective!r}"
        )
    return problems


class OracleVariant(enum.Enum):
    """The oracle's constraint set; it has one, see the module docstring."""

    ORDER_CONSISTENT = "order_consistent"


def oracle_alignment(
    t1: ParseTree,
    t2: ParseTree,
    mode: MatchMode | str = MatchMode.LABELED,
    variant: OracleVariant = OracleVariant.ORDER_CONSISTENT,
) -> Alignment:
    mode = MatchMode(mode)
    if t1.node_count * t2.node_count > MAX_PAIR_PRODUCT:
        raise CapacityError(
            f"{t1.node_count} x {t2.node_count} nodes exceeds the "
            f"{MAX_PAIR_PRODUCT}-pair oracle guard"
        )
    weights = iou_matrix(t1.starts, t1.ends, t2.starts, t2.ends)
    if mode is MatchMode.LABELED:
        weights[np.array(t1.labels)[:, None] != np.array(t2.labels)] = 0.0

    rows, cols = np.nonzero(weights > 0.0)
    w = weights[rows, cols]
    order = np.lexsort((cols, rows, -w))  # heaviest first, then by node
    rows, cols, w = rows[order], cols[order], w[order]
    m = len(w)
    if m == 0:
        return Alignment(pairs=(), objective=0.0)
    compat = _compatible(t1, t2, rows, cols)
    # A node is matched at most once, so pairs pos.. add at most, in each
    # tree, the sum of each node's heaviest pair from pos on (going back,
    # a pair replaces its node's best), plus 1e-9 of all weight for rounding.
    bound = np.full(m, np.inf)
    for nodes in (rows, cols):
        best, total = {}, 0.0
        for pos in range(m - 1, -1, -1):
            total += w[pos] - best.get(nodes[pos], 0.0)
            best[nodes[pos]] = w[pos]
            bound[pos] = min(bound[pos], total)
    bound += 1e-9 * w.sum()

    best_val = 0.0
    best_set: list[int] = []
    chosen: list[int] = []

    def recurse(pos: int, value: float):
        nonlocal best_val, best_set
        if value > best_val:
            best_val = value
            best_set = list(chosen)
        if pos == m or value + bound[pos] <= best_val:
            return
        if all(compat[pos, b] for b in chosen):
            chosen.append(pos)
            recurse(pos + 1, value + w[pos])
            chosen.pop()
        recurse(pos + 1, value)

    recurse(0, 0.0)
    pairs = tuple(
        (t1.nodes[rows[a]], t2.nodes[cols[a]])
        for a in sorted(best_set, key=lambda a: (rows[a], cols[a]))
    )
    return Alignment(pairs=pairs, objective=float(best_val))


def ted_objective(
    t1: ParseTree, t2: ParseTree, mode: MatchMode | str = MatchMode.LABELED
) -> float:
    """The alignment objective through Zhang & Shasha's tree edit distance.

    Deleting or inserting a node costs 1/2 and renaming a to b costs
    1 - IoU(a, b), or is barred across labels in labeled mode. An edit
    mapping is an order-consistent alignment, and one of size |M| costs
    (n1 + n2)/2 minus its IoU sum, so the objective is (n1 + n2)/2 - TED.
    Plain scalar Python in O(n1 n2 d1 d2) for depths d1 and d2, with no
    size guard.
    """
    mode = MatchMode(mode)
    rename = 1.0 - iou_matrix(t1.starts, t1.ends, t2.starts, t2.ends)
    if mode is MatchMode.LABELED:
        rename[np.array(t1.labels)[:, None] != np.array(t2.labels)] = np.inf
    rename = rename.tolist()
    lml1, lml2 = t1.first.tolist(), t2.first.tolist()
    td = [[0.0] * len(lml2) for _ in lml1]  # subtree-to-subtree distance
    for k1 in sorted({l: k for k, l in enumerate(lml1)}.values()):
        for k2 in sorted({l: k for k, l in enumerate(lml2)}.values()):
            l1, l2 = lml1[k1], lml2[k2]
            # fd[i][j]: distance between the forests of the first i nodes
            # from l1 and the first j nodes from l2
            fd = [[(i + j) / 2 for j in range(k2 - l2 + 2)]
                  for i in range(k1 - l1 + 2)]
            for i in range(1, k1 - l1 + 2):
                x = l1 + i - 1
                for j in range(1, k2 - l2 + 2):
                    y = l2 + j - 1
                    best = min(fd[i - 1][j], fd[i][j - 1]) + 0.5
                    if lml1[x] == l1 and lml2[y] == l2:
                        best = min(best, fd[i - 1][j - 1] + rename[x][y])
                        td[x][y] = best
                    else:
                        best = min(best, fd[lml1[x] - l1][lml2[y] - l2] + td[x][y])
                    fd[i][j] = best
    return (len(lml1) + len(lml2)) / 2 - td[-1][-1]


def random_timed_tree(
    rng: np.random.Generator, max_nodes: int, allow_gaps: bool = True
) -> ParseTree:
    """A random valid timed tree with at most max_nodes labeled nodes.

    Random shape over a random number of leaves, occasional unary
    wrappers, and leaf intervals drawn from sorted random time points
    (with or without silence between leaves).
    """
    if max_nodes < 1:
        raise UsageError(f"max_nodes must be at least 1, got {max_nodes}")
    for _ in range(64):
        tree = _random_tree_attempt(rng, max_nodes, allow_gaps)
        if tree.node_count <= max_nodes:
            return tree
    # Fall back to the smallest possible tree.
    return parse_bracketed(f"({ALPHABET[0]} w)")


def _spaced_points(rng, count: int, min_gap: float = 1e-3) -> np.ndarray:
    pts = np.sort(rng.uniform(0.0, 10.0, size=count))
    for i in range(1, count):
        if pts[i] - pts[i - 1] < min_gap:
            pts[i] = pts[i - 1] + min_gap
    return pts


def _random_tree_attempt(rng, max_nodes, allow_gaps):
    n_leaves = int(rng.integers(1, max(2, max_nodes // 2 + 1)))
    if allow_gaps and rng.random() < 0.5:
        pts = _spaced_points(rng, 2 * n_leaves)
        starts, ends = pts[0::2], pts[1::2]
    else:
        pts = _spaced_points(rng, n_leaves + 1)
        starts, ends = pts[:-1], pts[1:]

    def build(lo: int, hi: int) -> str:
        """The bracketed text of a subtree over leaves lo..hi-1."""
        label = rng.choice(ALPHABET)
        width = hi - lo
        if width == 1:
            text = f"({label} w{lo})"
        else:
            parts = 3 if width >= 3 and rng.random() < 0.25 else 2
            cuts = sorted(rng.choice(range(lo + 1, hi), size=parts - 1,
                                     replace=False))
            bounds = [lo, *map(int, cuts), hi]
            kids = " ".join(build(a, b) for a, b in zip(bounds, bounds[1:]))
            text = f"({label} {kids})"
        while rng.random() < 0.2:
            text = f"({rng.choice(ALPHABET)} {text})"
        return text

    return _respanned(parse_bracketed(build(0, n_leaves)), starts, ends)
