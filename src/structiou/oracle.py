"""Exhaustive alignment solver for small trees, used to audit the DP.

Branch and bound over candidate node pairs sorted by weight, with the
sum of remaining weights as the (admissible) bound. Intended for trees
up to roughly 20x20 nodes; a hard guard rejects anything bigger.

Two constraint variants are supported: the ancestry-consistency rules
alone, or those rules plus the non-crossing requirement the dynamic
program enforces. The second is what the shipped metric computes; the
first exists to measure whether crossing matchings could ever score
higher.

Above the branch-and-bound size guard, ``ted_objective`` audits the
solver instead: the objective recast as Zhang & Shasha's tree edit
distance, computed by a plain scalar program.

Both read the trees' arrays, and touch the node view only to return
``Alignment.pairs``. The module also holds the two ancestry helpers that
the tests use to check alignments: an index from a tree's nodes to their
postorder positions, where node j lies below node i iff ``first[i] <= j
< i``, and the pairwise conflict test.
"""

from __future__ import annotations

import enum

import numpy as np

from .align import Alignment, MatchMode
from .errors import CapacityError, UsageError
from .intervals import iou_matrix
from .treebank import ParseTree, TreeNode, _respanned, parse_bracketed

__all__ = [
    "OracleVariant",
    "TreeIndex",
    "conflicted",
    "oracle_alignment",
    "random_timed_tree",
    "ted_objective",
]

MAX_PAIR_PRODUCT = 200
ALPHABET = ("A", "B", "C")  # random_timed_tree's labels


class TreeIndex:
    """O(1) ancestry queries on a tree's nodes, by their postorder index."""

    def __init__(self, tree: ParseTree):
        self.first = tree.first
        self.index = {id(n): i for i, n in enumerate(tree.nodes)}

    def is_ancestor(self, p: TreeNode, q: TreeNode) -> bool:
        """True iff p is a strict ancestor of q."""
        i, j = self.index[id(p)], self.index[id(q)]
        return self.first[i] <= j < i


def _ancestors(tree: ParseTree) -> np.ndarray:
    """anc[i, j] is True iff node i is a strict ancestor of node j."""
    idx = np.arange(tree.node_count)
    return (tree.first[:, None] <= idx) & (idx < idx[:, None])


def conflicted(
    pair1: tuple[TreeNode, TreeNode],
    pair2: tuple[TreeNode, TreeNode],
    index1: TreeIndex,
    index2: TreeIndex,
) -> bool:
    """Whether two matchings disagree on an ancestor/descendant relation.

    Given matchings (p1, q1) and (p2, q2) over the same two trees, the
    pair is conflicted when p1's ancestor (or descendant) relation to p2
    differs from q1's relation to q2.
    """
    p1, q1 = pair1
    p2, q2 = pair2
    if index1.is_ancestor(p1, p2) != index2.is_ancestor(q1, q2):
        return True
    if index1.is_ancestor(p2, p1) != index2.is_ancestor(q2, q1):
        return True
    return False


class OracleVariant(enum.Enum):
    ORDER_CONSISTENT = "order_consistent"
    ANCESTRY_ONLY = "ancestry_only"


def oracle_alignment(
    t1: ParseTree,
    t2: ParseTree,
    mode: MatchMode | str = MatchMode.LABELED,
    variant: OracleVariant = OracleVariant.ORDER_CONSISTENT,
) -> Alignment:
    mode = MatchMode.coerce(mode)
    if t1.node_count * t2.node_count > MAX_PAIR_PRODUCT:
        raise CapacityError(
            f"{t1.node_count} x {t2.node_count} nodes exceeds the "
            f"{MAX_PAIR_PRODUCT}-pair oracle guard"
        )
    n1, n2 = t1.node_count, t2.node_count
    weights = iou_matrix(t1.starts, t1.ends, t2.starts, t2.ends)
    if mode is MatchMode.LABELED:
        weights[np.array(t1.labels)[:, None] != np.array(t2.labels)] = 0.0

    cand = [(i, j) for i in range(n1) for j in range(n2) if weights[i, j] > 0.0]
    cand.sort(key=lambda ij: (-weights[ij[0], ij[1]], ij[0], ij[1]))
    m = len(cand)
    if m == 0:
        return Alignment(pairs=(), objective=0.0)

    anc1, anc2 = _ancestors(t1), _ancestors(t2)
    check_crossing = variant is OracleVariant.ORDER_CONSISTENT

    compat = np.zeros((m, m), dtype=bool)
    for a, (i, j) in enumerate(cand):
        for b in range(a + 1, m):
            k, l = cand[b]
            if i == k or j == l:
                continue
            if anc1[i, k] != anc2[j, l] or anc1[k, i] != anc2[l, j]:
                continue
            if check_crossing and not anc1[i, k] and not anc1[k, i]:
                if (t1.starts[i] < t1.starts[k]) != (t2.starts[j] < t2.starts[l]):
                    continue
            compat[a, b] = compat[b, a] = True

    w = np.array([weights[i, j] for i, j in cand])
    suffix = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])

    best_val = 0.0
    best_set: list[int] = []
    chosen: list[int] = []

    def recurse(pos: int, value: float):
        nonlocal best_val, best_set
        if value > best_val:
            best_val = value
            best_set = list(chosen)
        if pos == m or value + suffix[pos] <= best_val:
            return
        a = pos
        if all(compat[a, b] for b in chosen):
            chosen.append(a)
            recurse(pos + 1, value + w[a])
            chosen.pop()
        recurse(pos + 1, value)

    recurse(0, 0.0)
    pairs = tuple(
        (t1.nodes[cand[a][0]], t2.nodes[cand[a][1]])
        for a in sorted(best_set, key=lambda a: cand[a])
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
    mode = MatchMode.coerce(mode)
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
