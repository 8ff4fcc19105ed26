"""Exact maximum-weight structured alignment between two timed parse trees.

Node pairs are weighted by interval IoU and the chosen matching must
respect ancestry on both sides: whenever two matchings are selected, the
ancestor/descendant relations of the two left-hand nodes must mirror
those of the two right-hand nodes, and siblings must not cross left to
right. Under those constraints the optimum decomposes recursively: the
value of aligning two subtrees with their roots matched is the root pair
IoU plus the best pairing of two equal-length, left-to-right ordered
sequences of pairwise-disjoint descendants.

Nodes are numbered in postorder, and ``first[p]`` is the index of p's
first descendant (p itself for a leaf), so p's strict descendants are
exactly ``first[p] .. p-1`` (Zhang & Shasha's leftmost-descendant
indexing). Among them, the nodes that end before a descendant u starts
are ``first[p] .. first[u]-1``: the legal predecessors of u in a
disjoint sequence always form a prefix, of length ``first[u] - first[p]``.
That turns the inner maximization into a prefix-maximum dynamic program
over two postorder ranges, filled by one routine (``_table``) for three
callers:

* the forward pass, bottom-up over the first tree's nodes and vectorized
  over all of the second tree's nodes;
* the top level, a virtual root at index n with ``first = 0`` on each
  side, whose table value is the objective;
* recovery, which re-fills the table of each matched pair and walks it
  back to find the pairs below.

Total cost is O(n^2 m^2) for trees of n and m nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .treebank import ParseTree, TreeNode

__all__ = [
    "MatchMode",
    "Alignment",
    "PairSolver",
    "max_weight_alignment",
]

NEG = -1e18  # sentinel for pairs excluded from matching


class MatchMode(enum.Enum):
    LABELED = "labeled"
    UNLABELED = "unlabeled"

    @classmethod
    def coerce(cls, value: "MatchMode | str") -> "MatchMode":
        if isinstance(value, MatchMode):
            return value
        return cls(value)


@dataclass(frozen=True)
class Alignment:
    """Matched node pairs plus the total IoU weight they realize.

    The pairs are listed in postorder of their first-tree node: every
    pair comes after the pairs matched below it, and left-to-right
    between disjoint subtrees.
    """

    pairs: tuple[tuple[TreeNode, TreeNode], ...]
    objective: float


class _TreeData:
    """A tree's nodes in postorder, with a virtual root at index n."""

    def __init__(self, tree: ParseTree):
        self.nodes: list[TreeNode] = []
        first: list[int] = []

        def walk(node: TreeNode):
            lo = len(self.nodes)
            for child in node.children:
                walk(child)
            first.append(lo)
            self.nodes.append(node)

        walk(tree.root)
        self.n = len(self.nodes)
        self.first = np.array(first + [0], dtype=np.int64)
        self.starts = np.array([m.start for m in self.nodes], dtype=float)
        self.ends = np.array([m.end for m in self.nodes], dtype=float)
        self.labels = [m.label for m in self.nodes]


class _Columns(NamedTuple):
    """Gather indices for the descendants of each second-tree node in qs.

    Row c lists the descendants of qs[c] (``desc``), padded with node 0
    up to the widest row, and each one's prefix of legal predecessors as
    a flat index into a (len(qs), width + 1) table row (``pred``).
    """

    desc: np.ndarray
    pred: np.ndarray
    width: np.ndarray


class PairSolver:
    """One alignment problem over a fixed tree pair and match mode.

    Subtree values are computed once, bottom-up, on construction; the
    objective, the realizing pairs, and per-subtree-pair optima are then
    cheap lookups.
    """

    def __init__(self, t1: ParseTree, t2: ParseTree, mode: MatchMode | str):
        self.mode = MatchMode.coerce(mode)
        self.d1 = _TreeData(t1)
        self.d2 = _TreeData(t2)
        self._solve()

    def _solve(self):
        d1, d2 = self.d1, self.d2
        n1, n2 = d1.n, d2.n

        inter = np.minimum(d1.ends[:, None], d2.ends[None, :]) - np.maximum(
            d1.starts[:, None], d2.starts[None, :]
        )
        np.clip(inter, 0.0, None, out=inter)
        len1 = (d1.ends - d1.starts)[:, None]
        len2 = (d2.ends - d2.starts)[None, :]
        weights = inter / (len1 + len2 - inter)

        if self.mode is MatchMode.LABELED:
            lab2 = {}
            ids2 = np.array([lab2.setdefault(l, len(lab2)) for l in d2.labels])
            ids1 = np.array([lab2.get(l, -1) for l in d1.labels])
            allowed = ids1[:, None] == ids2[None, :]
        else:
            allowed = np.ones((n1, n2), dtype=bool)

        # F[p, q]: best weight of p's and q's subtrees with p matched to q.
        self.F = F = np.empty((n1, n2))
        qs = np.arange(n2)
        cols = self._columns(qs)
        for p in range(n1):
            seq_best = self._table(p, cols)[-1, qs, cols.width]
            F[p] = np.where(allowed[p], weights[p] + seq_best, NEG)

        top = self._table(n1, self._columns(np.array([n2])))
        self.objective = float(top[-1, 0, -1])

    def _columns(self, qs: np.ndarray) -> _Columns:
        first = self.d2.first
        lo = first[qs]
        width = qs - lo
        j = np.arange(int(width.max()))
        inside = j < width[:, None]
        desc = np.where(inside, lo[:, None] + j, 0)
        pred = np.where(inside, first[desc] - lo[:, None], 0)
        pred += (j.size + 1) * np.arange(qs.size)[:, None]
        return _Columns(desc, pred, width)

    def _table(self, p: int, cols: _Columns) -> np.ndarray:
        """The sequence DP of p's descendants against each row of cols.

        ``G[i, c, j]`` is the best total of F over ordered pairings of
        disjoint nodes among the first i descendants of p and the first j
        descendants of column c's node.
        """
        first, F = self.d1.first, self.F
        lo = first[p]
        m, k = cols.desc.shape
        G = np.empty((p - lo + 1, m, k + 1))
        G[0] = 0.0
        G[:, :, 0] = 0.0
        for i in range(1, p - lo + 1):
            u = lo + i - 1
            cand = F[u].take(cols.desc)
            cand += G[first[u] - lo].take(cols.pred)
            np.maximum(cand, G[i - 1, :, 1:], out=cand)
            np.maximum.accumulate(cand, axis=1, out=G[i, :, 1:])
        return G

    # -- public queries -----------------------------------------------

    def subtree_objective(self, p: TreeNode, q: TreeNode) -> float:
        """Best alignment weight for the two subtrees with p matched to q.

        Returns -inf in labeled mode when the labels differ (the two
        roots cannot be matched at all).
        """
        value = self.F[self.d1.nodes.index(p), self.d2.nodes.index(q)]
        return float("-inf") if value <= NEG / 2 else float(value)

    def alignment(self) -> Alignment:
        d1, d2 = self.d1, self.d2
        first1, first2 = d1.first, d2.first
        pairs: list[tuple[int, int]] = []
        todo = [(d1.n, d2.n)]  # the virtual roots: matched, not reported
        while todo:
            p, q = todo.pop()
            if p < d1.n:
                pairs.append((p, q))
            if first1[p] == p or first2[q] == q:
                continue  # a leaf on either side has nothing below to match
            G = self._table(p, self._columns(np.array([q])))[:, 0]
            i, j = p - first1[p], q - first2[q]
            while i > 0 and j > 0:
                v = G[i, j]
                if v == G[i - 1, j]:
                    i -= 1
                elif v == G[i, j - 1]:
                    j -= 1
                else:
                    u, w = first1[p] + i - 1, first2[q] + j - 1
                    todo.append((u, w))
                    i, j = first1[u] - first1[p], first2[w] - first2[q]
        node_pairs = tuple(
            (d1.nodes[i], d2.nodes[j]) for i, j in sorted(pairs)
        )
        return Alignment(pairs=node_pairs, objective=self.objective)


def max_weight_alignment(
    t1: ParseTree, t2: ParseTree, mode: MatchMode | str = MatchMode.LABELED
) -> Alignment:
    """Solve the structured alignment problem for one tree pair."""
    return PairSolver(t1, t2, mode).alignment()
