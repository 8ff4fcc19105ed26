"""Exact maximum-weight structured alignment between two timed parse trees.

Node pairs are weighted by interval IoU; a matching must mirror ancestry
and must not cross siblings. In postorder, with ``first[p]`` p's first
descendant, p's descendants ending before its descendant u starts are
the prefix ``first[p] .. first[u]-1``. Nodes sharing a ``first`` form a
leftmost path under a keyroot (a virtual root at n tops the root's), and
one table of prefix maxima per first-tree keyroot, its columns the
second tree's keyroot segments end to end, serves both paths (Zhang &
Shasha 1989). A keyroot that is a single node, a leaf, has nothing below
it to pair, so it gets no table and no segment. Each pair numbers
children left to right or right to left, whichever gives the smaller
product of ``sum(k - first[k])`` over the two trees' keyroots (RTED,
Pawlik & Augsten 2011). Cost: that many rows times
``sum(k - first[k] + 1)`` columns over the keyroots of more than one node.
Recovering the pairs reads the last table, the virtual root's, which
holds every segment, and fills again, one segment each, only the tables
of lower first-tree paths that matched pairs reach.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .intervals import iou_matrix
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


@dataclass(frozen=True)
class Alignment:
    """Matched node pairs plus the total IoU weight they realize.

    The pairs are in the first tree's left-to-right postorder: each pair
    after the pairs matched below it, disjoint subtrees left to right.
    """

    pairs: tuple[tuple[TreeNode, TreeNode], ...]
    objective: float


def _paths(first: np.ndarray) -> dict[int, int]:
    """Each leftmost path's keyroot, keyed by the path's ``first``."""
    return dict(zip(first.tolist(), range(first.size)))


class _TreeData:
    """A tree's postorder arrays, with a virtual root at index n."""

    def __init__(self, tree: ParseTree):
        self.tree = tree
        first, depth = tree.first, tree.depth
        self.n = n = first.size
        self.rank = np.arange(n)
        self.first = np.append(first, 0)
        self.starts, self.ends, self.labels = tree.starts, tree.ends, tree.labels
        # ``flipped`` is ``first`` in the mirrored postorder: this preorder
        # reversed, where a node's preorder index is its first plus depth.
        self._flip = n - 1 - first - depth
        self.flipped = np.zeros(n + 1, dtype=np.int64)
        self.flipped[self._flip] = self._flip - self.rank + first

    def mirror(self):
        """Renumber the nodes children right to left; ``rank`` maps back."""
        order = np.argsort(self._flip)
        self.rank, self.first = order, self.flipped
        self.starts, self.ends = self.starts[order], self.ends[order]
        self.labels = [self.labels[i] for i in order]

    def index(self, node: TreeNode) -> int:
        """The working index of a node of the tree's view."""
        return self.rank.tolist().index(self.tree.nodes.index(node))


class PairSolver:
    """One alignment problem over a fixed tree pair and match mode.

    Solved on construction; the objective, the realizing pairs and the
    per-subtree-pair optima are then cheap lookups.
    """

    def __init__(self, t1: ParseTree, t2: ParseTree, mode: MatchMode | str):
        self.mode = MatchMode(mode)
        self.d1, self.d2 = d1, d2 = _TreeData(t1), _TreeData(t2)
        paths = [_paths(first) for first in (d1.first, d2.first, d1.flipped, d2.flipped)]
        cost = [sum(k - f for f, k in p.items()) for p in paths]
        if cost[2] * cost[3] < cost[0] * cost[1]:
            d1.mirror()
            d2.mirror()
            paths = paths[2:]
        # each tree's keyroots by path, in the chosen numbering
        self.paths1, self.paths2 = paths[:2]
        self._solve()

    def _solve(self):
        d1, d2 = self.d1, self.d2
        # F[p, q]: best weight of p's and q's subtrees with p matched to q,
        # its IoU until the tables add the rest; virtual roots never match.
        self.F = F = np.empty((d1.n + 1, d2.n + 1))
        F[-1], F[:, -1] = NEG, NEG
        iou_matrix(d1.starts, d1.ends, d2.starts, d2.ends, out=F[:-1, :-1])
        if self.mode is MatchMode.LABELED:
            lab2 = {}
            ids2 = np.array([lab2.setdefault(label, len(lab2)) for label in d2.labels])
            ids1 = np.array([lab2.get(label, -1) for label in d1.labels])
            F[:-1, :-1][ids1[:, None] != ids2] = NEG
        top2 = self.paths2
        cols = self._columns(sorted(k for f, k in top2.items() if f < k))
        self.offsets = off = cols[3]
        # each second-tree node's column: its descendants' prefix, or for
        # a one-node keyroot, which has no segment, column 0
        into = np.arange(d2.n) + [off.get(top2[f], 0) - f for f in d2.first[:-1].tolist()]
        for k in sorted(k for f, k in self.paths1.items() if f < k):
            self.top = None  # free the last table before filling the next
            self.top = self._table(k, cols, into)
        # the virtual root's table is last, and its segment last in it
        self.objective = float(self.top[-1, -1])

    def _columns(self, keyroots: list[int]):
        """Second-tree keyroot segments as columns, and their offsets.

        Segment k's column j > 0 adds node ``w = first[k] + j - 1``, whose
        legal predecessors end at column ``pred``; column 0 takes the
        virtual root, never matched, and is always 0.0. With more than one
        segment, ``z.real`` numbers them; with one, ``z`` is None.
        """
        first = self.d2.first
        ks = np.array(keyroots)
        width = ks - first[ks] + 1
        off = np.cumsum(width) - width
        seg = np.repeat(np.arange(ks.size), width)
        j = np.arange(seg.size) - off[seg]
        lo = first[ks][seg]
        w = np.where(j > 0, lo + j - 1, self.d2.n)
        pred = np.where(j > 0, off[seg] + first[w] - lo, 0)
        z = seg + 0j if ks.size > 1 else None
        return w, pred, z, dict(zip(keyroots, off.tolist()))

    def _table(self, k: int, cols, into: np.ndarray | None = None) -> np.ndarray:
        """``G[i, c]``: best F total over ordered disjoint pairings among
        keyroot k's first i descendants and column c's segment up to c.

        Complex numbers order by real part first, so the running maximum
        restarts per segment; one segment needs no restart. Given
        ``into``, each node's column, rows also complete F for the nodes
        on k's path, k last.
        """
        first, F = self.d1.first.tolist(), self.F
        lo = first[k]
        w, pred, z, _ = cols
        G = np.empty((k - lo + 1, w.size))
        G[0] = 0.0
        for i in range(1, k - lo + 1):
            u = lo + i - 1
            if into is not None and first[u] == lo:
                F[u, :-1] += G[i - 1].take(into)
            cand = F[u].take(w)
            cand += G[first[u] - lo].take(pred)
            np.maximum(cand, G[i - 1], out=cand)
            if z is None:
                np.maximum.accumulate(cand, out=G[i])
            else:
                z.imag = cand
                np.maximum.accumulate(z, out=z)
                G[i] = z.imag
        if into is not None:
            F[k, :-1] += G[-1].take(into)
        return G

    # -- public queries -----------------------------------------------

    def subtree_objective(self, p: TreeNode, q: TreeNode) -> float:
        """Best alignment weight for the two subtrees with p matched to q.

        Returns -inf in labeled mode when the labels differ (the two
        roots cannot be matched at all).
        """
        value = self.F[self.d1.index(p), self.d2.index(q)]
        return float("-inf") if value <= NEG / 2 else float(value)

    def alignment(self) -> Alignment:
        d1, d2 = self.d1, self.d2
        first1, first2 = d1.first.tolist(), d2.first.tolist()
        top1, top2 = self.paths1, self.paths2
        tables, pairs = {}, []
        todo = [(d1.n, d2.n)]  # the virtual roots: matched, not reported
        while todo:
            p, q = todo.pop()
            if p < d1.n:
                pairs.append((p, q))
            if first1[p] == p or first2[q] == q:
                continue  # a leaf on either side has nothing below to match
            key = k1, k2 = top1[first1[p]], top2[first2[q]]
            if key not in tables:
                if k1 == d1.n:  # the top table holds every segment
                    c = self.offsets[k2]
                    tables[key] = self.top[:, c : c + k2 - first2[k2] + 1]
                else:
                    tables[key] = self._table(k1, self._columns([k2]))
            G = tables[key]
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
        rank1, rank2 = d1.rank.tolist(), d2.rank.tolist()
        nodes1, nodes2 = d1.tree.nodes, d2.tree.nodes
        # report in left-to-right postorder
        pairs = sorted((rank1[i], rank2[j]) for i, j in pairs)
        node_pairs = tuple((nodes1[i], nodes2[j]) for i, j in pairs)
        return Alignment(pairs=node_pairs, objective=self.objective)


def max_weight_alignment(
    t1: ParseTree, t2: ParseTree, mode: MatchMode | str = MatchMode.LABELED
) -> Alignment:
    """Solve the structured alignment problem for one tree pair."""
    return PairSolver(t1, t2, mode).alignment()
