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
Pawlik & Augsten 2011). Both costs come from the postorder: subtree
sizes do not change, and the mirrored keyroots are the virtual root and
the nodes with a right sibling. Only the numbering solved in is built,
and the mirrored one alone reads ``depth``. Cost: that many rows times
``sum(k - first[k] + 1)`` columns, W, over the keyroots of more than one
node. A solve holds F, one buffer of the table rows still to be read,
and the last segment of the virtual root's table, which is the second
tree's virtual root's and F's size (a one-segment table is kept whole).
A row is read past the next row only if the node it adds next starts a
lower path, and then until that path's keyroot, so those rows nest. With
s the most paths of more than one node around one node, the buffer has
s + 1 rows of W and the peak is about 2 F + (s + 1) W doubles. Recovery
takes matched pairs largest key first and holds one refilled table, one
segment, at a time: its peak is F + the kept segment + that one table.
"""

from __future__ import annotations

import enum
import heapq
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


def _cost(paths: dict[int, int]) -> int:
    """``sum(k - first[k])`` over a numbering's keyroots."""
    return sum(k - f for f, k in paths.items())


def _mirrored_cost(first: np.ndarray) -> int:
    """``_cost`` in the mirrored numbering, from the postorder ``first``.
    Its keyroots are the virtual root and the nodes followed by a leaf."""
    size = np.arange(first.size) - first  # each subtree's size - 1
    return first.size + int(size[:-1][size[1:] == 0].sum())


class _TreeData:
    """A tree's arrays in one numbering, with a virtual root at index n:
    postorder, or mirrored, with children right to left. ``rank`` maps
    each node back to its postorder index."""

    def __init__(self, tree: ParseTree, mirrored: bool = False):
        self.tree = tree
        first = tree.first
        self.n = n = first.size
        self.rank = np.arange(n)
        self.starts, self.ends, self.labels = tree.starts, tree.ends, tree.labels
        if mirrored:
            # The mirror numbers nodes by reversed preorder, first + depth.
            # A node's first is its index less its subtree's size - 1.
            order = np.argsort(n - 1 - first - tree.depth)
            self.rank, first = order, self.rank - order + first[order]
            self.starts, self.ends = self.starts[order], self.ends[order]
            self.labels = [self.labels[i] for i in order.tolist()]
        self.first = np.append(first, 0)
        # each leftmost path's keyroot, keyed by the path's first
        self.paths = dict(zip(self.first.tolist(), range(n + 1)))


class PairSolver:
    """One alignment problem over a fixed tree pair and match mode.

    Solved on construction; the objective, the realizing pairs and the
    per-subtree-pair optima are then cheap lookups.
    """

    def __init__(self, t1: ParseTree, t2: ParseTree, mode: MatchMode | str):
        self.mode = MatchMode(mode)
        d1, d2 = _TreeData(t1), _TreeData(t2)
        left = _cost(d1.paths) * _cost(d2.paths)
        self.mirrored = _mirrored_cost(t1.first) * _mirrored_cost(t2.first) < left
        if self.mirrored:
            d1, d2 = _TreeData(t1, True), _TreeData(t2, True)
        self.d1, self.d2 = d1, d2
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
        top2 = d2.paths
        cols = self._columns(sorted(k for f, k in top2.items() if f < k))
        off = cols[3]
        # each second-tree node's column: its descendants' prefix, or for
        # a one-node keyroot, which has no segment, column 0
        into = np.arange(d2.n) + [off.get(top2[f], 0) - f for f in d2.first[:-1].tolist()]
        # slot[x]: the buffer row of a table row that adds node x next.
        # If x starts a lower path, that row is read until the path's
        # keyroot; such rows nest, so it takes 1 + the paths open around
        # x. Other rows share row 1: the next row reads it before writing.
        slot, around = [1] * (d1.n + 1), []
        for f, k in d1.paths.items():  # in increasing f
            if f < k:
                while around and around[-1] < f:
                    around.pop()
                around.append(k)
                slot[f] = len(around)
        buf = list(np.zeros((max(slot) + 1, cols[0].size)))
        for k, f in sorted((k, f) for f, k in d1.paths.items() if f < k)[:-1]:
            self._table(k, cols, [buf[0], *(buf[s] for s in slot[f + 1 : k + 1])], into)
        # The virtual root's table is last. Keep its last segment, the
        # second tree's virtual root's: the whole table if it is the only one.
        self.top = top = np.zeros((d1.n + 1, d2.n + 1))
        if cols[2] is None:
            self._table(d1.n, cols, list(top), into)
        else:
            self._table(d1.n, cols, [buf[0], *(buf[s] for s in slot[1:])], into, top)
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

    def _table(self, k: int, cols, rows, into=None, top=None):
        """Fill ``rows[i][c]``: the best F total over ordered disjoint
        pairings among keyroot k's first i descendants and column c's
        segment up to c. ``rows[0]`` must be all 0.0.

        Complex numbers order by real part first, so the running maximum
        restarts per segment; one segment needs no restart. Given
        ``into``, each node's column, rows also complete F for the nodes
        on k's path, k last. Given ``top``, it gets a copy of each row's
        last columns.
        """
        first, F = self.d1.first.tolist(), self.F
        lo = first[k]
        w, pred, z, _ = cols
        for i in range(1, k - lo + 1):
            u, prev, row = lo + i - 1, rows[i - 1], rows[i]
            if into is not None and first[u] == lo:
                F[u, :-1] += prev.take(into)
            cand = F[u].take(w)
            cand += rows[first[u] - lo].take(pred)
            np.maximum(cand, prev, out=cand)
            if z is None:
                np.maximum.accumulate(cand, out=row)
            else:
                z.imag = cand
                np.maximum.accumulate(z, out=z)
                row[:] = z.imag
            if top is not None:
                top[i] = row[-top.shape[1] :]
        if into is not None:
            F[k, :-1] += rows[-1].take(into)

    # -- public queries -----------------------------------------------

    def subtree_objective(self, i: int, j: int) -> float:
        """Best alignment weight for the subtrees under postorder nodes i
        of the first tree and j of the second, with i matched to j.

        Returns -inf in labeled mode when the labels differ (the two
        roots cannot be matched at all).
        """
        if not (0 <= i < self.d1.n and 0 <= j < self.d2.n):
            raise IndexError(f"node pair ({i}, {j}) outside the trees")
        # the numbered nodes whose rank is i and j
        value = self.F[np.argmax(self.d1.rank == i), np.argmax(self.d2.rank == j)]
        return float("-inf") if value <= NEG / 2 else float(value)

    def alignment(self) -> Alignment:
        """The pairs realizing the objective, in the first tree's
        left-to-right postorder. Each call fills its tables again."""
        d1, d2 = self.d1, self.d2
        first1, first2 = d1.first.tolist(), d2.first.tolist()
        top1, top2 = d1.paths, d2.paths
        # A pair found below (p, q) has keyroots no greater than p's and
        # q's, both equal only on p's and q's paths. So keys leave the heap
        # largest first: each table is filled at most once, and none is
        # read again once its key has passed.
        todo = [(-d1.n, -d2.n, d1.n, d2.n)]  # the virtual roots: matched, not reported
        key, G, pairs = todo[0][:2], self.top, []
        while todo:
            k1, k2, p, q = heapq.heappop(todo)
            if (k1, k2) != key:
                cols = self._columns([-k2])
                key, G = (k1, k2), np.zeros((-k1 - first1[-k1] + 1, cols[0].size))
                self._table(-k1, cols, list(G))
            i, j = p - first1[p], q - first2[q]
            while i > 0 and j > 0:
                v = G[i, j]
                if v == G[i - 1, j]:
                    i -= 1
                elif v == G[i, j - 1]:
                    j -= 1
                else:
                    u, w = first1[p] + i - 1, first2[q] + j - 1
                    pairs.append((u, w))
                    if first1[u] < u and first2[w] < w:  # both have descendants
                        heapq.heappush(todo, (-top1[first1[u]], -top2[first2[w]], u, w))
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
