"""Tree and boundary-table data model.

A parse tree is held as read-only postorder arrays, the form the
alignment solver reads. For node i in postorder: ``labels[i]``;
``first[i]``, the index of its leftmost leaf (i itself for a leaf), so
node j lies strictly below node i iff ``first[i] <= j < i`` (Zhang &
Shasha's leftmost-descendant numbering); ``depth[i]``, its number of
strict ancestors; and its open time interval ``(starts[i], ends[i])``.
``words`` holds the leaves' words left to right. Children are pairwise
disjoint and ordered left to right, and an internal node's interval is
exactly the hull of its children's.

Parsing, time projection and serialization work on the arrays alone.
``TreeNode`` objects are a view: ``tree.nodes`` (postorder) and
``tree.root`` build them without recursion on first access and keep
them, so each node is the same object on every access. A leaf
(preterminal in parsing terms) carries its word as a payload; the
payload is not a node. Node equality is identity, so the same shape
built twice gives distinct nodes, which is what alignment and
validation need. A tree can also be built from a root node; one
postorder walk then derives its arrays, and that root is its view.
Nothing in this package builds trees that way: the generators write
bracketed text and parse it, and the perturbations build arrays.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import DataError, TreeSyntaxError
from .intervals import MIN_LENGTH, OpenInterval

__all__ = [
    "TreeNode",
    "ParseTree",
    "BoundaryRow",
    "BoundaryTable",
    "parse_bracketed",
    "serialize_bracketed",
    "iter_tree_file",
    "read_tree_file",
    "iter_boundary_file",
    "read_boundary_file",
    "write_boundary_file",
    "compact_silence",
    "project_to_time",
    "validate",
    "iter_nodes",
    "leaves",
]

PLACEHOLDER_WORD = "<W>"
# The longest boundary table scored, in seconds: an IoU union adds two
# spans, which must not overflow to infinity.
MAX_SPAN = sys.float_info.max / 2


@dataclass(frozen=True, eq=False)
class TreeNode:
    label: str
    interval: OpenInterval
    children: tuple["TreeNode", ...] = ()
    word: str | None = None

    @property
    def start(self) -> float:
        return self.interval.start

    @property
    def end(self) -> float:
        return self.interval.end

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _frozen(values, dtype) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class ParseTree:
    """A parse tree's postorder arrays, with its node view built on demand."""

    __slots__ = ("labels", "first", "depth", "starts", "ends", "words", "_nodes")

    labels: tuple[str, ...]
    first: np.ndarray
    depth: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    words: tuple[str | None, ...]

    def __init__(self, root: TreeNode):
        """The tree under ``root``, which becomes its view."""
        nodes: list[TreeNode] = []
        first: list[int] = []
        depth: list[int] = []
        # (node, depth, index of its first descendant, or -1 before its children)
        stack = [(root, 0, -1)]
        while stack:
            node, d, lo = stack.pop()
            if lo < 0 and node.children:
                stack.append((node, d, len(nodes)))
                stack.extend((c, d + 1, -1) for c in reversed(node.children))
                continue
            first.append(len(nodes) if lo < 0 else lo)
            depth.append(d)
            nodes.append(node)
        self._set(
            tuple(n.label for n in nodes), first, depth,
            [n.start for n in nodes], [n.end for n in nodes],
            tuple(n.word for n in nodes if n.is_leaf),
        )
        self._nodes = tuple(nodes)

    @classmethod
    def _of(cls, labels, first, depth, starts, ends, words) -> "ParseTree":
        """A tree straight from its arrays; its view is built when asked for."""
        tree = cls.__new__(cls)
        tree._set(labels, first, depth, starts, ends, words)
        tree._nodes = None
        return tree

    def _set(self, labels, first, depth, starts, ends, words) -> None:
        self.labels, self.words = labels, words
        self.first = _frozen(first, np.int64)
        self.depth = _frozen(depth, np.int64)
        self.starts = _frozen(starts, float)
        self.ends = _frozen(ends, float)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def nodes(self) -> tuple[TreeNode, ...]:
        """The node view in postorder; ``nodes[i]`` is node i of the arrays."""
        if self._nodes is None:
            first = self.first.tolist()
            starts, ends = self.starts.tolist(), self.ends.tolist()
            words = iter(self.words)
            nodes: list[TreeNode] = []
            waiting: list[int] = []  # built subtrees without a parent, ascending
            for i, (label, f) in enumerate(zip(self.labels, first)):
                span = OpenInterval(starts[i], ends[i])
                if f == i:
                    node = TreeNode(label, span, word=next(words))
                else:
                    k = bisect_left(waiting, f)  # i's children are the rest
                    kids = tuple(nodes[j] for j in waiting[k:])
                    del waiting[k:]
                    node = TreeNode(label, span, children=kids)
                waiting.append(i)
                nodes.append(node)
            self._nodes = tuple(nodes)
        return self._nodes

    @property
    def root(self) -> TreeNode:
        return self.nodes[-1]


class BoundaryRow:
    """One spoken word with its time range."""

    __slots__ = ("word", "start", "end")

    def __init__(self, word: str, start: float, end: float):
        self.word = word
        self.start = start
        self.end = end


@dataclass(eq=False)
class BoundaryTable:
    rows: tuple[BoundaryRow, ...]

    def is_gap_free(self) -> bool:
        return all(
            a.end == b.start for a, b in zip(self.rows, self.rows[1:])
        )


def iter_nodes(node: TreeNode) -> Iterator[TreeNode]:
    """Preorder traversal of a subtree."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def leaves(node: TreeNode) -> list[TreeNode]:
    return [n for n in iter_nodes(node) if n.is_leaf]


# ---------------------------------------------------------------------------
# Bracketed tree text format


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree like ``(NP (PRP Your) (NN turn))``.

    One pass over the tokens appends each node to the arrays when its
    ``)`` closes. The k-th word (left to right, 0-based k) is assigned
    the provisional interval (k, k+1), so the returned tree is
    immediately usable with word-index semantics and can be re-projected
    onto real times later.
    """
    # the tokens _TOKEN_RE finds (its \s is str.isspace), split faster
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise TreeSyntaxError("empty input", 0)
    if tokens[0] != "(":
        raise _syntax_error(text, f"expected '(' but found {tokens[0]!r}", 0)
    labels: list[str] = []
    first: list[int] = []
    depth: list[int] = []
    words: list[str] = []
    # The innermost open constituent: its '(' token, label, first node,
    # word count and word; the enclosing ones wait on the stack.
    opened, label, lo, nwords, word = -1, "", 0, 0, ""
    stack = []
    end = len(tokens)
    i = 0
    while True:
        tok = tokens[i]
        if tok == "(":
            if i + 1 == end:
                raise _syntax_error(text, "unbalanced parentheses", i)
            stack.append((opened, label, lo, nwords, word))
            opened, label, lo, nwords = i, tokens[i + 1], len(labels), 0
            if label == "(" or label == ")":
                raise _syntax_error(text, "constituent without a label", i + 1)
            i += 2
        elif tok == ")":
            if nwords and len(labels) > lo:
                raise _syntax_error(
                    text, "constituent mixes words and subconstituents", i
                )
            if not nwords and len(labels) == lo:
                raise _syntax_error(text, "empty constituent", opened)
            if nwords > 1:
                raise _syntax_error(
                    text, "preterminal with multiple word tokens", i
                )
            if nwords:
                words.append(word)
            labels.append(label)
            first.append(lo)
            depth.append(len(stack) - 1)
            opened, label, lo, nwords, word = stack.pop()
            i += 1
            if not stack:
                if i < end:
                    raise _syntax_error(text, "trailing content after tree", i)
                break
        else:
            nwords += 1
            word = tok
            i += 1
        if i == end:
            raise _syntax_error(text, "unbalanced parentheses", opened)
    first_array = _frozen(first, np.int64)
    starts = np.arange(len(words), dtype=float)
    spans = _hulls(first_array, starts, starts + 1.0)
    return ParseTree._of(tuple(labels), first_array, depth, *spans, tuple(words))


def _syntax_error(text: str, message: str, token: int) -> TreeSyntaxError:
    """The error at the given token, located by tokenizing again."""
    match = next(islice(_TOKEN_RE.finditer(text), token, None))
    return TreeSyntaxError(message, match.start())


def serialize_bracketed(tree: ParseTree) -> str:
    """Inverse of parse_bracketed up to whitespace normalization.

    Writes the nodes in preorder, where node i comes at ``first[i] +
    depth[i]``; a leaf closes itself and every constituent that ends
    with it.
    """
    labels = tree.labels
    first, depth = tree.first.tolist(), tree.depth.tolist()
    preorder = [0] * len(first)
    for i, (f, d) in enumerate(zip(first, depth)):
        preorder[f + d] = i
    words = iter(tree.words)
    parts = []
    for k, i in enumerate(preorder, start=1):
        parts.append(f"({labels[i]}")
        if first[i] == i:
            after = depth[preorder[k]] if k < len(preorder) else 0
            word = next(words) or PLACEHOLDER_WORD
            parts.append(word + ")" * (1 + depth[i] - after))
    return " ".join(parts)


def iter_tree_file(stream: TextIO | Iterable[str]) -> Iterator[ParseTree]:
    """Yield one tree per line; blank lines and ``#`` comments are skipped."""
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tree = parse_bracketed(stripped)
        except TreeSyntaxError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        yield tree


def read_tree_file(stream: TextIO | Iterable[str]) -> list[ParseTree]:
    """Every tree of ``iter_tree_file``, in a list."""
    return list(iter_tree_file(stream))


# ---------------------------------------------------------------------------
# Boundary tables


def iter_boundary_file(
    stream: TextIO | Iterable[str],
) -> Iterator[BoundaryTable]:
    """Yield the blank-line-separated blocks of ``word<TAB>start<TAB>end`` rows.

    Each table is yielded once the blank line (or end of input) after it
    is read. Leading and trailing blank (or whitespace-only) lines are
    tolerated; two or more blank lines between populated blocks are an
    empty block, a data error. Times must be finite, every row at least
    ``MIN_LENGTH`` seconds long and no earlier than the previous row's
    end. Each row is checked as it is read, so the first fault in line
    order is the one raised.
    """
    block: list[BoundaryRow] = []
    block_start_line = 0  # 0 until the first block starts
    blanks = 0  # blank lines since the last row
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            if block:
                yield BoundaryTable(tuple(block))
                block = []
            blanks += 1
            continue
        if not block:
            if block_start_line and blanks > 1:
                raise DataError(f"empty block at line {lineno - blanks}")
            block_start_line = lineno
        blanks = 0
        parts = stripped.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"line {lineno}: expected 'word<TAB>start<TAB>end', "
                f"got {stripped!r}"
            )
        word, start_s, end_s = parts
        try:
            start, end = float(start_s), float(end_s)
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric time field") from None
        if not (math.isfinite(start) and math.isfinite(end)):
            raise DataError(f"line {lineno}: non-finite time field")
        if start >= end:
            raise DataError(f"start >= end at line {lineno}")
        if end - start < MIN_LENGTH:
            raise DataError(
                f"line {lineno}: word shorter than {MIN_LENGTH} seconds"
            )
        if block and block[-1].end > start:
            raise DataError(
                f"overlapping rows {len(block) - 1} and {len(block)} in block "
                f"starting at line {block_start_line}"
            )
        block.append(BoundaryRow(word, start, end))
    if block:
        yield BoundaryTable(tuple(block))


def read_boundary_file(stream: TextIO | Iterable[str]) -> list[BoundaryTable]:
    """Every table of ``iter_boundary_file``, in a list."""
    return list(iter_boundary_file(stream))


def write_boundary_file(tables: Iterable[BoundaryTable], stream: TextIO) -> None:
    for i, table in enumerate(tables):
        if i:
            stream.write("\n")
        for row in table.rows:
            # float() first: numpy 2 scalars repr as ``np.float64(...)``
            stream.write(f"{row.word}\t{float(row.start)!r}\t{float(row.end)!r}\n")


def compact_silence(table: BoundaryTable) -> BoundaryTable:
    """Remove inter-word gaps by shifting rows left; durations are kept.

    Consecutive rows of the result share their boundary exactly (the next
    start is assigned from the previous end, not recomputed).
    """
    if not table.rows:
        return table
    out = []
    cursor = table.rows[0].start
    for row in table.rows:
        duration = row.end - row.start
        out.append(BoundaryRow(row.word, cursor, cursor + duration))
        cursor = out[-1].end
    return BoundaryTable(tuple(out))


# ---------------------------------------------------------------------------
# Projections


def project_to_time(tree: ParseTree, table: BoundaryTable) -> ParseTree:
    """Assign leaf k the k-th row's time range, and each node its leaves' hull.

    The table must be gap-free (see compact_silence), have exactly one
    row per tree leaf, and span at most ``MAX_SPAN`` seconds.
    """
    if not table.is_gap_free():
        raise DataError("boundary table has gaps; run compact_silence first")
    rows = table.rows
    if len(tree.words) != len(rows):
        raise DataError(
            f"tree has {len(tree.words)} leaves but table has {len(rows)} rows"
        )
    for row in rows:
        if not row.end - row.start >= MIN_LENGTH:
            try:
                OpenInterval(row.start, row.end)
            except ValueError as exc:
                raise DataError(str(exc)) from exc
    span = rows[-1].end - rows[0].start
    if span > MAX_SPAN:
        raise DataError(f"boundary table spans {span} seconds, over {MAX_SPAN}")
    starts = np.array([row.start for row in rows], dtype=float)
    ends = np.array([row.end for row in rows], dtype=float)
    return _respanned(tree, starts, ends)


def _respanned(tree: ParseTree, starts: np.ndarray, ends: np.ndarray) -> ParseTree:
    """The tree over new leaf rows: same shape, labels and words."""
    spans = _hulls(tree.first, starts, ends)
    return ParseTree._of(tree.labels, tree.first, tree.depth, *spans, tree.words)


def _hulls(
    first: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's start and end: its first leaf's row start, last leaf's end.

    ``rows[i]`` is the row of the last leaf among nodes 0..i, which is
    node i's last leaf; its first leaf is node ``first[i]``.
    """
    rows = np.cumsum(first == np.arange(first.size)) - 1
    return starts[rows[first]], ends[rows]


# ---------------------------------------------------------------------------
# Validation

def validate(tree: ParseTree) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    Checks, per node: a positive interval, a word payload exactly on
    leaves, consecutive children ordered by start and disjoint, and an
    internal interval equal to its children's hull. Together these imply
    that two nodes overlap in time iff one is an ancestor of the other.
    A node lies inside each of its ancestors, since each interval is its
    children's hull. Two unrelated nodes lie inside two distinct children
    of their lowest common ancestor, and those children are disjoint,
    since consecutive ones are and every interval has positive length.
    So no check runs over node pairs. The ordering check is implied too
    (a disjoint pair of positive intervals is ordered), but it names
    swapped children.
    """
    problems: list[str] = []
    for n in tree.nodes:
        if n.end - n.start <= 0:
            problems.append(f"degenerate interval on {n.label}")
        if n.is_leaf and n.word is None:
            problems.append(f"leaf {n.label} has no word payload")
        if not n.is_leaf and n.word is not None:
            problems.append(f"internal node {n.label} carries a word")
        if n.children:
            for a, b in zip(n.children, n.children[1:]):
                if a.start >= b.start:
                    problems.append(f"children of {n.label} not ordered by start")
                if a.end > b.start:
                    problems.append(f"children of {n.label} overlap")
            lo = min(c.start for c in n.children)
            hi = max(c.end for c in n.children)
            if (n.start, n.end) != (lo, hi):
                problems.append(
                    f"hull mismatch on {n.label}: ({n.start}, {n.end}) vs "
                    f"children hull ({lo}, {hi})"
                )
    return problems
