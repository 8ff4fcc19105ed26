"""Tree and boundary-table data model.

A parse tree here is a tree of labeled nodes where every node carries an
open time interval, children are pairwise disjoint and stored left to
right, and an internal node's interval is exactly the hull of its
children's. Terminals (preterminals in parsing terms) carry the word
string as a payload; the payload is not a node.

Trees are value objects: nothing mutates them after construction. Node
equality is identity, so the same shape built twice gives distinct nodes,
which is what alignment and validation need.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TextIO

from .errors import DataError, TreeSyntaxError
from .intervals import MIN_LENGTH, OpenInterval

__all__ = [
    "TreeNode",
    "ParseTree",
    "BoundaryRow",
    "BoundaryTable",
    "parse_bracketed",
    "serialize_bracketed",
    "read_tree_file",
    "read_boundary_file",
    "write_boundary_file",
    "compact_silence",
    "project_to_time",
    "project_even",
    "validate",
    "iter_nodes",
    "leaves",
    "postorder",
]

PLACEHOLDER_WORD = "<W>"


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


@dataclass(eq=False)
class ParseTree:
    root: TreeNode
    node_count: int = field(init=False)

    def __post_init__(self):
        self.node_count = sum(1 for _ in iter_nodes(self.root))


class BoundaryRow:
    """One spoken word with its time range."""

    __slots__ = ("word", "start", "end")

    def __init__(self, word: str, start: float, end: float):
        self.word = word
        self.start = start
        self.end = end

    def __iter__(self):
        return iter((self.word, self.start, self.end))

    def __repr__(self):
        return f"BoundaryRow({self.word!r}, {self.start}, {self.end})"


@dataclass(eq=False)
class BoundaryTable:
    rows: tuple[BoundaryRow, ...]

    def __len__(self) -> int:
        return len(self.rows)

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


def postorder(tree: ParseTree) -> tuple[list[TreeNode], list[int], list[int]]:
    """The tree's nodes in postorder, each one's first descendant, and depth.

    ``first[i]`` is the postorder index of node i's leftmost leaf (i itself
    for a leaf), so node j lies strictly below node i iff
    ``first[i] <= j < i``: Zhang & Shasha's leftmost-descendant numbering.
    ``depth[i]`` counts node i's strict ancestors.
    """
    nodes: list[TreeNode] = []
    first: list[int] = []
    depth: list[int] = []
    # (node, depth, index of its first descendant, or -1 before its children)
    stack = [(tree.root, 0, -1)]
    while stack:
        node, d, lo = stack.pop()
        if lo < 0 and node.children:
            stack.append((node, d, len(nodes)))
            stack.extend((c, d + 1, -1) for c in reversed(node.children))
            continue
        first.append(len(nodes) if lo < 0 else lo)
        depth.append(d)
        nodes.append(node)
    return nodes, first, depth


# ---------------------------------------------------------------------------
# Bracketed tree text format


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed tree like ``(NP (PRP Your) (NN turn))``.

    The k-th word (left to right, 0-based k) is assigned the provisional
    interval (k, k+1), so the returned tree is immediately usable with
    word-index semantics and can be re-projected onto real times later.
    """
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise TreeSyntaxError("empty input", 0)
    pos = 0
    word_counter = [0]

    def parse_node() -> TreeNode:
        nonlocal pos
        tok, off = tokens[pos]
        if tok != "(":
            raise TreeSyntaxError(f"expected '(' but found {tok!r}", off)
        pos += 1
        if pos >= len(tokens):
            raise TreeSyntaxError("unbalanced parentheses", off)
        label_tok, label_off = tokens[pos]
        if label_tok in ("(", ")"):
            raise TreeSyntaxError("constituent without a label", label_off)
        pos += 1
        children: list[TreeNode] = []
        words: list[str] = []
        while True:
            if pos >= len(tokens):
                raise TreeSyntaxError("unbalanced parentheses", off)
            tok, tok_off = tokens[pos]
            if tok == ")":
                pos += 1
                break
            if tok == "(":
                children.append(parse_node())
            else:
                words.append(tok)
                pos += 1
        if children and words:
            raise TreeSyntaxError(
                "constituent mixes words and subconstituents", tok_off
            )
        if not children and not words:
            raise TreeSyntaxError("empty constituent", off)
        if len(words) > 1:
            raise TreeSyntaxError(
                "preterminal with multiple word tokens", tok_off
            )
        if words:
            k = word_counter[0]
            word_counter[0] += 1
            return TreeNode(
                label_tok,
                OpenInterval(float(k), float(k + 1)),
                word=words[0],
            )
        return TreeNode(label_tok, _hull(children), children=tuple(children))

    root = parse_node()
    if pos != len(tokens):
        raise TreeSyntaxError("trailing content after tree", tokens[pos][1])
    return ParseTree(root)


def _hull(children: list[TreeNode]) -> OpenInterval:
    return OpenInterval(
        min(c.start for c in children), max(c.end for c in children)
    )


def serialize_bracketed(tree: ParseTree) -> str:
    """Inverse of parse_bracketed up to whitespace normalization."""

    def emit(node: TreeNode) -> str:
        if node.is_leaf:
            return f"({node.label} {node.word or PLACEHOLDER_WORD})"
        inner = " ".join(emit(c) for c in node.children)
        return f"({node.label} {inner})"

    return emit(tree.root)


def read_tree_file(stream: TextIO | Iterable[str]) -> list[ParseTree]:
    """Read one tree per line; blank lines and ``#`` comments are skipped."""
    trees = []
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            trees.append(parse_bracketed(stripped))
        except TreeSyntaxError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
    return trees


# ---------------------------------------------------------------------------
# Boundary tables


def read_boundary_file(stream: TextIO | Iterable[str]) -> list[BoundaryTable]:
    """Read blank-line-separated blocks of ``word<TAB>start<TAB>end`` rows.

    Leading and trailing blank lines are tolerated; an empty block between
    two populated blocks is a data error. Times must be finite, and every
    row at least ``MIN_LENGTH`` seconds long.
    """
    tables: list[BoundaryTable] = []
    block: list[BoundaryRow] = []
    block_start_line = 0
    saw_separator_at = 0

    def close_block():
        nonlocal block
        if block:
            tables.append(_validated_table(block, block_start_line))
            block = []

    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            if block:
                close_block()
                saw_separator_at = lineno
            elif tables and saw_separator_at:
                raise DataError(f"empty block at line {saw_separator_at}")
            continue
        if not block:
            block_start_line = lineno
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
        block.append(BoundaryRow(word, start, end))
    close_block()
    return tables


def _validated_table(rows: list[BoundaryRow], start_line: int) -> BoundaryTable:
    for k, (a, b) in enumerate(zip(rows, rows[1:])):
        if a.end > b.start:
            raise DataError(
                f"overlapping rows {k} and {k + 1} in block starting "
                f"at line {start_line}"
            )
    return BoundaryTable(tuple(rows))


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
    """Assign leaf k the k-th row's time range, recomputing internal hulls.

    The table must be gap-free (see compact_silence) and have exactly one
    row per tree leaf.
    """
    if not table.is_gap_free():
        raise DataError("boundary table has gaps; run compact_silence first")
    leaf_count = len(leaves(tree.root))
    if leaf_count != len(table.rows):
        raise DataError(
            f"tree has {leaf_count} leaves but table has {len(table.rows)} rows"
        )
    rows = iter(table.rows)

    def rebuild(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            row = next(rows)
            try:
                span = OpenInterval(row.start, row.end)
            except ValueError as exc:
                raise DataError(str(exc)) from exc
            return TreeNode(node.label, span, word=node.word)
        kids = tuple(rebuild(c) for c in node.children)
        return TreeNode(node.label, _hull(kids), children=kids)

    return ParseTree(rebuild(tree.root))


def project_even(tree: ParseTree) -> ParseTree:
    """Assign leaf k the unit interval (k, k+1), recomputing hulls."""
    rows = tuple(
        BoundaryRow(leaf.word or PLACEHOLDER_WORD, float(k), float(k + 1))
        for k, leaf in enumerate(leaves(tree.root))
    )
    return project_to_time(tree, BoundaryTable(rows))


# ---------------------------------------------------------------------------
# Validation

def validate(tree: ParseTree) -> list[str]:
    """Return a list of invariant violations; empty means the tree is valid.

    Checks, per node: interval sanity, word payload exactly on leaves,
    children ordered by start and pairwise disjoint, and internal interval
    equal to the children's hull. Additionally checks that any two nodes
    with no ancestry relation have disjoint intervals.
    """
    problems: list[str] = []
    nodes, first, _ = postorder(tree)

    for n in nodes:
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

    # Non-ancestry pairs must be disjoint (and ancestry pairs must not be).
    # In postorder a later node j is related to i iff it is i's ancestor.
    for i, p in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            q = nodes[j]
            rel = first[j] <= i
            overlap = min(p.end, q.end) - max(p.start, q.start) > 0
            if rel and not overlap:
                problems.append(
                    f"ancestry pair {p.label}/{q.label} with disjoint intervals"
                )
            if not rel and overlap:
                problems.append(
                    f"unrelated nodes {p.label}/{q.label} overlap"
                )
    return problems
