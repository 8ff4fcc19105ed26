"""Tree builders shared by the test modules.

Valid trees are written as bracketed text and projected onto their word
times, so every node span comes from the library's own hull rule. The
transforms below rebuild a tree from its node view instead: they move
or reflect every span as given, which keeps valid trees valid.
``node_problems`` checks a tree by per-node rules, as a reference for
``validate``.
"""

import numpy as np

from structiou.intervals import OpenInterval
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
    parse_bracketed,
    project_to_time,
)


def timed(text: str, times) -> ParseTree:
    """The tree of ``text`` with word k spanning ``times[k]`` to ``times[k + 1]``."""
    tree = parse_bracketed(text)
    table = BoundaryTable(tuple(
        BoundaryRow(word, s, e) for word, s, e in zip(tree.words, times, times[1:])
    ))
    return project_to_time(tree, table)


def right_chain_text(words: int) -> str:
    """A right-branching chain: each internal node X has a leaf (X w) on
    its left."""
    text = "(X w)"
    for _ in range(words - 1):
        text = f"(X (X w) {text})"
    return text


def left_chain_text(words: int) -> str:
    """A left-branching chain: each internal node X has a leaf (X w) on
    its right."""
    text = "(X w)"
    for _ in range(words - 1):
        text = f"(X {text} (X w))"
    return text


def zigzag_text(words: int) -> str:
    """A chain whose spine child switches sides at each level. Its labels
    are X."""
    text = "(X w0)"
    for k in range(1, words):
        text = f"(X {text} (X w{k}))" if k % 2 else f"(X (X w{k}) {text})"
    return text


def ancestors(t: ParseTree) -> np.ndarray:
    """Each node's number of strict ancestors, counted down the node view,
    as int64 in postorder."""
    index = {id(node): i for i, node in enumerate(t.nodes)}
    out = np.zeros(t.node_count, np.int64)
    stack = [(t.root, 0)]
    while stack:
        node, above = stack.pop()
        out[index[id(node)]] = above
        stack.extend((c, above + 1) for c in node.children)
    return out


def spine_text(words: int, p: float, rng) -> str:
    """A chain whose spine child starts on the right and switches sides
    with probability p at each level up. Its labels are X."""
    text, right = "(X w0)", True
    for k in range(1, words):
        text = f"(X (X w{k}) {text})" if right else f"(X {text} (X w{k}))"
        right ^= bool(rng.random() < p)
    return text


def written(t: ParseTree) -> str:
    """The bracketed text of the node view, written by a preorder walk
    that pushes each node's closing bracket and its children."""
    out, stack = [], [t.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            out.append(f"({item.label} {item.word})")
        else:
            out.append(f"({item.label} ")
            stack.append(")")
            for k, child in enumerate(reversed(item.children)):
                stack.extend([" ", child] if k else [child])
    return "".join(out)


def node_problems(t: ParseTree) -> list[str]:
    """The invariants a tree breaks, by per-node rules on its node view: a
    positive interval, consecutive children ordered by start and
    disjoint, and an internal interval equal to its children's hull. An
    independent reference for the verdict of ``validate``, which checks
    the arrays by other rules."""
    problems = []
    for n in t.nodes:
        if n.end - n.start <= 0:
            problems.append(f"degenerate interval on {n.label}")
        for a, b in zip(n.children, n.children[1:]):
            if a.start >= b.start:
                problems.append(f"children of {n.label} not ordered by start")
            if a.end > b.start:
                problems.append(f"children of {n.label} overlap")
        if n.children:
            lo = min(c.start for c in n.children)
            hi = max(c.end for c in n.children)
            if (n.start, n.end) != (lo, hi):
                problems.append(f"hull mismatch on {n.label}")
    return problems


def retimed(t: ParseTree, shift: float, scale: float) -> ParseTree:
    """Every time t mapped to t * scale + shift."""

    def rebuild(node: TreeNode) -> TreeNode:
        span = OpenInterval(node.start * scale + shift, node.end * scale + shift)
        kids = tuple(rebuild(c) for c in node.children)
        return TreeNode(node.label, span, children=kids, word=node.word)

    return ParseTree(rebuild(t.root))


def mirrored(t: ParseTree) -> ParseTree:
    """Children reversed and time reflected: (s, e) becomes (-e, -s)."""

    def rebuild(node: TreeNode) -> TreeNode:
        span = OpenInterval(-node.end, -node.start)
        kids = tuple(rebuild(c) for c in reversed(node.children))
        return TreeNode(node.label, span, children=kids, word=node.word)

    return ParseTree(rebuild(t.root))
