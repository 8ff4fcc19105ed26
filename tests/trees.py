"""Tree builders shared by the test modules.

Valid trees are written as bracketed text and projected onto their word
times, so every node span comes from the library's own hull rule. The
transforms below rebuild a tree from its node view instead: they move
or reflect every span as given, which keeps valid trees valid.
"""

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
