import hashlib

import pytest

from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    parse_bracketed,
    project_to_time,
)
from trees import ancestors


@pytest.fixture
def gold_timed():
    """Two-word noun phrase over forced-alignment style times."""
    tree = parse_bracketed("(NP (PRP Your) (NN turn))")
    table = BoundaryTable(
        (BoundaryRow("Your", 2.56, 2.72), BoundaryRow("turn", 2.72, 3.01))
    )
    return project_to_time(tree, table)


@pytest.fixture
def pred_structure_error():
    """Same span parsed under a spurious extra verb phrase layer."""
    tree = parse_bracketed("(VP (VBP uh) (NP (PRP Your) (NN turn)))")
    table = BoundaryTable(
        (
            BoundaryRow("uh", 2.55, 2.56),
            BoundaryRow("Your", 2.56, 2.72),
            BoundaryRow("turn", 2.72, 3.01),
        )
    )
    return project_to_time(tree, table)


@pytest.fixture
def pred_boundary_error():
    """Correct structure over slightly wrong word times."""
    tree = parse_bracketed("(NP (PRP Your) (NN turn))")
    table = BoundaryTable(
        (BoundaryRow("Your", 2.51, 2.70), BoundaryRow("turn", 2.70, 3.10))
    )
    return project_to_time(tree, table)


@pytest.fixture
def attachment_pair():
    """The two parses of the doubly ambiguous noun-preposition template."""
    right = parse_bracketed(
        "(NP (NP (N N)) (PP (P P) (NP (NP (N N)) (PP (P P) (NP (N N))))))"
    )
    left = parse_bracketed(
        "(NP (NP (NP (N N)) (PP (P P) (NP (N N)))) (PP (P P) (NP (N N))))"
    )
    return right, left


def _tree_digest(trees, rng=None) -> str:
    """sha256 over each tree's labels, words and array bytes, its int64
    strict ancestor counts among them, then over the generator's state
    after the draws (when one is given)."""
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(repr((tree.labels, tree.words)).encode())
        for array in (tree.first, ancestors(tree), tree.starts, tree.ends):
            digest.update(array.dtype.str.encode() + array.tobytes())
    if rng is not None:
        digest.update(repr(rng.bit_generator.state).encode())
    return digest.hexdigest()


@pytest.fixture
def tree_digest():
    """The digest that pins a generator's trees and draws bit for bit."""
    return _tree_digest
