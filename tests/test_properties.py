"""Metric invariants as property tests over seeded random timed trees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structiou.align import PairSolver, max_weight_alignment
from structiou.intervals import OpenInterval
from structiou.metric import struct_iou_sentence
from structiou.oracle import alignment_problems, random_timed_tree, ted_objective
from structiou.perturb import (
    MODES,
    PerturbSpec,
    apply_perturbation,
    perturb_delete,
    perturb_insert,
    sentence_rng,
)
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
    iter_nodes,
    leaves,
    parse_bracketed,
    project_to_time,
    serialize_bracketed,
    validate,
)
from trees import mirrored, retimed, timed

MAX_NODES = 20

seeds = st.integers(0, 2**32 - 1)
modes = st.sampled_from(["labeled", "unlabeled"])
examples = settings(max_examples=60, deadline=None, database=None)


def tree(seed: int) -> ParseTree:
    return random_timed_tree(np.random.default_rng(seed), MAX_NODES)


def score(t1: ParseTree, t2: ParseTree, mode: str) -> float:
    return struct_iou_sentence(t1, t2, mode).value


def chain(words: int, right: bool, seed: int) -> ParseTree:
    """A chain whose internal nodes each have one leaf child, on the left
    (right-branching) or on the right, over random word times and labels."""
    rng = np.random.default_rng(seed)
    cuts = np.cumsum(rng.uniform(0.1, 1.0, words + 1)).tolist()
    labels = rng.choice(["A", "B"], 2 * words).tolist()
    kids = [f"({labels[k]} w{k})" for k in range(words)]
    text = kids.pop() if right else kids.pop(0)
    while kids:
        pair = (kids.pop(), text) if right else (text, kids.pop(0))
        text = f"({labels[words + len(kids)]} {pair[0]} {pair[1]})"
    return timed(text, cuts)


chains = st.builds(chain, st.integers(1, 14), st.booleans(), seeds)


@st.composite
def mixed_pairs(draw, trees):
    """A chain against one branching the other way or against one of
    ``trees``, in either order. In its chosen numbering a chain fills one
    keyroot segment; its other keyroots are single nodes, which get none."""
    right = draw(st.booleans())
    one = chain(draw(st.integers(1, 14)), right, draw(seeds))
    turned = st.builds(chain, st.integers(1, 14), st.just(not right), seeds)
    other = draw(st.one_of(turned, trees))
    return (one, other) if draw(st.booleans()) else (other, one)


@st.composite
def perturbed_pairs(draw, max_nodes):
    """A gap-free tree against its own insert, delete or noise
    perturbation, as ``corpus_eval`` scores them, in either order. Each
    mode moves where the lower paths start and how they nest."""
    t = random_timed_tree(np.random.default_rng(draw(seeds)), max_nodes, allow_gaps=False)
    leaf = t.first == np.arange(t.node_count)
    table = BoundaryTable(tuple(map(BoundaryRow, t.words, t.starts[leaf], t.ends[leaf])))
    spec = PerturbSpec(draw(st.sampled_from(MODES)), draw(st.floats(0.0, 1.0)), draw(seeds))
    other, _ = apply_perturbation(t, table, spec, sentence_rng(spec.seed))
    return (t, other) if draw(st.booleans()) else (other, t)


# a third of the examples each: independent, mixed and perturbed pairs
examples_mixed = settings(max_examples=180, deadline=None, database=None)


@examples
@given(seeds, seeds, modes)
def test_symmetric(s1, s2, mode):
    t1, t2 = tree(s1), tree(s2)
    assert score(t1, t2, mode) == pytest.approx(score(t2, t1, mode), abs=1e-12)


@examples
@given(seeds, modes)
def test_self_score_is_one(s, mode):
    t = tree(s)
    assert score(t, t, mode) == pytest.approx(1.0, abs=1e-12)


@examples
@given(seeds, seeds, modes)
def test_score_in_unit_interval(s1, s2, mode):
    assert 0.0 <= score(tree(s1), tree(s2), mode) <= 1.0


@examples
@given(
    seeds,
    seeds,
    modes,
    st.floats(-100.0, 100.0),
    st.floats(0.01, 100.0),
)
def test_time_shift_and_scale_invariant(s1, s2, mode, shift, scale):
    t1, t2 = tree(s1), tree(s2)
    moved = score(retimed(t1, shift, scale), retimed(t2, shift, scale), mode)
    assert moved == pytest.approx(score(t1, t2, mode), abs=1e-9)


small_pairs = st.tuples(seeds.map(tree), seeds.map(tree))


@examples_mixed
@given(
    st.one_of(small_pairs, mixed_pairs(seeds.map(tree)), perturbed_pairs(MAX_NODES)), modes
)
def test_alignment_feasible_and_sums_to_objective(pair, mode):
    t1, t2 = pair
    out = max_weight_alignment(t1, t2, mode)
    assert alignment_problems(t1, t2, out, mode) == []


@examples
@given(st.one_of(seeds.map(tree), chains), st.one_of(seeds.map(tree), chains), modes)
def test_score_unchanged_when_both_trees_mirrored(t1, t2, mode):
    expected = score(t1, t2, mode)
    assert score(mirrored(t1), mirrored(t2), mode) == pytest.approx(expected, abs=1e-12)


# Zhang-Shasha tree edit distance is an independent polynomial reference
# for trees too big for branch and bound.
big_random = seeds.map(lambda s: random_timed_tree(np.random.default_rng(s), 40))
big_trees = st.one_of(big_random, chains)


@examples_mixed
@given(
    st.one_of(
        st.tuples(big_trees, big_trees), mixed_pairs(big_random), perturbed_pairs(40)
    ),
    modes,
)
def test_objective_equals_ted(pair, mode):
    t1, t2 = pair
    expected = ted_objective(t1, t2, mode)
    assert PairSolver(t1, t2, mode).objective == pytest.approx(expected, abs=1e-9)


def corrupted(seed: int) -> ParseTree:
    """A random tree with one end of some intervals moved to another of
    its time points, and some children reversed; often invalid, often not."""
    rng = np.random.default_rng(seed)
    t = random_timed_tree(rng, MAX_NODES)
    points = np.unique(np.concatenate([t.starts, t.ends])).tolist()

    def rebuild(node: TreeNode) -> TreeNode:
        s, e = node.start, node.end
        if rng.random() < 0.2:
            p = points[int(rng.integers(len(points)))]
            s, e = (s, p) if p > s else (p, e)
        span = OpenInterval(s, e)
        kids = tuple(rebuild(c) for c in node.children)
        if rng.random() < 0.1:
            kids = kids[::-1]
        return TreeNode(node.label, span, children=kids, word=node.word)

    return ParseTree(rebuild(t.root))


@settings(max_examples=400, deadline=None, database=None)
@given(seeds)
def test_valid_tree_overlaps_exactly_along_ancestry(s):
    # validate's per-node rules imply this; it checks no node pairs itself
    t = corrupted(s)
    if validate(t):
        return
    n = np.arange(t.node_count)
    below = (t.first[:, None] <= n) & (n < n[:, None])  # [i, j]: j under i
    overlap = np.minimum.outer(t.ends, t.ends) - np.maximum.outer(t.starts, t.starts) > 0
    assert ((below | below.T) == (overlap & (n[:, None] != n))).all()


# Two routes to the same tree: a walk over a root, and parsing its text
# then projecting onto its leaves' times.
ARRAYS = ("labels", "first", "depth", "starts", "ends", "words")


def gap_free_tree(seed: int) -> ParseTree:
    return random_timed_tree(np.random.default_rng(seed), MAX_NODES, allow_gaps=False)


def reparsed(t: ParseTree) -> ParseTree:
    table = BoundaryTable(
        tuple(BoundaryRow(leaf.word, leaf.start, leaf.end) for leaf in leaves(t.root))
    )
    return project_to_time(parse_bracketed(serialize_bracketed(t)), table)


def assert_same_arrays(a: ParseTree, b: ParseTree) -> None:
    for name in ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert not x.flags.writeable and not y.flags.writeable
        else:
            assert x == y


@examples
@given(seeds)
def test_walked_and_parsed_arrays_equal(s):
    t = gap_free_tree(s)
    built = reparsed(t)
    assert_same_arrays(ParseTree(t.root), built)
    assert validate(built) == []
    viewed = ParseTree(built.root)
    assert_same_arrays(viewed, built)
    assert serialize_bracketed(viewed) == serialize_bracketed(t)


@examples
@given(seeds, seeds, modes)
def test_alignment_returns_view_nodes(s1, s2, mode):
    t1 = reparsed(gap_free_tree(s1))
    ids1 = {id(n) for n in iter_nodes(t1.root)}
    # a random tree, and an array-built copy of t1 that matches every node
    for t2 in (tree(s2), reparsed(gap_free_tree(s1))):
        out = max_weight_alignment(t1, t2, mode)
        ids2 = {id(n) for n in iter_nodes(t2.root)}
        assert all(id(p) in ids1 and id(q) in ids2 for p, q in out.pairs)
    assert len(out.pairs) == t1.node_count


# Insert and delete build the perturbed tree's arrays straight from the
# input's; the node view and validate() check them independently.
perturbations = st.sampled_from([perturb_insert, perturb_delete])


@examples
@given(seeds, st.floats(0.0, 1.0), seeds, perturbations)
def test_insert_and_delete_give_valid_trees_over_their_rows(s, delta, r, perturb):
    t = gap_free_tree(s)
    # row words differ from tree words, as they may in a corpus
    table = BoundaryTable(tuple(
        BoundaryRow(leaf.word.upper(), leaf.start, leaf.end) for leaf in leaves(t.root)
    ))
    t = project_to_time(t, table)
    out, out_table = perturb(t, table, delta, sentence_rng(r))
    assert validate(out) == []
    leaf = out.first == np.arange(out.node_count)
    assert len(out.words) == len(out_table.rows) == leaf.sum()
    assert out.starts[leaf].tolist() == [row.start for row in out_table.rows]
    assert out.ends[leaf].tolist() == [row.end for row in out_table.rows]
    assert out_table.is_gap_free()
    if perturb is perturb_delete:
        assert "".join(out.words) == "".join(t.words)
        assert "".join(row.word for row in out_table.rows) == "".join(
            row.word for row in table.rows
        )
