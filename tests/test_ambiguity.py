import collections

import numpy as np
import pytest

from structiou.ambiguity import (
    ambiguity_report,
    enumerate_plausible,
    random_binary_tree,
    strip_single_word_phrases,
)
from structiou.errors import UsageError
from structiou.metric import struct_iou_sentence
from structiou.treebank import (
    ParseTree,
    leaves,
    parse_bracketed,
    serialize_bracketed,
    validate,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]

# sha256 of the generators' trees (see the ``tree_digest`` fixture),
# recorded while they still built their trees from nodes; the arrays and
# the draws must not change with how the tree is built.
GOLDEN_PLAUSIBLE_SHA256 = {
    1: "910a4126364d1efae6facf9d67715638ec7d62e56557dd0bf550eaeb4d98f23e",
    2: "840baccfb64ae618c383e2e36928781e665c13836df8330378ec5ebafb16d0e3",
    3: "38c5b2010bb67244717dc02ae06f67b0deee9ca070a86355d0fc0356570ac4c7",
    4: "f39963e7a358981f976f22b11c3245dc681abdb15f5ced6c23085878d8e9a7c2",
    5: "c71db41b4aebbdaff41b62bf5ab11e6bc675dd2e7e0c7407029502593bb46d53",
    6: "d10c531ae3d42b962153273283ae0d6ab02ac4513bf835a6a11b2cc9f29b6b39",
}
# five trees per word count, drawn from default_rng(word count)
GOLDEN_BINARY_SHA256 = {
    1: "da50a35600f16eb22983425f03a775a2dae705c4f47c1d1ef5e8ffbf416297b4",
    2: "3d49617483264c1dc660c3cbe0ee1c3fe69b9d9264933ce6128647e696449bc8",
    17: "c35b1bf6e14ef7b5b1fc1aaecf30b958e48dd63f97c9a0f39620f31e052710de",
    100: "000d93a65ae35e277079caff50cd063361bfebf78bde39cf8f00bf23ea25f71b",
}


class TestEnumeratePlausible:
    def test_counts_follow_catalan(self):
        for n in range(1, 7):
            assert len(enumerate_plausible(n)) == CATALAN[n]

    def test_n1_single_tree(self):
        (tree,) = enumerate_plausible(1)
        assert serialize_bracketed(tree) == (
            "(NP (NP (N N)) (PP (P P) (NP (N N))))"
        )

    def test_n2_matches_known_pair(self, attachment_pair):
        right, left = attachment_pair
        fam = enumerate_plausible(2)
        got = {serialize_bracketed(t) for t in fam}
        assert got == {serialize_bracketed(right), serialize_bracketed(left)}
        # enumeration is deterministic with the right-branching parse first
        assert serialize_bracketed(fam[0]) == serialize_bracketed(right)

    def test_trees_valid_and_on_template(self):
        for n in (1, 2, 3, 4):
            for tree in enumerate_plausible(n):
                assert validate(tree) == []
                words = [l.word for l in leaves(tree.root)]
                assert words == ["N"] + ["P", "N"] * n

    @pytest.mark.parametrize("n", list(GOLDEN_PLAUSIBLE_SHA256))
    def test_golden(self, n, tree_digest):
        assert tree_digest(enumerate_plausible(n)) == GOLDEN_PLAUSIBLE_SHA256[n]

    def test_range_checked(self):
        with pytest.raises(UsageError):
            enumerate_plausible(0)
        with pytest.raises(UsageError):
            enumerate_plausible(11)


class TestRandomBinaryTree:
    def test_single_word(self):
        tree = random_binary_tree(1, np.random.default_rng(0))
        assert tree.node_count == 1 and tree.root.is_leaf

    def test_two_words(self):
        tree = random_binary_tree(2, np.random.default_rng(0))
        assert tree.node_count == 3

    def test_three_word_shapes_uniform(self):
        rng = np.random.default_rng(123)
        counts = collections.Counter()
        for _ in range(10_000):
            tree = random_binary_tree(3, rng)
            left_child = tree.root.children[0]
            counts["left" if not left_child.is_leaf else "right"] += 1
        assert abs(counts["left"] / 10_000 - 0.5) < 0.02

    @pytest.mark.parametrize("words", list(GOLDEN_BINARY_SHA256))
    def test_golden(self, words, tree_digest):
        rng = np.random.default_rng(words)
        trees = [random_binary_tree(words, rng) for _ in range(5)]
        assert tree_digest(trees, rng) == GOLDEN_BINARY_SHA256[words]

    def test_binary_and_valid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = int(rng.integers(1, 12))
            tree = random_binary_tree(w, rng)
            assert tree.node_count == 2 * w - 1
            assert validate(tree) == []


def test_strip_single_word_phrases(attachment_pair):
    right, _ = attachment_pair
    stripped = strip_single_word_phrases(right)
    assert stripped.node_count == right.node_count - 3  # three unary wraps
    assert serialize_bracketed(stripped) == (
        "(NP (N N) (PP (P P) (NP (N N) (PP (P P) (N N)))))"
    )


@pytest.mark.parametrize("text, expected", [
    ("(S (A (B (X a))) (C (D b) (E (F c))))", "(S (X a) (C (D b) (F c)))"),
    ("(A (B (X a)))", "(X a)"),
    ("(S (X a) (Y b))", "(S (X a) (Y b))"),
])
def test_strip_nested_unary_chains(text, expected):
    stripped = strip_single_word_phrases(parse_bracketed(text))
    assert serialize_bracketed(stripped) == expected
    assert validate(stripped) == []
    walked = ParseTree(stripped.root)  # arrays derived again from the view
    assert stripped.first.tolist() == walked.first.tolist()
    assert stripped.starts.tolist() == walked.starts.tolist()


class TestReport:
    def test_pairwise_values_are_discrete(self, attachment_pair):
        # matching every word and every shared bracket is always feasible,
        # so words + shared brackets (5 + 2 here) is a floor on the
        # objective; for this n = 2 pair the solver scores exactly that,
        # while at larger n it may score more by trading word pairs for
        # partial overlaps
        right, left = attachment_pair
        a = strip_single_word_phrases(right)
        b = strip_single_word_phrases(left)
        score = struct_iou_sentence(a, b, "unlabeled")
        assert score.objective == pytest.approx(7.0, abs=1e-9)
        assert score.value == pytest.approx(2 * 7 / 18, abs=1e-9)

    def test_n2_report_cells(self):
        rep = ambiguity_report(2, samples=20, seed=0)
        assert rep.gt_index == 0
        assert rep.parseval_plausible_lowest == pytest.approx(50.0)
        assert rep.struct_iou_plausible_lowest == pytest.approx(
            100 * 14 / 18, abs=1e-6
        )

    def test_single_parse_family_flagged(self):
        rep = ambiguity_report(1, samples=5, seed=0)
        assert np.isnan(rep.parseval_plausible_lowest)
        assert np.isnan(rep.struct_iou_plausible_lowest)

    def test_struct_iou_lowest_dominates_parseval(self):
        for n in (2, 3, 4, 5):
            rep = ambiguity_report(n, samples=30, seed=11)
            assert rep.struct_iou_plausible_lowest >= rep.parseval_plausible_lowest

    def test_default_gt_index(self):
        assert ambiguity_report(2, samples=1, seed=0).gt_index == 0
        assert ambiguity_report(8, samples=1, seed=0).gt_index == 150

    def test_gt_index_override(self):
        a = ambiguity_report(3, samples=10, seed=1, gt_index=0)
        b = ambiguity_report(3, samples=10, seed=1, gt_index=4)
        assert a.gt_index == 0 and b.gt_index == 4

    def test_bad_inputs(self):
        with pytest.raises(UsageError):
            ambiguity_report(3, samples=0, seed=1)
        with pytest.raises(UsageError):
            ambiguity_report(3, samples=5, seed=1, gt_index=99)

    def test_reproducible(self):
        a = ambiguity_report(3, samples=25, seed=5)
        b = ambiguity_report(3, samples=25, seed=5)
        assert a == b
