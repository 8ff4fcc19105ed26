import numpy as np
import pytest

from structiou.errors import DataError
from structiou.intervals import OpenInterval, iou
from structiou.metric import struct_iou_corpus, struct_iou_sentence
from structiou.oracle import random_timed_tree
from structiou.treebank import ParseTree, TreeNode


def test_structure_error_calibration(gold_timed, pred_structure_error):
    score = struct_iou_sentence(pred_structure_error, gold_timed, "labeled")
    assert score.value == pytest.approx(0.75, abs=1e-9)
    assert (score.n1, score.n2) == (5, 3)
    assert score.objective == pytest.approx(3.0)


def test_boundary_error_value(gold_timed, pred_boundary_error):
    # perfect structure, jittered times: each same-label pair contributes
    # its interval overlap ratio
    expected = (
        iou(OpenInterval(2.56, 3.01), OpenInterval(2.51, 3.10))
        + iou(OpenInterval(2.56, 2.72), OpenInterval(2.51, 2.70))
        + iou(OpenInterval(2.72, 3.01), OpenInterval(2.70, 3.10))
    ) / 3.0
    score = struct_iou_sentence(pred_boundary_error, gold_timed, "labeled")
    assert score.value == pytest.approx(expected, abs=1e-12)


def test_identity(gold_timed):
    assert struct_iou_sentence(gold_timed, gold_timed, "labeled").value == 1.0


def test_literal_normalization(gold_timed):
    score = struct_iou_sentence(
        gold_timed, gold_timed, "labeled", literal_normalization=True
    )
    assert score.value == pytest.approx(0.5)


def test_single_node_degenerates_to_interval_iou():
    a = ParseTree(TreeNode("X", OpenInterval(0.0, 2.0), word="w"))
    b = ParseTree(TreeNode("X", OpenInterval(1.0, 3.0), word="w"))
    score = struct_iou_sentence(a, b, "labeled")
    assert score.value == iou(a.root.interval, b.root.interval)


def test_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t1 = random_timed_tree(rng, 10)
        t2 = random_timed_tree(rng, 10)
        ab = struct_iou_sentence(t1, t2, "unlabeled").value
        ba = struct_iou_sentence(t2, t1, "unlabeled").value
        assert ab == pytest.approx(ba, abs=1e-9)


def test_shift_and_scale_invariance():
    rng = np.random.default_rng(9)

    def transform(tree, mul, add):
        def rebuild(node):
            kids = tuple(rebuild(c) for c in node.children)
            return TreeNode(
                node.label,
                OpenInterval(node.start * mul + add, node.end * mul + add),
                children=kids,
                word=node.word,
            )

        return ParseTree(rebuild(tree.root))

    for _ in range(20):
        t1 = random_timed_tree(rng, 9)
        t2 = random_timed_tree(rng, 9)
        base = struct_iou_sentence(t1, t2, "unlabeled").value
        mul = float(rng.uniform(0.1, 5.0))
        add = float(rng.uniform(-20, 20))
        moved = struct_iou_sentence(
            transform(t1, mul, add), transform(t2, mul, add), "unlabeled"
        ).value
        assert moved == pytest.approx(base, abs=1e-9)


class TestCorpus:
    def test_single_pair_equals_sentence(self, gold_timed, pred_structure_error):
        corpus = struct_iou_corpus([(pred_structure_error, gold_timed)], "labeled")
        assert corpus.value == pytest.approx(0.75)
        assert corpus.sentence_mean == pytest.approx(0.75)

    def test_weighted_mean(self):
        small_a = ParseTree(
            TreeNode(
                "A",
                OpenInterval(0, 2),
                children=(
                    TreeNode("B", OpenInterval(0, 1), word="x"),
                    TreeNode("C", OpenInterval(1, 2), word="y"),
                ),
            )
        )
        # value 1.0 with weight 3+3; disjoint leaves give 0 objective
        zero_a = ParseTree(TreeNode("Z", OpenInterval(0, 1), word="x"))
        zero_b = ParseTree(TreeNode("Z", OpenInterval(5, 6), word="x"))
        corpus = struct_iou_corpus(
            [(small_a, small_a), (zero_a, zero_b)], "labeled"
        )
        # (6 * 1.0 + 2 * 0.0) / 8
        assert corpus.value == pytest.approx(0.75)
        assert corpus.sentence_mean == pytest.approx(0.5)

    def test_stated_weighting_arithmetic(self):
        # two pairs, values 1.0 (weight 2+2) and 0.5 (weight 6+6):
        # (4 * 1.0 + 12 * 0.5) / 16 = 0.625
        from structiou.metric import CorpusScore, SentenceScore

        scores = (
            SentenceScore(value=1.0, objective=2.0, n1=2, n2=2),
            SentenceScore(value=0.5, objective=3.0, n1=6, n2=6),
        )
        total = sum(s.n1 + s.n2 for s in scores)
        value = sum((s.n1 + s.n2) * s.value for s in scores) / total
        corpus = CorpusScore(value=value, per_sentence=scores)
        assert corpus.value == pytest.approx(0.625)
        assert corpus.sentence_mean == pytest.approx(0.75)

    def test_self_corpus(self):
        rng = np.random.default_rng(21)
        pairs = [(t, t) for t in (random_timed_tree(rng, 8) for _ in range(5))]
        corpus = struct_iou_corpus(pairs, "unlabeled")
        assert corpus.value == pytest.approx(1.0)

    def test_bounds(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            pairs = [
                (random_timed_tree(rng, 8), random_timed_tree(rng, 8))
                for _ in range(4)
            ]
            corpus = struct_iou_corpus(pairs, "unlabeled")
            values = [s.value for s in corpus.per_sentence]
            assert min(values) - 1e-12 <= corpus.value <= max(values) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            struct_iou_corpus([], "labeled")

    def test_generator_of_pairs(self, gold_timed, pred_structure_error):
        pairs = [(pred_structure_error, gold_timed), (gold_timed, gold_timed)]
        streamed = struct_iou_corpus((pair for pair in pairs), "labeled")
        assert streamed == struct_iou_corpus(pairs, "labeled")
        assert len(streamed.per_sentence) == 2

    def test_empty_generator_rejected(self):
        with pytest.raises(DataError, match="^empty corpus$"):
            struct_iou_corpus((pair for pair in []), "labeled")
