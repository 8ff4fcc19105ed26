import numpy as np
import pytest

from structiou.metric import struct_iou_sentence
from structiou.perturb import (
    PerturbSpec,
    apply_perturbation,
    perturb_delete,
    perturb_insert,
    perturb_noise,
    sentence_rng,
)
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    leaves,
    parse_bracketed,
    project_to_time,
    serialize_bracketed,
    validate,
)


def table(*rows):
    return BoundaryTable(tuple(BoundaryRow(w, s, e) for w, s, e in rows))


class TestNoise:
    def test_delta_zero_identity(self):
        t = table(("a", 0, 1), ("b", 1, 2))
        assert perturb_noise(t, 0.0, sentence_rng(0, 0)) is t

    def test_single_word_unchanged(self):
        t = table(("a", 0, 1),)
        out = perturb_noise(t, 1.0, sentence_rng(0, 0))
        assert [(r.start, r.end) for r in out.rows] == [(0, 1)]

    def test_positive_draw_moves_toward_right_neighbor(self):
        t = table(("a", 0, 1), ("b", 1, 2))

        class Stub:
            def uniform(self, lo, hi):
                return 0.5

        out = perturb_noise(t, 1.0, Stub())
        assert out.rows[0].end == pytest.approx(1.5)
        assert out.rows[1].start == pytest.approx(1.5)

    def test_negative_draw_moves_toward_left_neighbor(self):
        t = table(("a", 0, 1), ("b", 1, 2))

        class Stub:
            def uniform(self, lo, hi):
                return -0.5

        out = perturb_noise(t, 1.0, Stub())
        assert out.rows[0].end == pytest.approx(0.5)

    def test_gap_free_ordered_and_bounded(self):
        rng = np.random.default_rng(5)
        t = table(("a", 0, 0.4), ("b", 0.4, 1.3), ("c", 1.3, 2.0), ("d", 2.0, 3.1))
        for delta in (0.1, 0.5, 1.0):
            out = perturb_noise(t, delta, rng)
            assert out.is_gap_free()
            assert out.rows[0].start == 0
            assert out.rows[-1].end == 3.1
            for row in out.rows:
                assert row.end - row.start > 0

    def test_reproducible(self):
        t = table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3))
        a = perturb_noise(t, 0.7, sentence_rng(42, 3))
        b = perturb_noise(t, 0.7, sentence_rng(42, 3))
        assert [(r.start, r.end) for r in a.rows] == [
            (r.start, r.end) for r in b.rows
        ]


class TestInsert:
    def test_delta_zero_identity(self):
        tree = project_to_time(
            parse_bracketed("(NP (A a) (B b))"), table(("a", 0, 1), ("b", 1, 2))
        )
        t = table(("a", 0, 1), ("b", 1, 2))
        out_tree, out_table = perturb_insert(tree, t, 0.0, sentence_rng(0, 0))
        assert out_tree is tree and out_table is t

    def test_structural_split(self):
        tree = project_to_time(
            parse_bracketed("(NP (NN word))"), table(("word", 0, 1))
        )

        class Stub:
            def __init__(self):
                self.calls = 0

            def uniform(self, lo, hi, size=None):
                if size is not None:
                    return np.zeros(size)  # always trigger
                return lo + 0.4 * (hi - lo)

        out_tree, out_table = perturb_insert(tree, table(("word", 0, 1)), 0.5, Stub())
        kids = out_tree.root.children
        assert [k.label for k in kids] == ["NN", "NN"]
        assert (kids[0].start, kids[0].end) == (0.0, 0.4)
        assert (kids[1].start, kids[1].end) == (0.4, 1.0)
        assert out_tree.node_count == tree.node_count + 1
        assert len(out_table) == 2
        assert validate(out_tree) == []
        # parent interval unchanged
        assert (out_tree.root.start, out_tree.root.end) == (0.0, 1.0)

    def test_split_lowers_self_score(self):
        tree = project_to_time(
            parse_bracketed("(NP (A a) (B b))"), table(("a", 0, 1), ("b", 1, 2))
        )
        rng = sentence_rng(1, 0)
        out_tree, _ = perturb_insert(
            tree, table(("a", 0, 1), ("b", 1, 2)), 1.0, rng
        )
        assert out_tree.node_count > tree.node_count
        score = struct_iou_sentence(out_tree, tree, "labeled")
        assert score.value < 1.0

    def test_node_count_tracks_splits(self):
        rng = np.random.default_rng(8)
        tree = project_to_time(
            parse_bracketed("(S (A a) (B b) (C c) (D d))"),
            table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("d", 3, 4)),
        )
        t = table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("d", 3, 4))
        out_tree, out_table = perturb_insert(tree, t, 0.6, rng)
        splits = len(out_table) - len(t)
        assert out_tree.node_count == tree.node_count + splits
        assert validate(out_tree) == []


class TestDelete:
    def test_delta_zero_identity(self):
        tree = project_to_time(
            parse_bracketed("(NP (A a) (B b))"), table(("a", 0, 1), ("b", 1, 2))
        )
        t = table(("a", 0, 1), ("b", 1, 2))
        out_tree, out_table = perturb_delete(tree, t, 0.0, sentence_rng(0, 0))
        assert out_tree is tree and out_table is t

    def test_sibling_merge(self):
        tree = project_to_time(
            parse_bracketed("(A (B x) (C y))"), table(("x", 0, 1), ("y", 1, 2))
        )

        class Stub:
            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

        out_tree, out_table = perturb_delete(
            tree, table(("x", 0, 1), ("y", 1, 2)), 0.5, Stub()
        )
        assert serialize_bracketed(out_tree) == "(A (B xy))"
        assert (out_tree.root.children[0].start, out_tree.root.children[0].end) == (
            0.0,
            2.0,
        )
        assert [r.word for r in out_table.rows] == ["xy"]
        assert validate(out_tree) == []

    def test_merge_across_subtrees_prunes(self):
        tree = project_to_time(
            parse_bracketed("(A (B x) (C (D y) (E z)))"),
            table(("x", 0, 1), ("y", 1, 2), ("z", 2, 3)),
        )

        class Stub:
            def uniform(self, lo, hi, size=None):
                return np.array([0.0, 1.0])  # delete first boundary only

        out_tree, out_table = perturb_delete(
            tree, table(("x", 0, 1), ("y", 1, 2), ("z", 2, 3)), 0.5, Stub()
        )
        assert serialize_bracketed(out_tree) == "(A (B xy) (C (E z)))"
        assert validate(out_tree) == []
        assert [r.word for r in out_table.rows] == ["xy", "z"]

    def test_merge_below_root(self):
        # y and z meet under C, not under the root
        tree = project_to_time(
            parse_bracketed("(A (B x) (C (D y) (E z)))"),
            table(("x", 0, 1), ("y", 1, 2), ("z", 2, 3)),
        )

        class Stub:
            def uniform(self, lo, hi, size=None):
                return np.array([1.0, 0.0])  # delete the y|z boundary only

        out_tree, out_table = perturb_delete(
            tree, table(("x", 0, 1), ("y", 1, 2), ("z", 2, 3)), 0.5, Stub()
        )
        assert serialize_bracketed(out_tree) == "(A (B x) (C (D yz)))"
        assert (out_tree.root.children[1].start, out_tree.root.children[1].end) == (
            1.0,
            3.0,
        )
        assert validate(out_tree) == []
        assert [r.word for r in out_table.rows] == ["x", "yz"]

    def test_all_boundaries_deleted(self):
        tree = project_to_time(
            parse_bracketed("(S (A a) (B b) (C c))"),
            table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3)),
        )

        class Stub:
            def uniform(self, lo, hi, size=None):
                return np.zeros(size)

        out_tree, out_table = perturb_delete(
            tree, table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3)), 1.0, Stub()
        )
        assert len(out_table) == 1
        assert out_table.rows[0].word == "abc"
        assert len(leaves(out_tree.root)) == 1
        assert validate(out_tree) == []

    def test_validity_random(self):
        rng = np.random.default_rng(17)
        words = ["w%d" % i for i in range(8)]
        text = "(S " + " ".join(f"(X{i} {w})" for i, w in enumerate(words)) + ")"
        nested = "(S (A (X0 w0) (X1 w1)) (B (C (X2 w2) (X3 w3)) (X4 w4)))"
        for src, n in ((text, 8), (nested, 5)):
            base_table = table(*[(f"w{i}", i, i + 1) for i in range(n)])
            tree = project_to_time(parse_bracketed(src), base_table)
            for trial in range(40):
                out_tree, out_table = perturb_delete(
                    tree, base_table, 0.5, sentence_rng(trial, 0)
                )
                assert validate(out_tree) == []
                assert len(leaves(out_tree.root)) == len(out_table.rows)


def test_spec_validation():
    with pytest.raises(Exception):
        PerturbSpec("bogus", 0.5, 0)
    with pytest.raises(Exception):
        PerturbSpec("noise", 1.5, 0)


def test_apply_reproducible_per_sentence():
    tree = project_to_time(
        parse_bracketed("(S (A a) (B b) (C c))"),
        table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3)),
    )
    spec = PerturbSpec("delete", 0.6, seed=9)
    t = table(("a", 0, 1), ("b", 1, 2), ("c", 2, 3))
    out1 = apply_perturbation(tree, t, spec, sentence_rng(spec.seed, 0, 4))
    out2 = apply_perturbation(tree, t, spec, sentence_rng(spec.seed, 0, 4))
    assert serialize_bracketed(out1[0]) == serialize_bracketed(out2[0])
    assert [(r.word, r.start, r.end) for r in out1[1].rows] == [
        (r.word, r.start, r.end) for r in out2[1].rows
    ]


def test_noise_preserves_node_count_and_span():
    rng = np.random.default_rng(55)
    src = "(S (A (X0 a) (X1 b)) (B (X2 c) (X3 d)))"
    base = table(("a", 0, 0.5), ("b", 0.5, 1.7), ("c", 1.7, 2.0), ("d", 2.0, 4.0))
    tree = project_to_time(parse_bracketed(src), base)
    for delta in (0.2, 0.9):
        out_table = perturb_noise(base, delta, rng)
        out_tree = project_to_time(parse_bracketed(src), out_table)
        assert out_tree.node_count == tree.node_count
        assert out_tree.root.start == tree.root.start
        assert out_tree.root.end == tree.root.end
        assert validate(out_tree) == []


@pytest.mark.parametrize("perturb", [perturb_insert, perturb_delete])
def test_deep_chain_gives_valid_tree(perturb):
    words = 1200  # deeper than Python's recursion limit
    text = "".join(f"(X (W w{k}) " for k in range(words - 1))
    text += f"(W w{words - 1})" + ")" * (words - 1)
    rows = table(*[(f"w{k}", float(k), k + 1.0) for k in range(words)])
    chain = project_to_time(parse_bracketed(text), rows)
    out_tree, out_table = perturb(chain, rows, 0.3, sentence_rng(2, 0))
    assert validate(out_tree) == []
    assert len(out_tree.words) == len(out_table.rows) != words
    assert out_tree.starts[-1] == 0.0 and out_tree.ends[-1] == words
