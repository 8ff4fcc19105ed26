import io

import numpy as np
import pytest

from structiou.errors import DataError, TreeSyntaxError
from structiou.metric import struct_iou_sentence
from structiou.oracle import random_timed_tree
from structiou.treebank import (
    MAX_SPAN,
    BoundaryRow,
    BoundaryTable,
    compact_silence,
    iter_nodes,
    leaves,
    parse_bracketed,
    project_to_time,
    read_boundary_file,
    read_tree_file,
    serialize_bracketed,
    validate,
    write_boundary_file,
)


# input -> (message, offset of the token it names)
SYNTAX_ERRORS = {
    "": ("empty input", 0),
    "(NP (PRP Your)": ("unbalanced parentheses", 0),
    "(NP)": ("empty constituent", 0),
    "()": ("constituent without a label", 1),
    "(NN a b)": ("preterminal with multiple word tokens", 7),
    "(NP (PRP Your) (NN turn)) junk": ("trailing content after tree", 26),
    "(NP word (NN turn))": ("constituent mixes words and subconstituents", 18),
}
NESTED_SYNTAX_ERRORS = {
    "w": ("expected '(' but found 'w'", 0),
    ")": ("expected '(' but found ')'", 0),
    "(": ("unbalanced parentheses", 0),
    "(X (": ("unbalanced parentheses", 3),
    "(X (Y a) (Z": ("unbalanced parentheses", 9),
    "(X a))": ("trailing content after tree", 5),
    "(X a) (Y b)": ("trailing content after tree", 6),
    "(X (Y a) b)": ("constituent mixes words and subconstituents", 10),
    "(X ())": ("constituent without a label", 4),
    "(X (Y))": ("empty constituent", 3),
    "(X (Y a b c))": ("preterminal with multiple word tokens", 11),
}


def spans(tree):
    return {(n.label, n.start, n.end) for n in iter_nodes(tree.root)}


class TestParseBracketed:
    def test_two_word_phrase(self):
        tree = parse_bracketed("(NP (PRP Your) (NN turn))")
        assert tree.node_count == 3
        assert spans(tree) == {
            ("NP", 0.0, 2.0),
            ("PRP", 0.0, 1.0),
            ("NN", 1.0, 2.0),
        }

    def test_unary_chain_shares_interval(self):
        tree = parse_bracketed("(X (Y a))")
        assert tree.node_count == 2
        assert spans(tree) == {("X", 0.0, 1.0), ("Y", 0.0, 1.0)}

    def test_three_leaf_shape(self):
        tree = parse_bracketed("(A (B x) (C (D y) (E z)))")
        assert tree.node_count == 5
        labels = [n.label for n in iter_nodes(tree.root)]
        assert labels == ["A", "B", "C", "D", "E"]

    @pytest.mark.parametrize("bad", list(SYNTAX_ERRORS))
    def test_syntax_errors(self, bad):
        message, offset = SYNTAX_ERRORS[bad]
        with pytest.raises(TreeSyntaxError) as exc:
            parse_bracketed(bad)
        assert str(exc.value) == f"{message} (at character {offset})"
        assert exc.value.offset == offset

    @pytest.mark.parametrize("bad", list(NESTED_SYNTAX_ERRORS))
    def test_nested_syntax_errors(self, bad):
        """Errors inside and after nested constituents keep their offsets."""
        message, offset = NESTED_SYNTAX_ERRORS[bad]
        with pytest.raises(TreeSyntaxError) as exc:
            parse_bracketed(bad)
        assert str(exc.value) == f"{message} (at character {offset})"
        assert exc.value.offset == offset

    def test_error_carries_offset(self):
        with pytest.raises(TreeSyntaxError) as exc:
            parse_bracketed("(NP (NN a b))")
        assert exc.value.offset == 11


    def test_unicode_whitespace_separates_tokens(self):
        # str.isspace() characters, as the tokenizer's \s matches them
        tree = parse_bracketed("(X\u00a0(Y\x1ca)\u2003(Z\u3000b))")
        assert serialize_bracketed(tree) == "(X (Y a) (Z b))"
        with pytest.raises(TreeSyntaxError) as exc:
            parse_bracketed("(X\u00a0(Y\u2003a\x1cb))")
        assert exc.value.offset == 9


class TestSerialize:
    def test_round_trip(self):
        s = "(NP (PRP Your) (NN turn))"
        assert serialize_bracketed(parse_bracketed(s)) == s

    def test_whitespace_normalized(self):
        messy = "( NP   (PRP Your)\t(NN turn) )"
        assert (
            serialize_bracketed(parse_bracketed(messy))
            == "(NP (PRP Your) (NN turn))"
        )

    def test_single_node(self):
        assert serialize_bracketed(parse_bracketed("(X w)")) == "(X w)"

    def test_random_round_trips(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tree = random_timed_tree(rng, 12)
            text = serialize_bracketed(tree)
            assert serialize_bracketed(parse_bracketed(text)) == text


def test_read_tree_file_skips_comments_and_blanks():
    src = io.StringIO("# header\n(X a)\n\n(Y b)\n")
    trees = read_tree_file(src)
    assert [t.root.label for t in trees] == ["X", "Y"]


def test_read_tree_file_reports_line():
    src = io.StringIO("(X a)\n(broken\n")
    with pytest.raises(DataError, match="line 2"):
        read_tree_file(src)


class TestBoundaryFile:
    def test_two_blocks(self):
        src = io.StringIO(
            "Your\t2.56\t2.72\nturn\t2.72\t3.01\n\nhi\t0\t1\n"
        )
        tables = read_boundary_file(src)
        assert [len(t.rows) for t in tables] == [2, 1]
        assert tables[0].rows[0].word == "Your"
        assert tables[0].is_gap_free()

    def test_empty_stream(self):
        assert read_boundary_file(io.StringIO("")) == []

    def test_reversed_times(self):
        with pytest.raises(DataError, match="start >= end at line 1"):
            read_boundary_file(io.StringIO("a\t1.0\t0.5\n"))

    def test_non_numeric(self):
        with pytest.raises(DataError, match="line 1"):
            read_boundary_file(io.StringIO("a\tx\t0.5\n"))

    @pytest.mark.parametrize(
        "text, line",
        [
            # a final end at inf once made eval print nan scores
            ("a\t0\t1\nb\t1\tinf\n", 2),
            ("a\tnan\t1\n", 1),
            ("a\t-inf\t1\n", 1),
            ("a\t0\tnan\n", 1),
            # shorter than intervals.MIN_LENGTH
            ("a\t0\t1\n\nb\t1\t1.0000000001\n", 3),
        ],
        ids=["inf-end", "nan-start", "minus-inf-start", "nan-end", "too-short"],
    )
    def test_unusable_times(self, text, line):
        with pytest.raises(DataError, match=f"^line {line}: "):
            read_boundary_file(io.StringIO(text))

    @pytest.mark.parametrize("row", ["a\t0", "a 0\t1", "a\t0\t1\tb"])
    def test_row_without_three_fields(self, row):
        src = io.StringIO(f"x\t0\t0.5\n{row}\n")
        with pytest.raises(DataError) as info:
            read_boundary_file(src)
        assert str(info.value) == (
            f"line 2: expected 'word<TAB>start<TAB>end', got {row!r}"
        )

    def test_overlap(self):
        src = io.StringIO("a\t0\t1.5\nb\t1.0\t2\n")
        with pytest.raises(DataError) as info:
            read_boundary_file(src)
        assert str(info.value) == (
            "overlapping rows 0 and 1 in block starting at line 1"
        )

    def test_first_fault_in_line_order(self):
        # the overlap on lines 1-2 comes before line 3's bad field
        src = io.StringIO("a\t0\t1.5\nb\t1.0\t2\nc\tx\t3\n")
        with pytest.raises(DataError) as info:
            read_boundary_file(src)
        assert str(info.value) == (
            "overlapping rows 0 and 1 in block starting at line 1"
        )

    def test_empty_block_between_content(self):
        src = io.StringIO("a\t0\t1\n\n\n\nb\t1\t2\n")
        with pytest.raises(DataError, match="empty block"):
            read_boundary_file(src)

    @pytest.mark.parametrize(
        "text", ["a\t0\t1\n\n", "a\t0\t1\n\n\n", "a\t0\t1\n\n  \n"],
        ids=["one", "two", "whitespace"],
    )
    def test_trailing_blanks_tolerated(self, text):
        assert len(read_boundary_file(io.StringIO(text))) == 1

    def test_numpy_times_round_trip(self):
        # numpy 2 scalars repr as np.float64(...), which reads back as text
        cut = np.float64(0.1) + np.float64(0.2)
        table = BoundaryTable((
            BoundaryRow("a", np.float64(0.0), cut),
            BoundaryRow("b", cut, np.float64(2.5)),
        ))
        out = io.StringIO()
        write_boundary_file([table, table], out)
        assert "np." not in out.getvalue()
        back = read_boundary_file(io.StringIO(out.getvalue()))
        assert [[(r.word, r.start, r.end) for r in t.rows] for t in back] == (
            2 * [[("a", 0.0, 0.30000000000000004), ("b", 0.30000000000000004, 2.5)]]
        )


class TestCompactSilence:
    def test_no_gaps_unchanged(self):
        t = BoundaryTable((BoundaryRow("a", 0, 1), BoundaryRow("b", 1, 2)))
        out = compact_silence(t)
        assert [(r.start, r.end) for r in out.rows] == [(0, 1), (1, 2)]

    def test_single_gap(self):
        t = BoundaryTable((BoundaryRow("a", 0, 1), BoundaryRow("b", 2, 3)))
        out = compact_silence(t)
        assert [(r.start, r.end) for r in out.rows] == [(0, 1), (1, 2)]

    def test_cumulative_shift_preserves_durations(self):
        t = BoundaryTable(
            (
                BoundaryRow("a", 0.5, 1.0),
                BoundaryRow("b", 1.5, 2.0),
                BoundaryRow("c", 2.1, 3.0),
            )
        )
        out = compact_silence(t)
        got = [(r.start, r.end) for r in out.rows]
        assert got[0] == (0.5, 1.0)
        assert got[1] == (1.0, 1.5)
        assert got[2][0] == 1.5
        assert got[2][1] == pytest.approx(2.4)
        for before, after in zip(t.rows, out.rows):
            assert after.end - after.start == pytest.approx(
                before.end - before.start
            )
        assert out.is_gap_free()


class TestProjection:
    def test_forced_alignment_times(self, gold_timed):
        assert spans(gold_timed) == {
            ("NP", 2.56, 3.01),
            ("PRP", 2.56, 2.72),
            ("NN", 2.72, 3.01),
        }

    def test_single_word(self):
        tree = parse_bracketed("(S (X w))")
        table = BoundaryTable((BoundaryRow("w", 0, 5),))
        out = project_to_time(tree, table)
        assert spans(out) == {("S", 0.0, 5.0), ("X", 0.0, 5.0)}

    def test_count_mismatch(self):
        tree = parse_bracketed("(NP (A a) (B b))")
        table = BoundaryTable(
            (BoundaryRow("a", 0, 1), BoundaryRow("b", 1, 2), BoundaryRow("c", 2, 3))
        )
        with pytest.raises(DataError, match="leaves"):
            project_to_time(tree, table)

    def test_gap_rejected(self):
        tree = parse_bracketed("(NP (A a) (B b))")
        table = BoundaryTable((BoundaryRow("a", 0, 1), BoundaryRow("b", 2, 3)))
        with pytest.raises(DataError, match="gap"):
            project_to_time(tree, table)

    def test_short_leaf_row(self):
        tree = parse_bracketed("(NP (A a) (B b))")
        table = BoundaryTable(
            (BoundaryRow("a", 0.0, 1.0), BoundaryRow("b", 1.0, 1.0000000001))
        )
        with pytest.raises(DataError) as exc:
            project_to_time(tree, table)
        assert str(exc.value) == (
            "degenerate interval (1.0, 1.0000000001): "
            "length must be at least 1e-09"
        )

    def test_span_past_half_the_largest_float(self):
        # two such spans would add to an infinite IoU union
        tree = parse_bracketed("(NP (A a) (B b))")
        wide = BoundaryTable((BoundaryRow("a", -1e308, 0.0), BoundaryRow("b", 0.0, 1e308)))
        with pytest.raises(DataError) as exc:
            project_to_time(tree, wide)
        assert str(exc.value) == (
            f"boundary table spans inf seconds, over {MAX_SPAN}"
        )
        half = MAX_SPAN / 2
        table = BoundaryTable((BoundaryRow("a", -half, 0.0), BoundaryRow("b", 0.0, half)))
        timed = project_to_time(tree, table)
        assert timed.ends[-1] - timed.starts[-1] == MAX_SPAN
        assert struct_iou_sentence(timed, timed, "labeled").value == 1.0

    def test_preserves_shape_and_count(self):
        tree = parse_bracketed("(A (B x) (C (D y) (E z)))")
        table = BoundaryTable(
            (BoundaryRow("x", 0, 2), BoundaryRow("y", 2, 2.5), BoundaryRow("z", 2.5, 9))
        )
        out = project_to_time(tree, table)
        assert out.node_count == tree.node_count
        assert [n.label for n in iter_nodes(out.root)] == [
            n.label for n in iter_nodes(tree.root)
        ]

    def test_parse_gives_unit_spans(self, attachment_pair):
        right, _ = attachment_pair
        assert right.root.start == 0.0 and right.root.end == 5.0
        two = parse_bracketed("(NP (A a) (B b))")
        assert [(l.start, l.end) for l in leaves(two.root)] == [(0, 1), (1, 2)]
        one = parse_bracketed("(X w)")
        assert (one.root.start, one.root.end) == (0.0, 1.0)


class TestPostorder:
    @staticmethod
    def check(tree):
        nodes, first, depth = tree.nodes, tree.first, tree.depth
        assert sorted(map(id, nodes)) == sorted(map(id, iter_nodes(tree.root)))
        index = {id(n): i for i, n in enumerate(nodes)}

        def walk(node, ancestors):
            i = index[id(node)]
            below = {id(d) for d in iter_nodes(node)} - {id(node)}
            assert {id(d) for d in nodes[first[i] : i]} == below
            assert depth[i] == ancestors
            for c in node.children:
                walk(c, ancestors + 1)

        walk(tree.root, 0)

    def test_random_trees(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            self.check(random_timed_tree(rng, 30))

    def test_chain(self):
        words = 400
        text = "".join(f"(X (W w{k}) " for k in range(words - 1))
        tree = parse_bracketed(text + f"(W w{words - 1})" + ")" * (words - 1))
        self.check(tree)
        first, depth = tree.first, tree.depth
        assert first[-1] == 0 and max(depth) == words - 1


class TestDeepChain:
    """A right-branching chain far deeper than Python's recursion limit."""

    WORDS = 1500

    def test_round_trip_projection_and_view(self):
        words = self.WORDS
        text = "".join(f"(X (W w{k}) " for k in range(words - 1))
        text += f"(W w{words - 1})" + ")" * (words - 1)
        tree = parse_bracketed(text)
        assert serialize_bracketed(tree) == text
        cuts = np.cumsum(np.random.default_rng(5).uniform(0.1, 1.0, words + 1))
        cuts = cuts.tolist()
        table = BoundaryTable(tuple(
            BoundaryRow(f"w{k}", cuts[k], cuts[k + 1]) for k in range(words)
        ))
        timed = project_to_time(tree, table)
        assert serialize_bracketed(timed) == text
        assert validate(timed) == []
        root = timed.root
        assert timed.root is root
        node, k = root, 0
        while node.children:
            assert (node.label, node.start, node.end) == ("X", cuts[k], cuts[-1])
            leaf, node = node.children
            assert (leaf.word, leaf.start, leaf.end) == (f"w{k}", cuts[k], cuts[k + 1])
            k += 1
        assert k == words - 1
        assert (node.word, node.start, node.end) == (f"w{k}", cuts[k], cuts[k + 1])


class TestValidate:
    def test_projected_trees_valid(self, gold_timed, pred_structure_error):
        assert validate(gold_timed) == []
        assert validate(pred_structure_error) == []

    def test_overlapping_children(self):
        from structiou.intervals import OpenInterval
        from structiou.treebank import ParseTree, TreeNode

        bad = ParseTree(
            TreeNode(
                "A",
                OpenInterval(0, 3),
                children=(
                    TreeNode("B", OpenInterval(0, 2), word="x"),
                    TreeNode("C", OpenInterval(1, 3), word="y"),
                ),
            )
        )
        assert any("overlap" in v for v in validate(bad))

    def test_hull_mismatch(self):
        from structiou.intervals import OpenInterval
        from structiou.treebank import ParseTree, TreeNode

        bad = ParseTree(
            TreeNode(
                "A",
                OpenInterval(0, 1),
                children=(TreeNode("B", OpenInterval(0, 2), word="x"),),
            )
        )
        assert any("hull mismatch" in v for v in validate(bad))

    def test_random_trees_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            assert validate(random_timed_tree(rng, 10)) == []


class TestContainmentProperties:
    """Interval containment facts that hold on every valid tree."""

    def test_child_and_ancestor_containment(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tree = random_timed_tree(rng, 12)

            def check(node, ancestors):
                for anc in ancestors:
                    assert anc.start <= node.start < node.end <= anc.end
                for c in node.children:
                    assert node.start <= c.start < c.end <= node.end
                    check(c, ancestors + [node])

            check(tree.root, [])

    def test_non_ancestry_iff_disjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            tree = random_timed_tree(rng, 10)
            nodes = list(iter_nodes(tree.root))
            desc = {id(n): set() for n in nodes}

            def fill(node):
                ids = {id(node)}
                for c in node.children:
                    ids |= fill(c)
                desc[id(node)] = ids - {id(node)}
                return ids

            fill(tree.root)
            for i, p in enumerate(nodes):
                for q in nodes[i + 1 :]:
                    related = id(q) in desc[id(p)] or id(p) in desc[id(q)]
                    overlap = (
                        min(p.end, q.end) - max(p.start, q.start) > 0
                    )
                    assert related == overlap

    def test_subtree_uniquely_characterized_by_root(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            tree = random_timed_tree(rng, 12)
            seen = set()
            for n in iter_nodes(tree.root):
                assert id(n) not in seen
                seen.add(id(n))
            for n in iter_nodes(tree.root):
                sub = set(id(m) for m in iter_nodes(n))
                assert id(n) in sub and sub <= seen
