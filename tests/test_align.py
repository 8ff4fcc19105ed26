import time
import tracemalloc

import numpy as np
import pytest

from structiou.align import (
    Alignment,
    MatchMode,
    PairSolver,
    _costs,
    _TreeData,
    max_weight_alignment,
)
from structiou.ambiguity import random_binary_tree
from structiou.intervals import iou
from structiou.oracle import alignment_problems, random_timed_tree
from structiou.perturb import perturb_noise
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
    iter_nodes,
    parse_bracketed,
    project_to_time,
)
from trees import (
    left_chain_text,
    mirrored,
    right_chain_text,
    spine_text,
    timed,
    zigzag_text,
)


def by_label(tree):
    return {n.label: n for n in iter_nodes(tree.root)}


@pytest.fixture
def conflict_trees():
    """Five-node tree vs three-node tree over a shared word span."""
    t1 = parse_bracketed("(A (B x) (C (D y) (E z)))")
    # the 2-word tree over the same 3-word range
    t2 = timed("(F (G w) (H v))", [0.0, 1.5, 3.0])
    return t1, t2


class TestConflicted:
    """Two matchings that disagree on ancestry, through alignment_problems."""

    @staticmethod
    def problems(conflict_trees, *labels):
        """Problems of the unlabeled alignment of these label pairs."""
        t1, t2 = conflict_trees
        n1, n2 = by_label(t1), by_label(t2)
        pairs = tuple((n1[a], n2[b]) for a, b in labels)
        objective = sum(iou(p.interval, q.interval) for p, q in pairs)
        return alignment_problems(t1, t2, Alignment(pairs, objective), "unlabeled")

    def test_ancestor_one_side_only(self, conflict_trees):
        # A is an ancestor of E, but G is not an ancestor of H
        assert self.problems(conflict_trees, ("A", "G"), ("E", "H")) == [
            "pairs (4, 0) and (2, 1) share a node or disagree on ancestry"
        ]

    def test_descendant_mismatch(self, conflict_trees):
        # C is not an ancestor of A, but F is an ancestor of H
        assert self.problems(conflict_trees, ("C", "F"), ("A", "H")) == [
            "pairs (3, 2) and (4, 1) share a node or disagree on ancestry"
        ]

    def test_rule_four(self, conflict_trees):
        # B is not a descendant of C, but H is a descendant of F
        assert self.problems(conflict_trees, ("B", "H"), ("C", "F")) == [
            "pairs (0, 1) and (3, 2) share a node or disagree on ancestry"
        ]

    def test_consistent_pair(self, conflict_trees):
        assert self.problems(conflict_trees, ("A", "F"), ("C", "H")) == []


class TestMaxWeightAlignment:
    def test_self_alignment_equals_node_count(self, gold_timed):
        out = max_weight_alignment(gold_timed, gold_timed, "labeled")
        assert out.objective == pytest.approx(3.0)
        assert len(out.pairs) == 3

    def test_structure_error_fixture(self, gold_timed, pred_structure_error):
        out = max_weight_alignment(pred_structure_error, gold_timed, "labeled")
        assert out.objective == pytest.approx(3.0, abs=1e-9)
        matched_labels = sorted((a.label, b.label) for a, b in out.pairs)
        assert matched_labels == [("NN", "NN"), ("NP", "NP"), ("PRP", "PRP")]

    def test_attachment_pair_objective(self, attachment_pair):
        right, left = attachment_pair
        out = max_weight_alignment(right, left, "unlabeled")
        assert out.objective == pytest.approx(10.0, abs=1e-9)

    def test_subtree_objective(self, gold_timed, pred_structure_error):
        solver = PairSolver(pred_structure_error, gold_timed, MatchMode.LABELED)
        pred_np = pred_structure_error.labels.index("NP")
        gold_np = gold_timed.labels.index("NP")
        assert solver.subtree_objective(pred_np, gold_np) == pytest.approx(3.0)
        pred_vp = pred_structure_error.labels.index("VP")
        assert solver.subtree_objective(pred_vp, gold_np) == float("-inf")
        with pytest.raises(IndexError):
            solver.subtree_objective(pred_vp + 1, gold_np)

    def test_subtree_objective_leaves(self):
        same = timed("(X a)", [0, 1])
        twin = timed("(X b)", [0, 1])
        apart = timed("(X c)", [4, 5])
        assert PairSolver(same, twin, "labeled").subtree_objective(0, 0) == 1.0
        assert PairSolver(same, apart, "labeled").subtree_objective(0, 0) == 0.0

    def test_subtree_objective_mirrored(self):
        # right-branching chains cost less numbered right to left, so the
        # solver mirrors them; queries still take left-to-right postorder
        words = 6
        text = "".join(f"(X (W w{k}) " for k in range(words - 1))
        text += f"(W w{words - 1})" + ")" * (words - 1)
        chain = parse_bracketed(text)
        jitter = np.array([0.0, 0.2, -0.1, 0.3, 0.1, -0.2, 0.0])
        t1, t2 = (
            project_to_time(chain, BoundaryTable(tuple(
                BoundaryRow(f"w{k}", cuts[k], cuts[k + 1]) for k in range(words)
            )))
            for cuts in (np.arange(words + 1.0), np.arange(words + 1.0) + jitter)
        )
        solver = PairSolver(t1, t2, "labeled")
        assert solver.mirrored
        root = t1.node_count - 1
        assert solver.subtree_objective(root, root) == solver.objective
        leaves1, leaves2 = (
            np.flatnonzero(t.first == np.arange(t.node_count)).tolist() for t in (t1, t2)
        )
        for i in leaves1:
            for j in leaves2:
                expected = iou(t1.nodes[i].interval, t2.nodes[j].interval)
                assert solver.subtree_objective(i, j) == expected

    def test_leaf_pairs(self):
        a = timed("(X w)", [0, 1])
        b = timed("(X w)", [0, 1])
        c = timed("(X w)", [2, 3])
        assert max_weight_alignment(a, b, "labeled").objective == 1.0
        assert max_weight_alignment(a, c, "labeled").objective == 0.0

    def test_label_sensitivity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            tree = random_timed_tree(rng, 10)
            fresh = _relabel_unique(tree)
            labeled = max_weight_alignment(tree, fresh, "labeled")
            unlabeled = max_weight_alignment(tree, fresh, "unlabeled")
            baseline = max_weight_alignment(tree, tree, "unlabeled")
            assert labeled.objective == 0.0
            assert unlabeled.objective == pytest.approx(baseline.objective)

    def test_monotone_bound_and_feasibility(self):
        rng = np.random.default_rng(29)
        for trial in range(60):
            t1 = random_timed_tree(rng, 10)
            t2 = random_timed_tree(rng, 10)
            mode = "labeled" if trial % 2 else "unlabeled"
            out = max_weight_alignment(t1, t2, mode)
            assert out.objective <= min(t1.node_count, t2.node_count) + 1e-9
            assert alignment_problems(t1, t2, out, mode) == []

    def test_objective_matches_pair_weights(self):
        rng = np.random.default_rng(31)
        for trial in range(40):
            t1 = random_timed_tree(rng, 9)
            t2 = random_timed_tree(rng, 9)
            out = max_weight_alignment(t1, t2, "unlabeled")
            total = sum(iou(a.interval, b.interval) for a, b in out.pairs)
            assert total == pytest.approx(out.objective, abs=1e-9)

    def test_deterministic_pairs(self):
        rng = np.random.default_rng(37)
        t1 = random_timed_tree(rng, 10)
        t2 = random_timed_tree(rng, 10)
        first = max_weight_alignment(t1, t2, "unlabeled")
        again = max_weight_alignment(t1, t2, "unlabeled")
        assert [(id(a), id(b)) for a, b in first.pairs] == [
            (id(a), id(b)) for a, b in again.pairs
        ]

    def test_self_alignment_random(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            tree = random_timed_tree(rng, 12)
            for mode in ("labeled", "unlabeled"):
                out = max_weight_alignment(tree, tree, mode)
                assert out.objective == pytest.approx(tree.node_count)


def _relabel_unique(tree):
    counter = [0]

    def rebuild(node):
        counter[0] += 1
        kids = tuple(rebuild(c) for c in node.children)
        return TreeNode(
            f"U{counter[0]}", node.interval, children=kids, word=node.word
        )

    return ParseTree(rebuild(tree.root))


def _right_chain_pair(words, seed):
    """Two timings of one right-branching chain, words 0.5 to 1.5 s long."""
    tree = parse_bracketed(right_chain_text(words))
    rng = np.random.default_rng(seed)
    return _timed(tree, rng), _timed(tree, rng)


def _timed(tree, rng):
    """The tree over words 0.5 to 1.5 s long."""
    cuts = np.cumsum(rng.uniform(0.5, 1.5, len(tree.words) + 1)).tolist()
    rows = tuple(BoundaryRow("w", a, b) for a, b in zip(cuts, cuts[1:]))
    return project_to_time(tree, BoundaryTable(rows))


def test_pairs_in_left_to_right_postorder_when_solved_mirrored():
    """A right-branching chain is solved in the mirrored numbering, but
    the pairs still come in the first tree's left-to-right postorder."""

    def postorder(node):
        for child in node.children:
            yield from postorder(child)
        yield node

    t1, t2 = _right_chain_pair(12, 3)
    solver = PairSolver(t1, t2, "labeled")
    # precondition: the solver picked the mirrored numbering
    assert solver.d1.rank.tolist() != list(range(t1.node_count))
    index = {id(n): k for k, n in enumerate(postorder(t1.root))}
    order = [index[id(a)] for a, _ in solver.alignment().pairs]
    assert len(order) > 1
    assert order == sorted(order)


def _numbering_cases():
    rng = np.random.default_rng(21)
    yield "(X w)"
    yield from ("(S (X a) (X b))", "(S (X (Y a)) (X b))", "(S (X a) (X (Y b)))")
    for words in (2, 3, 7, 20):
        yield right_chain_text(words)
        yield left_chain_text(words)
    yield from (zigzag_text(words) for words in range(2, 13))
    yield from (random_binary_tree(words, rng) for words in (1, 2, 5, 17, 40))
    yield from (random_timed_tree(rng, nodes) for nodes in (1, 2, 3, 8, 30, 60, 60))
    for p in (0.1, 0.3, 0.5):
        yield from (spine_text(words, p, rng) for words in (5, 20, 60))


def test_mirrored_numbering_matches_an_independent_mirror():
    """Each numbering's cost, read off the postorder ``first``, is the
    other numbering's cost of the tree rebuilt with its children
    reversed, and the mirrored arrays and path dict are that tree's
    postorder ones."""
    for case in _numbering_cases():
        t = parse_bracketed(case) if isinstance(case, str) else case
        left, right, paths = _costs(t.first)
        flip = mirrored(t)
        flip_left, flip_right, flip_paths = _costs(flip.first)
        assert (left, right) == (flip_right, flip_left)
        flipped = _TreeData(flip, False, flip_paths)
        d = _TreeData(t, True, paths)
        assert d.paths == flipped.paths
        assert d.first.tolist() == flipped.first.tolist()
        assert d.labels == list(flipped.labels)
        assert d.starts.tolist() == (-flipped.ends).tolist()
        assert sorted(d.rank.tolist()) == list(range(t.node_count))


def test_one_numbering_per_tree(monkeypatch):
    """A solve and its recovery build one ``_TreeData`` per tree, in the
    numbering solved in, whichever it is."""
    built = []
    init = _TreeData.__init__

    def spy(self, tree, *args):
        built.append((id(tree), bool(args and args[0])))  # args[0]: mirrored
        init(self, tree, *args)

    rng = np.random.default_rng(5)
    left = parse_bracketed(left_chain_text(12))
    pairs = [_right_chain_pair(12, 3), (_timed(left, rng), _timed(left, rng))]
    pairs += [(random_timed_tree(rng, 30), random_timed_tree(rng, 30)) for _ in range(30)]
    monkeypatch.setattr(_TreeData, "__init__", spy)
    seen = []
    for t1, t2 in pairs:
        built.clear()
        solver = PairSolver(t1, t2, "labeled")
        solver.alignment()
        assert built == [(id(t1), solver.mirrored), (id(t2), solver.mirrored)]
        seen.append(solver.mirrored)
    assert seen[:2] == [True, False] and len(set(seen[2:])) == 2


def _refilled_keys(monkeypatch, t1, t2, mode):
    """Run alignment(); return it and the (first-tree keyroot,
    second-tree keyroot) pairs whose tables it filled again."""
    solver = PairSolver(t1, t2, mode)
    keys = []
    table = PairSolver._table

    def counted(self, k, cols, *args):
        keys.extend((k, k2) for k2 in cols[3])
        return table(self, k, cols, *args)

    monkeypatch.setattr(PairSolver, "_table", counted)
    out = solver.alignment()
    monkeypatch.undo()
    return solver, out, keys


def test_recovery_reads_the_top_table(monkeypatch):
    """Only the pairs of the two virtual roots' segment come from the
    solve, which keeps that segment. A chain in its chosen numbering has
    no other path of more than one node, so recovering its alignment
    fills no table; other pairs fill lower tables again."""
    t1, t2 = _right_chain_pair(30, 11)
    for mode in ("labeled", "unlabeled"):
        solver, out, refilled = _refilled_keys(monkeypatch, t1, t2, mode)
        assert refilled == []
        assert _total_iou(out) == pytest.approx(solver.objective, abs=1e-9)
    rng = np.random.default_rng(12)
    filled = 0
    for _ in range(10):
        t1, t2 = random_binary_tree(20, rng), random_binary_tree(20, rng)
        solver, out, refilled = _refilled_keys(monkeypatch, t1, t2, "labeled")
        assert (solver.d1.n, solver.d2.n) not in refilled
        assert _total_iou(out) == pytest.approx(solver.objective, abs=1e-9)
        filled += len(refilled)
    assert filled > 0  # lower paths still fill their tables


def test_recovery_fills_the_root_path_into_other_segments(monkeypatch):
    """A node on the first tree's root path can match into a lower
    second-tree path. The solve kept only the virtual roots' segment, so
    recovery fills the virtual root's table again for that segment."""
    rng = np.random.default_rng(43)
    root_refills = 0
    for _ in range(100):
        t1, t2 = random_timed_tree(rng, 30), random_timed_tree(rng, 30)
        for mode in ("labeled", "unlabeled"):
            solver, out, refilled = _refilled_keys(monkeypatch, t1, t2, mode)
            assert alignment_problems(t1, t2, out, mode) == []
            root_refills += sum(k1 == solver.d1.n for k1, _ in refilled)
            assert len(set(refilled)) == len(refilled)  # each table filled once
    assert root_refills > 0


def test_alignment_is_repeatable():
    """A second call returns the same pairs and objective: reading the
    kept table, whole for a chain pair and one segment for a binary pair
    (whose recovery also fills 9 lower tables again), does not use it up."""
    rng = np.random.default_rng(0)
    chain = _right_chain_pair(30, 11)
    binary = tuple(_timed(random_binary_tree(20, rng), rng) for _ in range(2))
    for t1, t2 in (chain, binary):
        solver = PairSolver(t1, t2, "labeled")
        once = solver.alignment()
        twice = solver.alignment()
        assert len(once.pairs) > 1
        assert [(id(a), id(b)) for a, b in twice.pairs] == [
            (id(a), id(b)) for a, b in once.pairs
        ]
        assert twice.objective == once.objective


def test_recovery_peak_below_the_solve():
    """Recovery takes pairs largest key first and holds one refilled table
    at a time. A zig-zag's recovery fills dozens of tables again; keeping
    them all until it returns would peak near twice the solve's peak."""
    tree = parse_bracketed(zigzag_text(100))
    # parse_bracketed puts word k at (k, k + 1)
    table = BoundaryTable(tuple(
        BoundaryRow(word, float(k), k + 1.0) for k, word in enumerate(tree.words)))
    jittered = project_to_time(tree, perturb_noise(table, 0.3, np.random.default_rng(0)))
    tree.nodes, jittered.nodes  # recovery's node view is not the solver's memory
    tracemalloc.start()
    try:
        solver = PairSolver(tree, jittered, "labeled")
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solver.alignment()
        recovery_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovery_peak < solve_peak


def _total_iou(alignment):
    return sum(iou(a.interval, b.interval) for a, b in alignment.pairs)


def test_peak_memory_about_twice_F():
    """The solve writes the IoU weights straight into F and holds at most
    one keyroot table at a time. On a 300-word chain pair F and the top
    table are each about (2 * 300)**2 doubles, and the peak about twice F."""
    t1, t2 = _right_chain_pair(300, 13)
    f_bytes = (t1.node_count + 1) * (t2.node_count + 1) * 8
    tracemalloc.start()
    try:
        max_weight_alignment(t1, t2, "labeled")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * f_bytes


@pytest.mark.parametrize("seed, words", [*((s, 100) for s in range(6)), (0, 200)])
def test_peak_memory_balanced_below_three_F(seed, words):
    """A solve holds F, one buffer of the table rows still to be read and
    the virtual root's last segment, the size of F; recovery fills lower
    tables one segment at a time. That peaks near 2.5x F on these pairs;
    keeping the virtual root's table of every segment would take 5-6.5x."""
    rng = np.random.default_rng(seed)
    t1, t2 = (_timed(random_binary_tree(words, rng), rng) for _ in range(2))
    t1.nodes, t2.nodes  # recovery's node view is not the solver's memory
    tracemalloc.start()
    try:
        solver = PairSolver(t1, t2, "labeled")
        solver.alignment()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * solver.F.nbytes


def test_scaling_stays_polynomial():
    """Runtime grows consistently with the quartic bound when doubling."""

    sizes = [13, 25]  # 25 and 49 nodes
    times = []
    for w in sizes:
        tree = parse_bracketed(right_chain_text(w))
        best = min(
            _timed_solve(tree) for _ in range(3)
        )
        times.append(best)
    assert times[1] <= 20 * max(times[0], 1e-4)


def _timed_solve(tree):
    t0 = time.perf_counter()
    max_weight_alignment(tree, tree, "unlabeled")
    return time.perf_counter() - t0
