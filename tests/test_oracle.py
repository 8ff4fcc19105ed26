import numpy as np
import pytest

from structiou.align import Alignment, max_weight_alignment
from structiou.ambiguity import random_binary_tree
from structiou.errors import CapacityError
from structiou.intervals import OpenInterval, iou
from structiou.oracle import (
    OracleVariant,
    alignment_problems,
    oracle_alignment,
    random_timed_tree,
    ted_objective,
)
from structiou.perturb import (
    perturb_delete,
    perturb_insert,
    perturb_noise,
    sentence_rng,
)
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    parse_bracketed,
    project_to_time,
    validate,
)
from trees import mirrored, timed, zigzag_text

# sha256 of 20 trees drawn from each of seeds 0, 1 and 2 (see the
# ``tree_digest`` fixture), keyed by (max_nodes, allow_gaps). Recorded
# while the generator still built its trees from nodes; the arrays and
# the draws must not change with how the tree is built.
GOLDEN_TIMED_TREE_SHA256 = {
    (8, True): [
        "78c66fadfc084c30365d85c4f5f6680ebdca406cac34c29acd0f6a1fe6f48228",
        "0e3b66c69a4c075e8fc034c39faa2a81d442b048f9a6e12efa1f87697f1ed8f0",
        "f778ed05abc8229dc4c5abe54dbb4fa625f7497fff89f72847d70d30a429877a",
    ],
    (8, False): [
        "75ce8dc5f68a98b7620b814cd493e80518010a9e73d60909b5ae70f6bc16be14",
        "a3e4d24d0d4af5718309075f41122b013e26a8d0ed08ba4831851a9bf0145dda",
        "01a666e7f140eff0ba0298840104a8c798284c7baf1c4deae40f7967b1880387",
    ],
    (30, True): [
        "f392291163246cc85bbe9b9c2c547f3cd17631483bbff9af7be80086261a4207",
        "3a1b702657e4ab903c68e4376b816816104eabf3075e07a363b92344f5f279b2",
        "19a2a91c3c5bbbaa4990eef69d19f819f07839ffe27f79bd283c47d2a8f02d6e",
    ],
    (30, False): [
        "1056527339c231969c0bc5df44c4a0ab5447889440bf4525cd0374ebf706c797",
        "49db45ad38973b9e1d7b9a3e0bc901f455681b81e149324e95af662fa862cf14",
        "068bf0fbc44dbfd7f6cb8f7f495896ad62f0706dfd7d1bd713dd8a024b5871a6",
    ],
    (60, True): [
        "38afd5aa6f9da4ed5722ebd9c64ec720a4104df095af42251dcf63e68a363c82",
        "11ffd4f07eebf3df599b196bbf3e1524340313383627fc8dfcbba265b72a0176",
        "b5d53aa36416f814d581f143584712b15efa02eac302bf12a5991dcbf44be40b",
    ],
    (60, False): [
        "d3eee5454b5c3f4f57cde338641f81c4562a33dccdadfb196241f4486d6cf8d4",
        "b3a467ba24867d5355cefd2caae8b2936726574a09aa571df291e05cc6262e28",
        "82d56448eaf9440f82661f0e7a0be8952f84f8ba6d4aabf0897bf50037cd44a9",
    ],
}


def test_identical_trees_both_variants(gold_timed):
    # one variant is left; the benchmark still passes it by name
    for variant in OracleVariant:
        out = oracle_alignment(gold_timed, gold_timed, "labeled", variant)
        assert out.objective == pytest.approx(3.0)


def test_structure_error_matches_solver(gold_timed, pred_structure_error):
    out = oracle_alignment(pred_structure_error, gold_timed, "labeled")
    assert out.objective == pytest.approx(3.0, abs=1e-9)


def test_attachment_pair(attachment_pair):
    right, left = attachment_pair
    out = oracle_alignment(right, left, "unlabeled")
    assert out.objective == pytest.approx(10.0, abs=1e-9)


def test_size_guard():
    rng = np.random.default_rng(0)
    big1 = random_timed_tree(rng, 25)
    while big1.node_count < 21:
        big1 = random_timed_tree(rng, 25)
    with pytest.raises(CapacityError):
        oracle_alignment(big1, big1)


@pytest.mark.parametrize("max_nodes, allow_gaps", list(GOLDEN_TIMED_TREE_SHA256))
def test_random_timed_tree_golden(max_nodes, allow_gaps, tree_digest):
    digests = []
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        trees = [
            random_timed_tree(rng, max_nodes, allow_gaps=allow_gaps)
            for _ in range(20)
        ]
        digests.append(tree_digest(trees, rng))
    assert digests == GOLDEN_TIMED_TREE_SHA256[max_nodes, allow_gaps]


def test_oracle_pairs_feasible():
    rng = np.random.default_rng(5)
    for trial in range(40):
        t1 = random_timed_tree(rng, 8)
        t2 = random_timed_tree(rng, 8)
        mode = "labeled" if trial % 2 else "unlabeled"
        out = oracle_alignment(t1, t2, mode)
        # the oracle enforces no crossing rule, yet its pairs never cross
        assert alignment_problems(t1, t2, out, mode) == []


class TestAlignmentProblems:
    """Each rule, broken on its own, on two four-word trees."""

    @pytest.fixture
    def trees(self):
        """Two copies of one tree; postorder X0 Y1 A2 X3 Y4 B5 S6."""
        text = "(S (A (X a) (Y b)) (B (X c) (Y d)))"
        return [parse_bracketed(text) for _ in range(2)]

    @staticmethod
    def aligned(t1, t2, *pairs):
        """The alignment of these postorder index pairs, objective included."""
        nodes = tuple((t1.nodes[i], t2.nodes[j]) for i, j in pairs)
        return Alignment(nodes, sum(iou(p.interval, q.interval) for p, q in nodes))

    def test_self_alignment_clean(self, trees):
        t1, t2 = trees
        out = self.aligned(t1, t2, *((i, i) for i in range(t1.node_count)))
        assert alignment_problems(t1, t2, out, "labeled") == []

    def test_crossing(self, trees):
        # A (2) precedes B (5) in the first tree, but follows it in the second
        t1, t2 = trees
        out = self.aligned(t1, t2, (2, 5), (5, 2))
        assert alignment_problems(t1, t2, out, "unlabeled") == [
            "pairs (2, 5) and (5, 2) cross"
        ]

    def test_label_mismatch_only_when_labeled(self, trees):
        t1, t2 = trees
        out = self.aligned(t1, t2, (0, 1))
        assert alignment_problems(t1, t2, out, "labeled") == [
            "pair (0, 1) matches X to Y"
        ]
        assert alignment_problems(t1, t2, out, "unlabeled") == []

    def test_reused_node(self, trees):
        t1, t2 = trees
        out = self.aligned(t1, t2, (0, 0), (0, 1))
        assert alignment_problems(t1, t2, out, "unlabeled") == [
            "pairs (0, 0) and (0, 1) share a node or disagree on ancestry"
        ]

    def test_objective_mismatch(self, trees):
        t1, t2 = trees
        out = self.aligned(t1, t2, (6, 6))
        assert alignment_problems(t1, t2, Alignment(out.pairs, 2.0)) == [
            "matched IoU sum 1.0 != objective 2.0"
        ]

    def test_foreign_node(self, trees):
        t1, t2 = trees
        out = self.aligned(t1, t2, (6, 6))
        assert alignment_problems(t2, t1, out) == [
            "alignment names a node outside its tree"
        ]


def test_solver_agrees_with_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(120):
        t1 = random_timed_tree(rng, 8)
        t2 = random_timed_tree(rng, 8)
        mode = "labeled" if trial % 2 else "unlabeled"
        dp = max_weight_alignment(t1, t2, mode)
        ref = oracle_alignment(t1, t2, mode)
        assert dp.objective == pytest.approx(ref.objective, abs=1e-9)


def test_crossing_pairs_cannot_both_overlap():
    # Why the oracle needs no crossing rule: it matches only pairs with
    # positive IoU, and no two such pairs can cross.
    # If u1 precedes u2 disjointly and v1 follows v2 disjointly, then
    # overlap(u1, v1) and overlap(u2, v2) cannot both be positive:
    # v1.start >= v2.end > u2.start >= u1.end > v1.start.
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 500:
        pts = np.sort(rng.uniform(0, 10, size=8))
        pts[1:] = np.maximum(pts[1:], pts[:-1] + 1e-6)
        u1 = OpenInterval(pts[0], pts[int(rng.integers(1, 4))])
        later = [i for i in range(7) if pts[i] >= u1.end]
        if not later:
            continue
        u2 = OpenInterval(pts[later[0]], pts[7])
        cut = int(rng.integers(1, 7))
        v2 = OpenInterval(pts[0], pts[cut])
        v1 = OpenInterval(pts[cut], pts[7])
        assert not (iou(u1, v1) > 0 and iou(u2, v2) > 0)
        checked += 1


# Large pairs, where the solver's mirroring, one-segment tables and
# top-table recovery act: the objective against the edit-distance
# reference, and the recovered pairs against the feasibility rules.


def rows(tree):
    """The boundary table of a tree's leaves."""
    leaf = tree.first == np.arange(tree.node_count)
    spans = zip(tree.words, tree.starts[leaf].tolist(), tree.ends[leaf].tolist())
    return BoundaryTable(tuple(BoundaryRow(*span) for span in spans))


def binary(words):
    return random_binary_tree(words, np.random.default_rng(0))


def chain(words, right):
    """A chain over random word times, each internal node with one leaf
    child, on the left (right-branching) or on the right. Its labels are X,
    as in ``random_binary_tree``, or Y."""
    rng = np.random.default_rng(0)
    labels = iter(rng.choice(["X", "Y"], 2 * words - 1).tolist())
    leaves = [f"({next(labels)} w{k})" for k in range(words)]
    text = leaves.pop() if right else leaves.pop(0)
    while leaves:
        pair = (leaves.pop(), text) if right else (text, leaves.pop(0))
        text = f"({next(labels)} {pair[0]} {pair[1]})"
    return timed(text, np.cumsum(rng.uniform(0.1, 1.0, words + 1)))


def zigzag(words):
    """A chain whose spine child switches sides at each level, over random
    word times. Its labels are X."""
    rng = np.random.default_rng(0)
    return timed(zigzag_text(words), np.cumsum(rng.uniform(0.1, 1.0, words + 1)))


def jittered(tree):
    return project_to_time(tree, perturb_noise(rows(tree), 0.3, sentence_rng(0)))


def inserted(tree):
    return perturb_insert(tree, rows(tree), 0.3, sentence_rng(0))[0]


def deleted(tree):
    return perturb_delete(tree, rows(tree), 0.3, sentence_rng(0))[0]


def binary_over(tree):
    """A binary tree over the same word times."""
    return project_to_time(binary(len(tree.words)), rows(tree))


def mirrored_ted(t1, t2, mode):
    """``ted_objective`` on both trees mirrored. Its fixed left-to-right
    numbering is the costly one for right chains, and mirroring turns
    them into left chains."""
    return ted_objective(mirrored(t1), mirrored(t2), mode)


# name: (a tree, the counterpart it is scored against, the reference)
LARGE_PAIRS = {
    "binary-100-jittered": (lambda: binary(100), jittered, ted_objective),
    "binary-50-inserted": (lambda: binary(50), inserted, ted_objective),
    "binary-50-deleted": (lambda: binary(50), deleted, ted_objective),
    "left-chain-100-jittered": (lambda: chain(100, right=False), jittered, ted_objective),
    "left-chain-100-binary-100": (
        lambda: chain(100, right=False), binary_over, ted_objective),
    "right-chain-25-jittered": (lambda: chain(25, right=True), jittered, ted_objective),
    "right-chain-100-jittered": (lambda: chain(100, right=True), jittered, mirrored_ted),
    "right-chain-100-inserted": (lambda: chain(100, right=True), inserted, mirrored_ted),
    "right-chain-100-deleted": (lambda: chain(100, right=True), deleted, mirrored_ted),
    "right-chain-200-jittered": (lambda: chain(200, right=True), jittered, mirrored_ted),
    "right-chain-200-inserted": (lambda: chain(200, right=True), inserted, mirrored_ted),
    "right-chain-200-deleted": (lambda: chain(200, right=True), deleted, mirrored_ted),
    "zigzag-20-jittered": (lambda: zigzag(20), jittered, ted_objective),
    "zigzag-40-jittered": (lambda: zigzag(40), jittered, ted_objective),
}


@pytest.mark.parametrize("mode", ["labeled", "unlabeled"])
@pytest.mark.parametrize("kind", list(LARGE_PAIRS))
def test_large_pair_objective_equals_ted(kind, mode):
    tree, counterpart, reference = LARGE_PAIRS[kind]
    t1 = tree()
    t2 = counterpart(t1)
    assert validate(t1) == [] and validate(t2) == []
    expected = reference(t1, t2, mode)
    out = max_weight_alignment(t1, t2, mode)
    assert out.objective == pytest.approx(expected, abs=1e-9)
    assert alignment_problems(t1, t2, out, mode) == []
