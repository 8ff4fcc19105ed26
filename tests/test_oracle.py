import numpy as np
import pytest

from structiou.align import max_weight_alignment
from structiou.errors import CapacityError
from structiou.intervals import OpenInterval, iou
from structiou.oracle import (
    OracleVariant,
    TreeIndex,
    conflicted,
    oracle_alignment,
    random_timed_tree,
)
from structiou.treebank import project_even


def test_identical_trees_both_variants(gold_timed):
    for variant in OracleVariant:
        out = oracle_alignment(gold_timed, gold_timed, "labeled", variant)
        assert out.objective == pytest.approx(3.0)


def test_structure_error_matches_solver(gold_timed, pred_structure_error):
    out = oracle_alignment(pred_structure_error, gold_timed, "labeled")
    assert out.objective == pytest.approx(3.0, abs=1e-9)


def test_attachment_pair(attachment_pair):
    right, left = attachment_pair
    out = oracle_alignment(
        project_even(right), project_even(left), "unlabeled"
    )
    assert out.objective == pytest.approx(10.0, abs=1e-9)


def test_size_guard():
    rng = np.random.default_rng(0)
    big1 = random_timed_tree(rng, 25)
    while big1.node_count < 21:
        big1 = random_timed_tree(rng, 25)
    with pytest.raises(CapacityError):
        oracle_alignment(big1, big1)


def test_oracle_pairs_feasible():
    rng = np.random.default_rng(5)
    for trial in range(40):
        t1 = random_timed_tree(rng, 8)
        t2 = random_timed_tree(rng, 8)
        mode = "labeled" if trial % 2 else "unlabeled"
        out = oracle_alignment(t1, t2, mode)
        i1, i2 = TreeIndex(t1), TreeIndex(t2)
        seen1 = {id(a) for a, _ in out.pairs}
        seen2 = {id(b) for _, b in out.pairs}
        assert len(seen1) == len(out.pairs) == len(seen2)
        for x in range(len(out.pairs)):
            for y in range(x + 1, len(out.pairs)):
                assert not conflicted(out.pairs[x], out.pairs[y], i1, i2)
        total = sum(iou(a.interval, b.interval) for a, b in out.pairs)
        assert total == pytest.approx(out.objective, abs=1e-9)


def test_solver_agrees_with_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(120):
        t1 = random_timed_tree(rng, 8)
        t2 = random_timed_tree(rng, 8)
        mode = "labeled" if trial % 2 else "unlabeled"
        dp = max_weight_alignment(t1, t2, mode)
        ref = oracle_alignment(t1, t2, mode, OracleVariant.ORDER_CONSISTENT)
        assert dp.objective == pytest.approx(ref.objective, abs=1e-9)


def test_unconstrained_variant_never_lower():
    rng = np.random.default_rng(99)
    gaps = 0
    for trial in range(60):
        t1 = random_timed_tree(rng, 7)
        t2 = random_timed_tree(rng, 7)
        strict = oracle_alignment(t1, t2, "unlabeled", OracleVariant.ORDER_CONSISTENT)
        loose = oracle_alignment(t1, t2, "unlabeled", OracleVariant.ANCESTRY_ONLY)
        assert loose.objective >= strict.objective - 1e-12
        if loose.objective > strict.objective + 1e-9:
            gaps += 1
    # Crossing never helps: two crossing matchings cannot both carry
    # positive overlap weight on a shared timeline (next test), so the
    # two constraint variants always reach the same optimum.
    assert gaps == 0


def test_crossing_pairs_cannot_both_overlap():
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
