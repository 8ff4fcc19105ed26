"""Acceptance suite: one test per shipped guarantee, with timing caps.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line
per criterion. Reference values that a criterion pins exactly are listed
next to each assertion.
"""

import time

import numpy as np
import pytest

from structiou.align import max_weight_alignment
from structiou.ambiguity import (
    ambiguity_report,
    enumerate_plausible,
    random_binary_tree,
    strip_single_word_phrases,
)
from structiou.intervals import iou
from structiou.metric import struct_iou_sentence
from structiou.oracle import oracle_alignment, random_timed_tree
from structiou.perturb import PerturbSpec, apply_perturbation, sentence_rng
from structiou.stats import group_sample, spearman
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    iter_nodes,
    leaves,
    parse_bracketed,
    project_to_time,
    validate,
)
from trees import right_chain_text, timed


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_two_word_calibration(gold_timed, pred_structure_error,
                                          pred_boundary_error):
    """Known fixture scores: 0.75 for the structure-error parse."""
    t0 = time.perf_counter()
    score = struct_iou_sentence(pred_structure_error, gold_timed, "labeled")
    elapsed = time.perf_counter() - t0

    # the boundary-error parse has no external target; its value is fixed
    # here from the three same-label interval overlaps it must realize
    ref = oracle_alignment(pred_boundary_error, gold_timed, "labeled")
    boundary_score = struct_iou_sentence(pred_boundary_error, gold_timed, "labeled")
    expected_boundary = 2 * ref.objective / 6.0

    _report(
        1,
        abs(score.value - 0.75) < 1e-6 and elapsed < 1.0,
        f"structure-error fixture {score.value:.6f} (target 0.75), "
        f"boundary-error fixture {boundary_score.value:.6f} "
        f"(no external target; oracle-checked), {elapsed:.3f}s",
    )
    assert score.value == pytest.approx(0.75, abs=1e-6)
    assert boundary_score.value == pytest.approx(expected_boundary, abs=1e-9)
    assert boundary_score.value == pytest.approx(0.7181261770244821, abs=1e-9)
    assert elapsed < 1.0


def test_criterion_2_solver_equals_brute_force():
    """500 random tree pairs: exact solver matches exhaustive search."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240501)
    failures = 0
    for trial in range(500):
        t1 = random_timed_tree(rng, 8)
        t2 = random_timed_tree(rng, 8)
        mode = "labeled" if trial % 2 else "unlabeled"
        dp = max_weight_alignment(t1, t2, mode)
        ref = oracle_alignment(t1, t2, mode)
        if abs(dp.objective - ref.objective) > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - t0
    _report(2, failures == 0 and elapsed < 60,
            f"{500 - failures}/500 agree within 1e-9, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60


def test_criterion_3_structural_invariants():
    """Containment, disjointness, ordering, and self-alignment facts."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    trees = 0
    while trees < 1000:
        tree = random_timed_tree(rng, 12)
        trees += 1
        assert validate(tree) == []

        nodes = list(iter_nodes(tree.root))
        # every child interval inside its parent; ancestors cover descendants
        def check(node, ancestors):
            for anc in ancestors:
                assert anc.start <= node.start < node.end <= anc.end
            for c in node.children:
                check(c, ancestors + [node])
        check(tree.root, [])

        # a subtree is fully determined by its root node
        all_ids = {id(n) for n in nodes}
        for n in nodes[:6]:
            sub = {id(m) for m in iter_nodes(n)}
            assert id(n) in sub and sub <= all_ids

        # sampled disjoint descendant sets, sorted by start, touch or gap
        descendants = nodes[1:]
        rng.shuffle(descendants)
        chosen = []
        for cand in descendants:
            if all(
                min(cand.end, c.end) - max(cand.start, c.start) <= 0
                for c in chosen
            ):
                chosen.append(cand)
        chosen.sort(key=lambda c: c.start)
        for a, b in zip(chosen, chosen[1:]):
            assert a.end <= b.start
            assert iou(a.interval, b.interval) == 0.0

        if trees % 10 == 0:
            out = max_weight_alignment(tree, tree, "labeled")
            assert out.objective == pytest.approx(tree.node_count, abs=1e-9)
    elapsed = time.perf_counter() - t0
    _report(3, elapsed < 30, f"1000 random trees checked, {elapsed:.1f}s")
    assert elapsed < 30


def test_criterion_4_synthetic_ambiguity_table():
    """Reference table for the 8-repetition attachment template.

    Targets: lowest within-family bracket F1 12.5 exactly; random-mean
    bracket F1 27.3 +/- 3.0; random-mean similarity 61.9 +/- 3.0; lowest
    within-family similarity 100 * 19/33 = 57.58 exactly.

    The paper's table gives 63.6 for the last cell. That value is not
    asserted: it equals 2*21/66, which needs two units of credit that the
    documented alignment does not give against the rivals that make the
    F1 cell 12.5. The cell is 57.58 for every choice of ground truth
    (see the derivation below).
    """
    n = 8
    t0 = time.perf_counter()
    rep = ambiguity_report(n, 100, seed=7)
    elapsed = time.perf_counter() - t0

    # After the unary NP over each noun is collapsed, every parse is a
    # binary tree over the template's words: `words` leaves and
    # words - 1 multi-word brackets. Any two parses share every word,
    # the root and the final preposition phrase, and matching those
    # identical nodes is always a feasible alignment, so a rival that
    # shares k multi-word brackets scores an objective of at least
    # words + k >= words + 2. This is only a lower bound: the solver may
    # trade word pairs for partial overlaps and score higher. Every
    # ground truth has rivals with k = 2 (the same rivals that make the
    # F1 cell exactly 12.5), and for every one of the 1430 ground truths
    # the solver scores at least one of them at exactly words + 2. The
    # cell is therefore 2 * (words + 2) / (2 * nodes) = 19/33 for any
    # ground truth, the calibrated default included.
    words = 2 * n + 1
    nodes = 2 * words - 1
    lowest = 100.0 * 2 * (words + 2) / (2 * nodes)

    detail = (
        f"F1 lowest {rep.parseval_plausible_lowest:.4f} (target 12.5 exact), "
        f"F1 mean {rep.parseval_random_mean:.2f} (target 27.3±3.0), "
        f"similarity mean {rep.struct_iou_random_mean:.2f} (target 61.9±3.0), "
        f"similarity lowest {rep.struct_iou_plausible_lowest:.2f} "
        f"(target {lowest:.2f} exact; paper 63.6), {elapsed:.1f}s"
    )
    exact = rep.struct_iou_plausible_lowest == pytest.approx(lowest, abs=1e-9)
    _report(4, exact and elapsed < 120, detail)

    assert rep.parseval_plausible_lowest == pytest.approx(12.5, abs=1e-9)
    assert 24.3 <= rep.parseval_random_mean <= 30.3
    assert 58.9 <= rep.struct_iou_random_mean <= 64.9
    assert elapsed < 120
    assert words + 2 == 19 and nodes == 33
    assert rep.struct_iou_plausible_lowest == pytest.approx(lowest, abs=1e-9), (
        f"lowest within-family similarity {rep.struct_iou_plausible_lowest:.4f} "
        f"differs from 100 * {words + 2}/{nodes}, the floor that matching "
        "the shared words, root and final preposition phrase guarantees and "
        "that a rival sharing only those brackets reaches"
    )

    # The abstract's claim in the form this metric supports: relative to
    # its own random baseline, Struct-IoU keeps more of its score on the
    # least similar plausible parse than bracket F1 does. The stronger
    # form in the paper's table, lowest plausible above random mean,
    # does not hold here (57.58 < 63.98) and is not asserted.
    assert (
        rep.struct_iou_plausible_lowest / rep.struct_iou_random_mean
        > rep.parseval_plausible_lowest / rep.parseval_random_mean
    )

    # Independent audit of the same formula at a size the exhaustive
    # oracle can solve: at n = 3 (13 nodes a tree) the lowest objective
    # against ground truth 0's four rivals is 2n + 3 = words + 2, and the
    # report's cell is 100 * (2n + 3) / (4n + 1).
    small = 3
    family = [strip_single_word_phrases(t) for t in enumerate_plausible(small)]
    objectives = [
        oracle_alignment(family[0], rival, "unlabeled").objective
        for rival in family[1:]
    ]
    assert len(objectives) == 4
    assert min(objectives) == pytest.approx(2 * small + 3, abs=1e-9)
    small_rep = ambiguity_report(small, 1, seed=7, gt_index=0)
    assert small_rep.struct_iou_plausible_lowest == pytest.approx(
        100.0 * (2 * small + 3) / (4 * small + 1), abs=1e-9
    )


def _random_boundary_table(words: list[str], rng) -> BoundaryTable:
    durations = rng.uniform(0.08, 0.55, size=len(words))
    rows = []
    cursor = float(rng.uniform(0, 2.0))
    for w, d in zip(words, durations):
        rows.append(BoundaryRow(w, cursor, cursor + float(d)))
        cursor += float(d)
    return BoundaryTable(tuple(rows))


def test_criterion_5_perturbation_monotonicity():
    """Mean similarity strictly decreases with the perturbation level."""
    t0 = time.perf_counter()
    corpus_rng = np.random.default_rng(31337)
    corpus = []
    for _ in range(200):
        n_words = int(corpus_rng.integers(5, 16))
        tree = random_binary_tree(n_words, corpus_rng)
        table = _random_boundary_table(
            [l.word for l in leaves(tree.root)], corpus_rng
        )
        corpus.append((table, project_to_time(tree, table)))

    deltas = (0.0, 0.2, 0.5, 1.0)
    seeds = range(5)
    curves = {}
    for mode in ("noise", "insert", "delete"):
        means = []
        for delta in deltas:
            seed_means = []
            for seed in seeds:
                spec = PerturbSpec(mode, delta, seed)
                values = []
                for k, (table, timed) in enumerate(corpus):
                    rng = sentence_rng(seed, k)
                    new_tree, _ = apply_perturbation(timed, table, spec, rng)
                    values.append(
                        struct_iou_sentence(new_tree, timed, "labeled").value
                    )
                seed_means.append(float(np.mean(values)))
            means.append(float(np.mean(seed_means)))
        curves[mode] = means
    elapsed = time.perf_counter() - t0

    ok = all(
        curves[m][i] > curves[m][i + 1]
        for m in curves
        for i in range(len(deltas) - 1)
    )
    severity = sorted(curves, key=lambda m: curves[m][-1])
    _report(
        5,
        ok and elapsed < 120,
        "strictly decreasing for all modes; at full strength "
        + ", ".join(f"{m}={curves[m][-1]:.3f}" for m in curves)
        + f"; most-to-least damaging: {severity} (reported, not asserted); "
        f"{elapsed:.1f}s",
    )
    for mode in curves:
        assert curves[mode][0] == pytest.approx(1.0)
        for a, b in zip(curves[mode], curves[mode][1:]):
            assert b < a, f"{mode}: {curves[mode]} not strictly decreasing"
    assert elapsed < 120


def test_criterion_6_single_node_is_plain_interval_iou():
    """Single-node trees score exactly their interval overlap ratio."""
    rng = np.random.default_rng(6)
    checked = 0
    worst_exact = True
    for _ in range(300):
        pts = np.sort(rng.uniform(0, 10, size=4))
        pts[1:] = np.maximum(pts[1:], pts[:-1] + 1e-4)
        which = rng.integers(0, 2)
        a = timed("(X a)", pts[[0, 2]])
        b = timed("(X b)", pts[[1, 3 if which else 2]])
        expected = iou(a.root.interval, b.root.interval)
        got = struct_iou_sentence(a, b, "labeled").value
        if got != expected:
            worst_exact = False
        checked += 1
    _report(6, worst_exact, f"{checked} single-node pairs, bitwise equal")
    assert worst_exact


def test_criterion_7_quartic_scaling_bound():
    """Self-alignment time grows at most 20x when tree size doubles."""
    t0 = time.perf_counter()
    times = {}
    for words in (13, 25, 50):  # 25, 49, 99 nodes
        tree = parse_bracketed(right_chain_text(words))
        best = None
        for _ in range(3):
            start = time.perf_counter()
            max_weight_alignment(tree, tree, "unlabeled")
            dt = time.perf_counter() - start
            best = dt if best is None else min(best, dt)
        times[2 * words - 1] = best
    elapsed = time.perf_counter() - t0
    sizes = sorted(times)
    ratios = [
        times[b] / max(times[a], 1e-4) for a, b in zip(sizes, sizes[1:])
    ]
    _report(
        7,
        all(r <= 20 for r in ratios) and elapsed < 60,
        "sizes "
        + ", ".join(f"{s}n={times[s]*1e3:.1f}ms" for s in sizes)
        + f"; doubling ratios {[f'{r:.1f}' for r in ratios]}; {elapsed:.1f}s",
    )
    for r in ratios:
        assert r <= 20.0
    assert elapsed < 60


def test_criterion_8_correlation_protocol_exact_extremes(tmp_path):
    """Self- and anti-correlated inputs give rho of exactly +/-1."""
    values = [float((i * 13) % 29) + i * 1e-3 for i in range(40)]
    records = [(v, 1.0) for v in values]
    records_anti = [(-v, 1.0) for v in values]
    grouped_self = group_sample(records, records, 8, seed=5, groups=60)
    grouped_anti = group_sample(records, records_anti, 8, seed=5, groups=60)
    rho_self = spearman(
        [a for a, _ in grouped_self], [b for _, b in grouped_self]
    )
    rho_anti = spearman(
        [a for a, _ in grouped_anti], [b for _, b in grouped_anti]
    )

    from structiou.cli import main

    score_a = tmp_path / "a.tsv"
    score_b = tmp_path / "b.tsv"
    score_a.write_text(
        "index\tvalue\n"
        + "".join(f"{i}\t{v}\n" for i, v in enumerate(values)),
        encoding="utf-8",
    )
    score_b.write_text(
        "index\tvalue\n"
        + "".join(f"{i}\t{-v}\n" for i, v in enumerate(values)),
        encoding="utf-8",
    )
    out = tmp_path / "rho.tsv"
    code = main([
        "correlate", str(score_a), str(score_b),
        "--group-size", "8", "--groups", "60", "--seed", "5",
        "--out", str(out),
    ])
    cli_rho = float(
        [l for l in out.read_text().splitlines() if "spearman" in l][0].split("\t")[1]
    )
    _report(
        8,
        rho_self == 1.0 and rho_anti == -1.0 and code == 0,
        f"self rho {rho_self}, anti rho {rho_anti}, CLI anti rho {cli_rho}",
    )
    assert rho_self == 1.0
    assert rho_anti == -1.0
    assert code == 0
    assert cli_rho == pytest.approx(-1.0)
