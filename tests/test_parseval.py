import pytest

from structiou.errors import DataError
from structiou.parseval import BracketSpan, bracket_spans, parseval_f1
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    parse_bracketed,
    project_to_time,
)


def test_preterminals_excluded():
    spans = bracket_spans(parse_bracketed("(NP (PRP Your) (NN turn))"))
    assert dict(spans) == {BracketSpan("NP", 0, 2): 1}


def test_single_preterminal_empty():
    assert not bracket_spans(parse_bracketed("(X w)"))


def test_attachment_tree_span_count(attachment_pair):
    right, left = attachment_pair
    assert sum(bracket_spans(right).values()) == 7
    assert sum(bracket_spans(left).values()) == 7


def test_duplicate_spans_kept():
    spans = bracket_spans(parse_bracketed("(NP (NP (A a) (B b)))"))
    assert spans[BracketSpan("NP", 0, 2)] == 2


def test_identical_trees():
    t = parse_bracketed("(S (NP (A a)) (VP (B b) (C c)))")
    score = parseval_f1(t, t, "labeled")
    assert (score.precision, score.recall, score.f1) == (100.0, 100.0, 100.0)


def test_attachment_pair_f1(attachment_pair):
    right, left = attachment_pair
    score = parseval_f1(right, left, "unlabeled")
    assert score.matched == 5
    assert score.f1 == pytest.approx(500 / 7)


def test_labels_matter_in_labeled_mode(attachment_pair):
    right, left = attachment_pair
    labeled = parseval_f1(right, left, "labeled")
    unlabeled = parseval_f1(right, left, "unlabeled")
    assert labeled.f1 <= unlabeled.f1


def test_root_only_overlap():
    a = parse_bracketed("(S (X (A a) (B b)) (C c))")
    b = parse_bracketed("(S (A a) (Y (B b) (C c)))")
    score = parseval_f1(a, b, "unlabeled")
    # only the whole-sentence bracket is shared: F1 = 100/k with k=2
    assert score.f1 == pytest.approx(50.0)


def test_zero_zero_convention():
    a = parse_bracketed("(X w)")
    assert parseval_f1(a, a, "labeled").f1 == 100.0
    b = parse_bracketed("(S (X w))")
    # one side has a bracket, the other none
    one_sided = parseval_f1(a, b, "labeled")
    assert one_sided.f1 == 0.0


def test_symmetry_swaps_precision_recall(attachment_pair):
    right, left = attachment_pair
    ab = parseval_f1(right, left, "unlabeled")
    ba = parseval_f1(left, right, "unlabeled")
    assert ab.precision == ba.recall and ab.recall == ba.precision
    assert ab.f1 == pytest.approx(ba.f1)


def test_projection_invariance(attachment_pair):
    right, left = attachment_pair
    times = [0.3, 0.45, 1.2, 1.25, 2.9, 4.0]  # uneven, none on a word index
    table = BoundaryTable(tuple(
        BoundaryRow(w, s, e) for w, s, e in zip(right.words, times, times[1:])
    ))
    timed_right, timed_left = (project_to_time(t, table) for t in (right, left))
    assert timed_right.starts.tolist() != right.starts.tolist()
    before = parseval_f1(right, left, "unlabeled").f1
    after = parseval_f1(timed_right, timed_left, "unlabeled").f1
    assert before == after


def test_word_count_mismatch():
    a = parse_bracketed("(S (A a) (B b))")
    b = parse_bracketed("(S (A a))")
    with pytest.raises(DataError, match="word count"):
        parseval_f1(a, b)
