"""Labeled-bracket precision/recall/F1 between parse trees.

Plain bracket scoring over word indices: one bracket per non-preterminal
node, duplicates kept, no punctuation stripping or label equivalence
classes. Scores are percentages in [0, 100].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .align import MatchMode
from .errors import DataError
from .treebank import ParseTree

__all__ = [
    "BracketSpan",
    "bracket_spans",
    "parseval_f1",
    "score_from_counts",
    "ParsevalScore",
]


@dataclass(frozen=True)
class BracketSpan:
    label: str
    start: int  # word index, inclusive
    end: int  # word index, exclusive


@dataclass(frozen=True)
class ParsevalScore:
    precision: float
    recall: float
    f1: float
    gold_brackets: int
    pred_brackets: int
    matched: int


def bracket_spans(tree: ParseTree) -> Counter:
    """Multiset of BracketSpan for every non-preterminal node.

    Word positions are leaf positions, so the result is independent of
    whatever time projection the tree carries.
    """
    first = tree.first.tolist()
    # words_before[k]: how many of the first k postorder nodes are leaves
    words_before = list(accumulate((f == i for i, f in enumerate(first)), initial=0))
    return Counter(
        BracketSpan(label, words_before[first[i]], words_before[i])
        for i, label in enumerate(tree.labels)
        if first[i] != i
    )


def parseval_f1(
    gold: ParseTree, pred: ParseTree, mode: MatchMode | str = MatchMode.LABELED
) -> ParsevalScore:
    """Bracket P/R/F1 in percent; labels ignored in unlabeled mode.

    Both empty bracket multisets count as a perfect match; exactly one
    empty counts as zero.
    """
    mode = MatchMode(mode)
    n_gold_words = len(gold.words)
    n_pred_words = len(pred.words)
    if n_gold_words != n_pred_words:
        raise DataError(
            f"word count mismatch: gold {n_gold_words}, predicted {n_pred_words}"
        )
    gold_spans = bracket_spans(gold)
    pred_spans = bracket_spans(pred)
    if mode is MatchMode.UNLABELED:
        gold_spans = _drop_labels(gold_spans)
        pred_spans = _drop_labels(pred_spans)
    matched = sum((gold_spans & pred_spans).values())
    return score_from_counts(
        matched, sum(gold_spans.values()), sum(pred_spans.values())
    )


def score_from_counts(matched: int, n_gold: int, n_pred: int) -> ParsevalScore:
    """P/R/F1 in percent from bracket counts, one sentence's or a corpus's.

    Both counts zero is a perfect match; exactly one zero scores zero.
    """
    if n_gold == 0 and n_pred == 0:
        return ParsevalScore(100.0, 100.0, 100.0, 0, 0, 0)
    precision = 100.0 * matched / n_pred if n_pred else 0.0
    recall = 100.0 * matched / n_gold if n_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return ParsevalScore(precision, recall, f1, n_gold, n_pred, matched)


def _drop_labels(spans: Counter) -> Counter:
    out: Counter = Counter()
    for span, count in spans.items():
        out[BracketSpan("", span.start, span.end)] += count
    return out
