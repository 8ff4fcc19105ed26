"""Sentence-level and corpus-level Struct-IoU scores.

A sentence score normalizes the optimal alignment weight by the two
trees' node counts, Dice style: 2 * objective / (n1 + n2), so identical
trees score 1. The raw (non-doubled) normalization is available behind a
flag for comparison. Corpus scores are the node-count-weighted average
of sentence scores, which keeps one-word utterances from dominating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .align import MatchMode, PairSolver
from .errors import DataError
from .treebank import ParseTree

__all__ = ["SentenceScore", "CorpusScore", "struct_iou_sentence", "struct_iou_corpus"]


@dataclass(frozen=True, slots=True)
class SentenceScore:
    value: float
    objective: float
    n1: int
    n2: int


@dataclass(frozen=True)
class CorpusScore:
    value: float
    per_sentence: tuple[SentenceScore, ...]

    @property
    def sentence_mean(self) -> float:
        if not self.per_sentence:
            return float("nan")
        return sum(s.value for s in self.per_sentence) / len(self.per_sentence)


def struct_iou_sentence(
    t1: ParseTree,
    t2: ParseTree,
    mode: MatchMode | str = MatchMode.LABELED,
    literal_normalization: bool = False,
) -> SentenceScore:
    solver = PairSolver(t1, t2, mode)
    n1, n2 = t1.node_count, t2.node_count
    objective = solver.objective
    factor = 1.0 if literal_normalization else 2.0
    return SentenceScore(
        value=factor * objective / (n1 + n2),
        objective=objective,
        n1=n1,
        n2=n2,
    )


def struct_iou_corpus(
    pairs: Iterable[tuple[ParseTree, ParseTree]],
    mode: MatchMode | str = MatchMode.LABELED,
    literal_normalization: bool = False,
) -> CorpusScore:
    """Score the pairs in order, each as it is drawn, so a generator's
    trees can be dropped once scored."""
    scores = tuple(
        struct_iou_sentence(t1, t2, mode, literal_normalization)
        for t1, t2 in pairs
    )
    if not scores:
        raise DataError("empty corpus")
    total_weight = sum(s.n1 + s.n2 for s in scores)
    value = sum((s.n1 + s.n2) * s.value for s in scores) / total_weight
    return CorpusScore(value=value, per_sentence=scores)
