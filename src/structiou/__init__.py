"""Struct-IoU: similarity between constituency parse trees over time intervals."""

from .align import Alignment, MatchMode, PairSolver, max_weight_alignment
from .ambiguity import (
    AmbiguityReport,
    ambiguity_report,
    enumerate_plausible,
    random_binary_tree,
    template_words,
)
from .intervals import OpenInterval, iou
from .metric import CorpusScore, SentenceScore, struct_iou_corpus, struct_iou_sentence
from .oracle import (
    OracleVariant,
    alignment_problems,
    oracle_alignment,
    random_timed_tree,
)
from .parseval import BracketSpan, ParsevalScore, bracket_spans, parseval_f1
from .perturb import (
    PerturbSpec,
    perturb_delete,
    perturb_insert,
    perturb_noise,
    sentence_rng,
)
from .stats import GroupRecord, GroupedScores, group_sample, spearman
from .treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
    compact_silence,
    iter_boundary_file,
    iter_tree_file,
    parse_bracketed,
    project_to_time,
    read_boundary_file,
    read_tree_file,
    serialize_bracketed,
    validate,
)

__version__ = "0.1.0"
