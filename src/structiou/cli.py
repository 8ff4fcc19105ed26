"""Command-line interface.

Subcommands:
  eval          Struct-IoU between two tree files (per sentence + corpus)
  parseval      bracket precision/recall/F1 between two tree files
  perturb       seeded boundary perturbations plus degradation summary
  ambiguity     synthetic PP-attachment comparison table
  correlate     grouped Spearman correlation between two score files
  oracle-check  randomized audit of the solver against brute force

Exit codes: 0 success, 1 usage error, 2 data error, 3 self-check failure.
Reports are TSV (a header row, then "# name" note lines) or, with
--format json, JSON with non-finite values as null. All output is
deterministic given the flags and seed. Sentence pairing across files
is positional: line k of the predicted file is scored against line k
of the gold file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from itertools import repeat, zip_longest
from pathlib import Path
from typing import Iterator

import numpy as np

from .align import MatchMode, max_weight_alignment
from .ambiguity import ambiguity_report
from .errors import CapacityError, DataError, UsageError
from .metric import struct_iou_corpus
from .oracle import (
    alignment_problems,
    oracle_alignment,
    random_timed_tree,
    ted_objective,
)
from .parseval import parseval_f1, score_from_counts
from .perturb import MODES, PerturbSpec, apply_perturbation, sentence_rng
from .stats import group_sample, spearman
from .treebank import (
    BoundaryTable,
    ParseTree,
    compact_silence,
    iter_boundary_file,
    iter_tree_file,
    project_to_time,
    serialize_bracketed,
    write_boundary_file,
)
# Not called here any more: bench/tracing.py patches these two names on
# this module, so they stay importable from it.
from .treebank import read_boundary_file, read_tree_file  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return f"{x:.4f}" if isinstance(x, float) else str(x)


def _print_error(message: str) -> None:
    prefix = "error:"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


@contextlib.contextmanager
def _os_errors(path):
    """Raise an OS error inside the block as a data error naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc


def _write_text(out: str | Path | None, text: str) -> None:
    if out:
        with _os_errors(out):
            Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _tsv(rows: list[dict], notes: list[tuple] = ()) -> str:
    """Rows under a header of their keys, then one ``# name`` line per
    ``(name, *values)`` note, every cell through ``_fmt``."""
    lines = ["\t".join(rows[0])]
    lines += ["\t".join(map(_fmt, row.values())) for row in rows]
    lines += ["\t".join([f"# {name}", *map(_fmt, values)]) for name, *values in notes]
    return "\n".join(lines) + "\n"


def _finite(x):
    """``x`` with every non-finite float inside it replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_finite(v) for v in x]
    return x


def _emit(args, payload: dict, rows: list[dict], notes: list[tuple] = ()) -> None:
    """One report in ``args.format``: ``payload`` as JSON (non-finite
    floats as null), or ``rows`` and ``notes`` as TSV."""
    if args.format == "json":
        text = json.dumps(_finite(payload), indent=2) + "\n"
    else:
        text = _tsv(rows, notes)
    _write_text(args.out, text)


def _mode(args) -> MatchMode:
    return MatchMode.UNLABELED if args.unlabeled else MatchMode.LABELED


def _read(path: str, reader=iter) -> Iterator:
    """Yield what ``reader`` yields over the file (by default its lines),
    naming the file in its errors. A leading byte order mark is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            yield from reader(f)
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _in_step(first: Iterator, second: Iterator, mismatch: str) -> Iterator[tuple]:
    """Items of the two iterators in pairs. If one ends first, both are
    read to their ends, and ``mismatch`` is raised with the two counts."""
    for k, (a, b) in enumerate(zip_longest(first, second)):
        if a is None or b is None:
            raise DataError(mismatch.format(
                k + (a is not None) + sum(1 for _ in first),
                k + (b is not None) + sum(1 for _ in second),
            ))
        yield a, b


def _sentences(
    path: str, role: str, bounds: str | None = None
) -> Iterator[tuple[ParseTree, BoundaryTable | None]]:
    """One side's trees, one at a time, each with its compacted boundary
    table and projected onto it when ``bounds`` names a boundary file
    (else with None). Errors name the file, or the role and sentence."""
    trees = _read(path, iter_tree_file)
    if bounds is None:
        yield from zip(trees, repeat(None))
        return
    tables = _read(bounds, iter_boundary_file)
    blocks = _in_step(trees, tables, role + ": {} trees but {} boundary blocks")
    for k, (tree, table) in enumerate(blocks):
        table = compact_silence(table)
        try:
            timed = project_to_time(tree, table)
        except DataError as exc:
            raise DataError(f"{role} sentence {k}: {exc}") from exc
        yield timed, table


def _paired(args) -> Iterator[tuple[ParseTree, ParseTree]]:
    """The gold and predicted sentences in step, projected when ``args``
    names boundary files; unprojected trees are word-indexed, so each
    pair must have the same number of words."""
    bounds = [getattr(args, f"{role}_bounds", None) for role in ("gold", "pred")]
    sides = [_sentences(getattr(args, role), role, b)
             for role, b in zip(("gold", "pred"), bounds)]
    pairs = _in_step(*sides, "gold has {} trees but pred has {}")
    for k, ((gold, _), (pred, _)) in enumerate(pairs):
        if bounds == [None, None] and len(gold.words) != len(pred.words):
            raise DataError(f"sentence {k}: word count mismatch: "
                            f"gold {len(gold.words)}, predicted {len(pred.words)}")
        yield gold, pred


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    if args.even and (args.gold_bounds or args.pred_bounds):
        raise UsageError("--even excludes --gold-bounds/--pred-bounds")
    if not (args.even or args.gold_bounds and args.pred_bounds):
        raise UsageError(
            "eval needs either --even or both --gold-bounds and --pred-bounds"
        )
    corpus = struct_iou_corpus(
        ((pred, gold) for gold, pred in _paired(args)),
        _mode(args),
        literal_normalization=args.literal_normalization,
    )
    rows = [
        {"index": k, "n1": s.n1, "n2": s.n2, "objective": s.objective,
         "struct_iou": s.value}
        for k, s in enumerate(corpus.per_sentence)
    ]
    summary = {"value": corpus.value, "sentence_mean": corpus.sentence_mean,
               "count": len(rows)}
    _emit(args, {"sentences": rows, "corpus": summary}, rows,
          [("sentence_mean", corpus.sentence_mean), ("corpus", corpus.value)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parseval


def cmd_parseval(args) -> int:
    mode = _mode(args)
    scores = [parseval_f1(g, p, mode) for g, p in _paired(args)]
    if not scores:
        raise DataError("empty corpus")
    micro = score_from_counts(
        sum(s.matched for s in scores),
        sum(s.gold_brackets for s in scores),
        sum(s.pred_brackets for s in scores),
    )
    rows = [
        {"index": k, "precision": s.precision, "recall": s.recall, "f1": s.f1,
         "gold_brackets": s.gold_brackets, "pred_brackets": s.pred_brackets}
        for k, s in enumerate(scores)
    ]
    prf = {"precision": micro.precision, "recall": micro.recall, "f1": micro.f1}
    _emit(args, {"sentences": rows, "micro": prf}, rows, [("micro", *prf.values())])
    return EXIT_OK


# ---------------------------------------------------------------------------
# perturb


def cmd_perturb(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    spec = PerturbSpec(args.mode, args.delta, args.seed)
    sentences = list(_sentences(args.gold, "gold", args.gold_bounds))
    if not sentences:
        raise DataError("empty corpus")
    reference = [timed for timed, _ in sentences]
    out_dir = Path(args.out)
    with _os_errors(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    mode = _mode(args)
    rep_means = []
    for rep in range(args.reps):
        perturbed_trees: list[ParseTree] = []
        perturbed_tables: list[BoundaryTable] = []
        for k, (timed, table) in enumerate(sentences):
            rng = sentence_rng(args.seed, rep, k)
            new_tree, new_table = apply_perturbation(timed, table, spec, rng)
            perturbed_trees.append(new_tree)
            perturbed_tables.append(new_table)
        path = out_dir / f"rep{rep}.trees"
        with _os_errors(path), open(path, "w", encoding="utf-8") as f:
            for t in perturbed_trees:
                f.write(serialize_bracketed(t) + "\n")
        path = out_dir / f"rep{rep}.bounds"
        with _os_errors(path), open(path, "w", encoding="utf-8") as f:
            write_boundary_file(perturbed_tables, f)
        corpus = struct_iou_corpus(
            zip(perturbed_trees, reference),
            mode,
            literal_normalization=args.literal_normalization,
        )
        rep_means.append(corpus.sentence_mean)
    mean = float(np.mean(rep_means))
    stddev = float(np.std(rep_means))
    summary = {"mode": args.mode, "delta": str(args.delta), "reps": args.reps,
               "mean_struct_iou": mean, "stddev_struct_iou": stddev}
    _write_text(out_dir / "summary.tsv", _tsv([summary]))
    print(f"wrote {args.reps} repetitions to {out_dir} (mean {_fmt(mean)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ambiguity


def cmd_ambiguity(args) -> int:
    report = dataclasses.asdict(
        ambiguity_report(args.n, args.samples, args.seed, args.gt_index)
    )
    _emit(args, report, [report])
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate


def _read_score_records(path: str) -> list[tuple[float, float]]:
    """Per-sentence (numerator, denominator) pairs from a score TSV.

    Understands the eval format (node-count-weighted struct_iou), the
    parseval format (micro-F1 reconstruction from counts), and generic
    index/value files (plain mean).
    """
    lines = [
        ln.rstrip("\n") for ln in _read(path) if ln.strip() and not ln.startswith("#")
    ]
    if not lines:
        raise DataError(f"{path}: no rows")
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:]]
    col = {name: i for i, name in enumerate(header)}

    def number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(text)
        return value

    def need(row, name):
        try:
            return number(row[col[name]])
        except (ValueError, IndexError):
            raise DataError(f"{path}: bad value in column {name!r}") from None

    records = []
    if {"struct_iou", "n1", "n2"} <= col.keys():
        for row in rows:
            weight = need(row, "n1") + need(row, "n2")
            records.append((weight * need(row, "struct_iou"), weight))
    elif {"recall", "gold_brackets", "pred_brackets"} <= col.keys():
        for row in rows:
            gold_b = need(row, "gold_brackets")
            pred_b = need(row, "pred_brackets")
            matched = round(need(row, "recall") * gold_b / 100.0)
            records.append((200.0 * matched, gold_b + pred_b))
    elif "value" in col:
        for row in rows:
            records.append((need(row, "value"), 1.0))
    elif len(header) == 2:
        # headerless two-column file: index, value
        for row in [header, *rows]:
            try:
                records.append((number(row[1]), 1.0))
            except (ValueError, IndexError):
                raise DataError(f"{path}: expected numeric second column") from None
    else:
        raise DataError(f"{path}: unrecognized score file format")
    if not records:  # a header with no data row
        raise DataError(f"{path}: no rows")
    return records


def cmd_correlate(args) -> int:
    rec_a = _read_score_records(args.file_a)
    rec_b = _read_score_records(args.file_b)
    if len(rec_a) != len(rec_b):
        raise DataError(
            f"row count mismatch: {len(rec_a)} vs {len(rec_b)}"
        )
    for path, recs in ((args.file_a, rec_a), (args.file_b, rec_b)):
        empty = sum(den == 0 for _, den in recs)
        if 0 < args.group_size <= empty:
            raise DataError(
                f"{path}: {empty} sentences have zero weight (no brackets), "
                f"so a group of {args.group_size} can have nothing to average"
            )
    grouped = group_sample(rec_a, rec_b, args.group_size, args.seed, args.groups)
    rho = spearman(*zip(*grouped))
    degenerate = any(len(set(values)) < 2 for values in zip(*grouped))
    if degenerate:
        _print_error("degenerate grouping: a metric is constant across groups")
    rows = [
        {"group": k, "metric_a": a, "metric_b": b}
        for k, (a, b) in enumerate(grouped)
    ]
    payload = {
        "groups": [{"metric_a": a, "metric_b": b} for a, b in grouped],
        "spearman": rho,
        "degenerate": degenerate,
    }
    notes = [("spearman", rho)] + ([("degenerate", "true")] if degenerate else [])
    _emit(args, payload, rows, notes)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-check


def _tree_payload(tree: ParseTree) -> dict:
    """A tree that ``parse_bracketed`` reads back, with its node times."""
    return {"bracketed": serialize_bracketed(tree),
            "starts": tree.starts.tolist(), "ends": tree.ends.tolist()}


def cmd_oracle_check(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    failures = 0
    for trial in range(args.trials):
        t1 = random_timed_tree(rng, args.max_nodes)
        t2 = random_timed_tree(rng, args.max_nodes)
        mode = MatchMode.LABELED if trial % 2 else MatchMode.UNLABELED
        dp = max_weight_alignment(t1, t2, mode)
        problems = alignment_problems(t1, t2, dp, mode)
        try:
            reference = "oracle"
            ref = oracle_alignment(t1, t2, mode).objective
        except CapacityError:  # too big for branch and bound
            reference, ref = "ted", ted_objective(t1, t2, mode)
        mismatch = abs(dp.objective - ref) > 1e-9
        if mismatch or problems:
            failures += 1
            out_dir = Path(args.out) if args.out else Path.cwd()
            with _os_errors(out_dir):
                out_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "trial": trial,
                "mode": mode.value,
                "solver_objective": dp.objective,
                "oracle_objective": ref,
                "reference": reference,
                "problems": problems,
                "tree1": _tree_payload(t1),
                "tree2": _tree_payload(t2),
            }
            path = out_dir / f"oracle_counterexample_{trial}.json"
            _write_text(path, json.dumps(payload, indent=2) + "\n")
            reason = (f"solver {dp.objective!r} != {reference} {ref!r}"
                      if mismatch else problems[0])
            _print_error(f"trial {trial}: {reason}; wrote {path}")
    print(f"trials={args.trials} passed={args.trials - failures} failed={failures}")
    return EXIT_CHECK if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--labeled", action="store_true", default=True,
                   help="match only equal-label nodes (default)")
    g.add_argument("--unlabeled", action="store_true",
                   help="ignore labels when matching")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", help="output file (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing, and ``main`` may run many times in one process."""
    parser = _Parser(prog="structiou", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="Struct-IoU between two tree files")
    p.add_argument("--gold", required=True, help="gold tree file, one per line")
    p.add_argument("--pred", required=True, help="predicted tree file")
    p.add_argument("--gold-bounds", help="gold boundary file (TSV blocks)")
    p.add_argument("--pred-bounds", help="predicted boundary file")
    p.add_argument("--even", action="store_true",
                   help="project onto unit-length word segments instead of "
                        "boundary files")
    p.add_argument("--literal-normalization", action="store_true",
                   help="divide the alignment weight by n1+n2 without the "
                        "factor 2 (identical trees then score 0.5)")
    _add_mode_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("parseval", help="bracket P/R/F1 between two tree files")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    _add_mode_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_parseval)

    p = sub.add_parser("perturb",
                       help="perturb word boundaries and score degradation")
    p.add_argument("--gold", required=True, help="tree file to perturb")
    p.add_argument("--gold-bounds", required=True, help="matching boundary file")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--delta", required=True, type=float,
                   help="perturbation level in [0, 1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5,
                   help="independent repetitions (default 5)")
    p.add_argument("--literal-normalization", action="store_true")
    p.add_argument("--out", required=True,
                   help="output directory for perturbed corpora and summary")
    _add_mode_flags(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("ambiguity",
                       help="synthetic PP-attachment comparison table")
    p.add_argument("--n", required=True, type=int,
                   help="number of P-N repetitions in the template")
    p.add_argument("--samples", type=int, default=100,
                   help="random baseline trees (default 100)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--gt-index", type=int, default=None,
                   help="which plausible parse is the ground truth "
                        "(default: a fixed parse per template size)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ambiguity)

    p = sub.add_parser("correlate",
                       help="grouped Spearman correlation of two score files")
    p.add_argument("file_a", help="per-sentence score TSV (metric A)")
    p.add_argument("file_b", help="per-sentence score TSV (metric B)")
    p.add_argument("--group-size", type=int, default=10,
                   help="sentences per group (default 10)")
    p.add_argument("--groups", type=int, default=100,
                   help="number of groups; sampled with replacement across "
                        "groups, without within (default 100)")
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("oracle-check",
                       help="randomized solver-vs-brute-force audit")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for counterexample dumps")
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, CapacityError) as exc:
        _print_error(str(exc))
        return EXIT_USAGE
    except DataError as exc:
        _print_error(str(exc))
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
