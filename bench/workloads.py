"""Benchmark workloads: seeded inputs, the timed operation, output checks.

Every input is a function of (seed, stream, item index) only, so a seed
gives the same inputs whatever the run length, and operation ``i`` of a
workload always sees the same files or trees. The program receives only
those inputs: files for the CLI workloads, tree objects for the pair
workloads. Each workload cycles over CHUNKS inputs, drawn together so
that their summed cost varies little from seed to seed (spread_sample).

Each workload has three steps per operation:
  op(i)       untimed; the inputs of operation i, generated on first use
  run(op)     timed; one closed-loop call into structiou
  check(op)   untimed; returns (problems, digest of the output)
and ``audit()``, run once after the timed loop, for checks too slow to
repeat per operation (the oracle audit).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import structiou.align
import structiou.cli
from structiou.align import MatchMode
from structiou.ambiguity import random_binary_tree
from structiou.intervals import OpenInterval
from structiou.oracle import OracleVariant, oracle_alignment, random_timed_tree
from structiou.perturb import PerturbSpec, apply_perturbation, perturb_noise
from structiou.treebank import (
    BoundaryRow,
    BoundaryTable,
    ParseTree,
    TreeNode,
    compact_silence,
    iter_nodes,
    leaves,
    project_to_time,
    read_boundary_file,
    read_tree_file,
    serialize_bracketed,
    write_boundary_file,
)

DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")
PERTURB_MODES = ("noise", "insert", "delete")
CANDIDATES = 600  # random_timed_tree draws per gold corpus, see gold_chunk

# Seed streams, one per kind of generated item.
STREAM_CORPUS, STREAM_PRED, STREAM_BINARY, STREAM_CHAIN, STREAM_SWEEP = range(5)


def item_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, k)))


def leaf_table(tree: ParseTree) -> BoundaryTable:
    """One boundary row per leaf, with plain float times.

    random_timed_tree leaves carry numpy scalars; under numpy 2
    write_boundary_file would print them as ``np.float64(...)``, which
    read_boundary_file rejects.
    """
    return BoundaryTable(tuple(
        BoundaryRow(leaf.word, float(leaf.start), float(leaf.end))
        for leaf in leaves(tree.root)
    ))


def alignment_cells(tree: ParseTree) -> int:
    """Depth sum times node count: a proxy for the cost of aligning the tree.

    The depth sum counts the rows the DP walks (every descendant of every
    node) and the node count the width of each row; the product tracks
    measured solve time with correlation about 0.97.
    """
    depth_sum, stack = 0, [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        depth_sum += depth
        stack.extend((child, depth + 1) for child in node.children)
    return depth_sum * tree.node_count


def spread_sample(candidates: list[ParseTree], count: int, rng) -> list[ParseTree]:
    """``count`` candidates evenly spaced in alignment cost, in random order.

    Systematic sampling over the candidates sorted by cost: every sample
    has close to the natural cost profile, so samples on different seeds
    cost about the same to score. Pair cost spans two orders of magnitude,
    so plain random samples of a few dozen trees differ by 10-20%.
    """
    pool = sorted(candidates, key=alignment_cells)
    step = len(pool) / count
    offset = rng.uniform(0.0, step)
    kept = [pool[int(offset + k * step)] for k in range(count)]
    return [kept[k] for k in rng.permutation(count)]


def gold_chunk(seed: int, stream: int, chunk: int, count: int, max_nodes: int):
    """``count`` random_timed_tree draws, spread over alignment cost."""
    rng = item_rng(seed, stream, chunk)
    candidates = [random_timed_tree(rng, max_nodes) for _ in range(max(CANDIDATES, count))]
    return spread_sample(candidates, count, rng)


def perturbed_pair(gold: ParseTree, rng):
    """The gold's boundary table, and a perturbed prediction with its table.

    The prediction is a noise, insert or delete perturbation of the gold
    at a random level, so the two word segmentations usually differ. The
    tables are what the boundary files hold; the trees are word-indexed
    until projected.
    """
    gold_table = leaf_table(gold)
    compact = compact_silence(gold_table)
    timed = project_to_time(gold, compact)
    mode = PERTURB_MODES[int(rng.integers(len(PERTURB_MODES)))]
    spec = PerturbSpec(mode, float(rng.uniform(0.1, 0.5)), 0)
    pred, pred_table = apply_perturbation(timed, compact, spec, rng)
    if mode == "noise":
        pred = project_to_time(gold, pred_table)
    return gold_table, pred, pred_table


def chain_tree(words: int) -> ParseTree:
    """Right-branching chain: every internal node has a leaf on its left."""
    node = TreeNode("X", OpenInterval(float(words - 1), float(words)),
                    word=f"w{words - 1}")
    for k in range(words - 2, -1, -1):
        leaf = TreeNode("X", OpenInterval(float(k), float(k + 1)), word=f"w{k}")
        node = TreeNode("X", OpenInterval(float(k), float(words)),
                        children=(leaf, node))
    return ParseTree(node)


def jittered(tree: ParseTree, delta: float, rng) -> ParseTree:
    """The same tree over noise-perturbed word boundaries."""
    return project_to_time(tree, perturb_noise(leaf_table(tree), delta, rng))


def write_corpus(directory: Path, stem: str, trees, tables) -> tuple[Path, Path]:
    tree_path = directory / f"{stem}.trees"
    bound_path = directory / f"{stem}.bounds"
    tree_path.write_text("".join(serialize_bracketed(t) + "\n" for t in trees),
                         encoding="utf-8")
    with open(bound_path, "w", encoding="utf-8") as f:
        write_boundary_file(tables, f)
    return tree_path, bound_path


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(key: str) -> str | None:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(key)


@dataclass
class Op:
    index: int  # identifies the input: equal indices mean equal inputs
    pairs: int  # sentence pairs the operation scores
    data: dict = field(default_factory=dict)


@dataclass
class CorpusStats:
    pairs: int = 0
    trees: int = 0
    nodes: int = 0
    nodes_max: int = 0
    bytes: int = 0

    def add_trees(self, trees) -> None:
        for t in trees:
            self.trees += 1
            self.nodes += t.node_count
            self.nodes_max = max(self.nodes_max, t.node_count)

    def summary(self) -> dict[str, float]:
        return {
            "pairs": self.pairs,
            "nodes_mean": self.nodes / max(self.trees, 1),
            "nodes_max": self.nodes_max,
            "bytes": self.bytes,
        }


class Workload:
    name = ""
    CHUNKS = 1  # distinct inputs, cycled over
    MEMORY_OPS = 1  # inputs the memory pass covers, from the first

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.stats = CorpusStats()
        self.first_op: Op | None = None
        self._chunks: dict[int, Op] = {}

    def op(self, i: int) -> Op:
        key = i % self.CHUNKS
        if key not in self._chunks:
            self._chunks[key] = self.prepare(key)
        return self._chunks[key]

    def digest_key(self) -> str:
        """Key of this workload's recorded digest; it names every size."""
        raise NotImplementedError

    def audit(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# corpus_eval


class CorpusEval(Workload):
    name = "corpus_eval"
    PAIRS = 150  # per eval call
    CHUNKS = 4
    MEMORY_OPS = 2
    MAX_NODES = 60
    AUDIT_PAIRS = 6
    AUDIT_MAX_PRODUCT = 64  # branch-and-bound cost explodes past this

    def digest_key(self) -> str:
        return (f"{self.name} seed={self.seed} pairs={self.PAIRS} "
                f"max_nodes={self.MAX_NODES} candidates={CANDIDATES}")

    def prepare(self, i: int) -> Op:
        directory = self.workdir / f"chunk{i}"
        directory.mkdir(parents=True, exist_ok=True)
        gold = gold_chunk(self.seed, STREAM_CORPUS, i, self.PAIRS, self.MAX_NODES)
        items = [perturbed_pair(g, item_rng(self.seed, STREAM_PRED, i * self.PAIRS + k))
                 for k, g in enumerate(gold)]
        gold_tab, pred, pred_tab = (list(col) for col in zip(*items))
        gold_path, gold_bounds = write_corpus(directory, "gold", gold, gold_tab)
        pred_path, pred_bounds = write_corpus(directory, "pred", pred, pred_tab)
        out = directory / "eval.tsv"
        self.stats.pairs += self.PAIRS
        self.stats.add_trees(gold + pred)
        self.stats.bytes += sum(p.stat().st_size for p in
                                (gold_path, gold_bounds, pred_path, pred_bounds))
        argv = ["eval", "--gold", str(gold_path), "--pred", str(pred_path),
                "--gold-bounds", str(gold_bounds), "--pred-bounds", str(pred_bounds),
                "--out", str(out)]
        sizes = [(p.node_count, g.node_count) for p, g in zip(pred, gold)]
        return Op(i, self.PAIRS, {"argv": argv, "out": out, "sizes": sizes,
                                  "dir": directory})

    def run(self, op: Op):
        return structiou.cli.main(op.data["argv"])

    def check(self, op: Op, result) -> tuple[list[str], str]:
        if result != 0:
            return [f"eval exited {result}"], ""
        text = op.data["out"].read_text(encoding="utf-8")
        return eval_output_problems(text, op.data["sizes"]), sha256_text(text)

    def audit(self) -> list[str]:
        """Oracle objectives for the smallest pairs of the first operation."""
        op = self.first_op
        rows = parse_eval_tsv(op.data["out"].read_text(encoding="utf-8"))[0]
        eligible = [k for k, (n1, n2) in enumerate(op.data["sizes"])
                    if n1 * n2 <= self.AUDIT_MAX_PRODUCT][: self.AUDIT_PAIRS]
        if not eligible:
            return ["oracle audit: no eligible pair in the first chunk"]
        directory = op.data["dir"]
        pred = read_projected(directory / "pred.trees", directory / "pred.bounds")
        gold = read_projected(directory / "gold.trees", directory / "gold.bounds")
        problems = []
        for k in eligible:
            ref = oracle_alignment(pred[k], gold[k], MatchMode.LABELED,
                                   OracleVariant.ORDER_CONSISTENT)
            reported = rows[k][2]
            # eval prints objectives to 4 decimals
            if abs(ref.objective - reported) > 5.01e-5:
                problems.append(f"oracle audit: pair {k} objective {reported} "
                                f"!= oracle {ref.objective:.6f}")
        return problems


def read_projected(tree_path: Path, bound_path: Path) -> list[ParseTree]:
    with open(tree_path, encoding="utf-8") as f:
        trees = read_tree_file(f)
    with open(bound_path, encoding="utf-8") as f:
        tables = read_boundary_file(f)
    return [project_to_time(t, compact_silence(tab)) for t, tab in zip(trees, tables)]


def parse_eval_tsv(text: str):
    """(rows of (n1, n2, objective, struct_iou), footer values by name)."""
    lines = text.splitlines()
    if not lines or lines[0] != "index\tn1\tn2\tobjective\tstruct_iou":
        raise ValueError("missing eval header")
    rows, footer = [], {}
    for line in lines[1:]:
        cells = line.split("\t")
        if line.startswith("# "):
            footer[cells[0][2:]] = float(cells[1])
        else:
            if int(cells[0]) != len(rows):
                raise ValueError(f"row index {cells[0]} out of order")
            rows.append((int(cells[1]), int(cells[2]), float(cells[3]),
                         float(cells[4])))
    return rows, footer


def eval_output_problems(text: str, sizes: list[tuple[int, int]]) -> list[str]:
    """Structural and arithmetic checks on one eval TSV."""
    try:
        rows, footer = parse_eval_tsv(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable eval output: {exc}"]
    if len(rows) != len(sizes):
        return [f"eval printed {len(rows)} rows for {len(sizes)} pairs"]
    problems = []
    tol = 1.01e-4  # two values each rounded to 4 decimals
    for k, ((n1, n2, obj, score), expected) in enumerate(zip(rows, sizes)):
        if (n1, n2) != expected:
            problems.append(f"row {k}: node counts {(n1, n2)} != {expected}")
        elif not (0.0 <= score <= 1.0 and -tol <= obj <= min(n1, n2) + tol):
            problems.append(f"row {k}: score {score} or objective {obj} out of range")
        elif abs(score - 2 * obj / (n1 + n2)) > tol:
            problems.append(f"row {k}: score {score} != 2*{obj}/({n1}+{n2})")
    if set(footer) != {"sentence_mean", "corpus"}:
        problems.append(f"eval footer has {sorted(footer)}")
    elif rows:
        weight = sum(n1 + n2 for n1, n2, _, _ in rows)
        corpus = sum((n1 + n2) * s for n1, n2, _, s in rows) / weight
        mean = sum(s for _, _, _, s in rows) / len(rows)
        if abs(corpus - footer["corpus"]) > tol or abs(mean - footer["sentence_mean"]) > tol:
            problems.append("eval footer disagrees with its rows")
    return problems


# ---------------------------------------------------------------------------
# large pairs


class LargePairs(Workload):
    """One large tree against a boundary-jittered copy of itself per op."""

    WORDS = 100
    JITTER = 0.3
    CHUNKS = 6
    stream = -1
    _trees: list[ParseTree] | None = None

    def digest_key(self) -> str:
        return (f"{self.name} seed={self.seed} words={self.WORDS} "
                f"jitter={self.JITTER} chunks={self.CHUNKS}")

    def tree(self, rng) -> ParseTree:
        raise NotImplementedError

    def prepare(self, i: int) -> Op:
        if self._trees is None:
            rng = item_rng(self.seed, self.stream, 0)
            candidates = [self.tree(rng) for _ in range(4 * self.CHUNKS)]
            self._trees = spread_sample(candidates, self.CHUNKS, rng)
        tree = self._trees[i]
        pair = (jittered(tree, self.JITTER, item_rng(self.seed, self.stream, i + 1)), tree)
        self.stats.pairs += 1
        self.stats.add_trees(pair)
        return Op(i, 1, {"pair": pair})

    def run(self, op: Op):
        t1, t2 = op.data["pair"]
        return structiou.align.max_weight_alignment(t1, t2, MatchMode.LABELED)

    def check(self, op: Op, result) -> tuple[list[str], str]:
        t1, t2 = op.data["pair"]
        problems = alignment_problems(t1, t2, result, labeled=True)
        return problems, sha256_text(f"{result.objective:.9f}")


class LargeBinary(LargePairs):
    name = "large_binary"
    stream = STREAM_BINARY

    def tree(self, rng) -> ParseTree:
        return random_binary_tree(self.WORDS, rng)


class LargeChain(LargePairs):
    name = "large_chain"
    CHUNKS = 2
    stream = STREAM_CHAIN

    def tree(self, rng) -> ParseTree:
        return chain_tree(self.WORDS)


def _preorder(tree: ParseTree) -> dict[int, tuple[int, int]]:
    """id(node) -> (preorder index, one past the last index of its subtree)."""
    nodes = list(iter_nodes(tree.root))
    spans = {}
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        end = spans[id(node.children[-1])][1] if node.children else i + 1
        spans[id(node)] = (i, end)
    return spans


def alignment_problems(t1: ParseTree, t2: ParseTree, alignment, labeled: bool) -> list[str]:
    """Feasibility of a matching, and its IoU sum against its objective.

    Feasible: every node belongs to its tree and is used once per side,
    ancestry between any two matched nodes is mirrored on the other side,
    and unrelated nodes keep their left-to-right order.
    """
    span1, span2 = _preorder(t1), _preorder(t2)
    pairs = []
    for p, q in alignment.pairs:
        if id(p) not in span1 or id(q) not in span2:
            return ["alignment names a node outside its tree"]
        if labeled and p.label != q.label:
            return [f"labeled alignment matches {p.label} to {q.label}"]
        pairs.append((span1[id(p)], span2[id(q)], p, q))
    if len({a[0] for a in pairs}) != len(pairs) or len({a[1] for a in pairs}) != len(pairs):
        return ["alignment reuses a node"]
    for a, ((i1, e1), (j1, f1), _, _) in enumerate(pairs):
        for (i2, e2), (j2, f2), _, _ in pairs[a + 1:]:
            below1, above1 = i1 < i2 < e1, i2 < i1 < e2
            below2, above2 = j1 < j2 < f1, j2 < j1 < f2
            if below1 != below2 or above1 != above2:
                return ["alignment breaks ancestry"]
            if not below1 and not above1 and (i1 < i2) != (j1 < j2):
                return ["alignment crosses"]
    total = 0.0
    for _, _, p, q in pairs:
        inter = max(0.0, min(p.end, q.end) - max(p.start, q.start))
        total += inter / ((p.end - p.start) + (q.end - q.start) - inter)
    if abs(total - alignment.objective) > 1e-9 * max(1.0, total):
        return [f"matched IoU sum {total!r} != objective {alignment.objective!r}"]
    return []


# ---------------------------------------------------------------------------
# perturb_sweep


class PerturbSweep(Workload):
    """One ``structiou perturb`` call per op; inputs are (gold corpus, mode)."""

    name = "perturb_sweep"
    GOLD_TREES = 20  # per perturb call
    CORPORA = 2
    CHUNKS = CORPORA * len(PERTURB_MODES)
    MEMORY_OPS = CHUNKS  # a 20-tree call's peak hangs on its largest tree
    REPS = 2
    DELTA = 0.3
    MAX_NODES = 60

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._leaf_counts: dict[int, list[int]] = {}  # per gold corpus

    def digest_key(self) -> str:
        return (f"{self.name} seed={self.seed} trees={self.GOLD_TREES} "
                f"reps={self.REPS} delta={self.DELTA} max_nodes={self.MAX_NODES} "
                f"candidates={CANDIDATES}")

    def prepare(self, i: int) -> Op:
        corpus, mode_index = divmod(i, len(PERTURB_MODES))
        mode = PERTURB_MODES[mode_index]
        directory = self.workdir / f"sweep{corpus}"
        if corpus not in self._leaf_counts:
            directory.mkdir(parents=True, exist_ok=True)
            gold = gold_chunk(self.seed, STREAM_SWEEP, corpus, self.GOLD_TREES,
                              self.MAX_NODES)
            tables = [leaf_table(t) for t in gold]
            paths = write_corpus(directory, "gold", gold, tables)
            self.stats.add_trees(gold)
            self.stats.bytes += sum(p.stat().st_size for p in paths)
            self._leaf_counts[corpus] = [len(t.rows) for t in tables]
        argv = ["perturb", "--gold", str(directory / "gold.trees"),
                "--gold-bounds", str(directory / "gold.bounds"), "--mode", mode,
                "--delta", str(self.DELTA), "--seed", str(self.seed),
                "--reps", str(self.REPS), "--out", str(directory / mode)]
        self.stats.pairs += self.GOLD_TREES * self.REPS
        return Op(i, self.GOLD_TREES * self.REPS,
                  {"argv": argv, "out": directory / mode, "mode": mode,
                   "leaf_counts": self._leaf_counts[corpus]})

    def run(self, op: Op):
        return structiou.cli.main(op.data["argv"])

    def check(self, op: Op, result) -> tuple[list[str], str]:
        if result != 0:
            return [f"perturb exited {result}"], ""
        out, mode = op.data["out"], op.data["mode"]
        problems, digest = [], hashlib.sha256()
        for rep in range(self.REPS):
            for suffix in ("trees", "bounds"):
                digest.update((out / f"rep{rep}.{suffix}").read_bytes())
            problems += self._rep_problems(out, rep, mode, op.data["leaf_counts"])
        summary = (out / "summary.tsv").read_text(encoding="utf-8")
        digest.update(summary.encode("utf-8"))
        problems += self._summary_problems(summary, mode)
        return problems, digest.hexdigest()

    def _rep_problems(self, out: Path, rep: int, mode: str, leaf_counts) -> list[str]:
        """A written repetition reads back and projects cleanly."""
        where = f"{mode}/rep{rep}"
        try:
            trees = read_projected(out / f"rep{rep}.trees", out / f"rep{rep}.bounds")
        except (OSError, ValueError) as exc:  # DataError is a ValueError
            return [f"{where} does not read back: {exc}"]
        if len(trees) != len(leaf_counts):
            return [f"{where} holds {len(trees)} trees, expected {len(leaf_counts)}"]
        if mode == "noise":
            got = [len(leaves(t.root)) for t in trees]
            if got != leaf_counts:
                return [f"{where}: noise changed a word count"]
        return []

    def _summary_problems(self, summary: str, mode: str) -> list[str]:
        lines = summary.splitlines()
        try:
            got_mode, delta, reps, mean, std = lines[1].split("\t")
            ok = (got_mode == mode and float(delta) == self.DELTA
                  and int(reps) == self.REPS and 0.0 < float(mean) <= 1.0
                  and float(std) >= 0.0)
        except (IndexError, ValueError):
            ok = False
        return [] if ok else [f"{mode}: bad summary {summary!r}"]


WORKLOADS = {w.name: w for w in (CorpusEval, LargeBinary, LargeChain, PerturbSweep)}
