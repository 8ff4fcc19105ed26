"""Spans recorded around calls into structiou's public functions.

The tracer patches the names that callers look up at call time (for
example ``structiou.cli.read_tree_file`` and ``structiou.metric.PairSolver``)
with wrappers that record one span per call: name, start, end, parent
span and run id. Nothing inside the package is edited; the patches are
undone when the ``installed`` context exits, so untraced operations run
the program exactly as shipped.

Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import structiou.align
import structiou.cli
import structiou.metric

# (module, attribute, span name). The span name is "<layer>.<function>".
PATCH_POINTS = (
    (structiou.cli, "main", "cli.main"),
    (structiou.cli, "read_tree_file", "treebank.read_tree_file"),
    (structiou.cli, "read_boundary_file", "treebank.read_boundary_file"),
    (structiou.cli, "compact_silence", "treebank.compact_silence"),
    (structiou.cli, "project_to_time", "treebank.project_to_time"),
    (structiou.cli, "serialize_bracketed", "treebank.serialize_bracketed"),
    (structiou.cli, "write_boundary_file", "treebank.write_boundary_file"),
    (structiou.cli, "struct_iou_corpus", "metric.struct_iou_corpus"),
    (structiou.cli, "apply_perturbation", "perturb.apply_perturbation"),
    (structiou.cli, "sentence_rng", "perturb.sentence_rng"),
    (structiou.metric, "PairSolver", "align.PairSolver"),
    (structiou.align, "PairSolver", "align.PairSolver"),
    (structiou.align, "max_weight_alignment", "align.max_weight_alignment"),
)
# PairSolver.alignment() is a method, so it is patched on the class.
RECOVER_SPAN = "align.alignment"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters for one benchmark run, held in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.solve_peaks: list[int] = []  # bytes, filled only under tracemalloc
        self.run = -1
        self._stack: list[int] = []
        self._trees: dict[int, object] = {}  # id -> tree, held so ids stay unique
        self._tree_uses = 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin_run(self, run: int) -> None:
        """Start the spans of one timed operation."""
        self.run = run
        self._end_tree_uses()

    def finish(self) -> None:
        self._end_tree_uses()

    def _end_tree_uses(self) -> None:
        # Tree identity is only meaningful within one operation; holding
        # the trees until here keeps CPython from reusing their ids.
        if self._trees:
            self.count("align.distinct_trees", len(self._trees))
            self.count("align.tree_uses", self._tree_uses)
        self._trees.clear()
        self._tree_uses = 0

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(index)
        measure_memory = name == "align.PairSolver" and tracemalloc.is_tracing()
        if measure_memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if measure_memory:
            self.solve_peaks.append(tracemalloc.get_traced_memory()[1] - base)
        self._observe(name, args, result)
        return result

    def _observe(self, name: str, args, result) -> None:
        """Counters taken at the same boundary as the span."""
        if name == "align.PairSolver":
            t1, t2 = args[0], args[1]
            self.count("align.node_pairs", t1.node_count * t2.node_count)
            for tree in (t1, t2):
                self._trees[id(tree)] = tree
            self._tree_uses += 2
        elif name == "treebank.read_tree_file":
            self.count("treebank.trees_read", len(result))
            self.count("treebank.bytes_read", _stream_size(args[0]))
        elif name == "treebank.read_boundary_file":
            self.count("treebank.bytes_read", _stream_size(args[0]))
        elif name == "treebank.serialize_bracketed":
            self.count("treebank.bytes_written", len(result.encode("utf-8")))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "run": span.run,
                }) + "\n")

    # -- derived figures ----------------------------------------------

    def durations(self, *names: str) -> list[float]:
        return [s.duration for s in self.spans if s.name in names]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Calls are synchronous and single-threaded, so children nest inside
        their parent and never overlap one another.
        """
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def self_time(self, *names: str) -> list[float]:
        own = self.self_times()
        return [own[i] for i, s in enumerate(self.spans) if s.name in names]


def _stream_size(stream) -> int:
    try:
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _wrap_write_boundary_file(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(tables, stream):
        before = stream.tell()
        result = tracer.call("treebank.write_boundary_file", fn, (tables, stream), {})
        tracer.count("treebank.bytes_written", stream.tell() - before)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route the patch points through ``tracer`` for the duration."""
    solver_class = structiou.align.PairSolver
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCH_POINTS]
    saved_alignment = solver_class.alignment
    try:
        for module, attr, name in PATCH_POINTS:
            original = getattr(module, attr)
            if name == "treebank.write_boundary_file":
                setattr(module, attr, _wrap_write_boundary_file(tracer, original))
            else:
                setattr(module, attr, _wrap(tracer, name, original))
        solver_class.alignment = _wrap(tracer, RECOVER_SPAN, saved_alignment)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
        solver_class.alignment = saved_alignment
