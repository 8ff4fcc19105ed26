"""Struct-IoU benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 bench/run.py --workload corpus_eval --seed 0 --seconds 16 --trace 0

Workloads are listed in bench/workloads.py and explained in
bench/README.md. A single client starts each operation only after the
previous one has returned; there are no threads. Every output is
checked. With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics from the traced ones.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics. Spans
and the full result are written under bench/out/. The exit code is 0
when every operation and check passed, 1 when any failed, and 2 when
the structiou sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_SAMPLES = 7
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport structiou.cli\n"
                "print(time.perf_counter() - t)")

# Reported in the JSON line: with --trace 0 the first table, with --trace 1
# the second. Per-layer metrics there are the ones every workload fires or
# counts; layer times that only some workloads reach are printed as text
# lines (see bench/README.md).
END_TO_END = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "peak_mem_mb": "MB",
}
PER_LAYER = {
    "align.solve_s": "s",
    "align.solve_p50_ms": "ms",
    "align.solve_p99_ms": "ms",
    "align.solves": "count",
    "align.node_pairs": "count",
    "align.uses_per_tree": "ratio",
    "align.peak_mem_mb": "MB",
    "treebank.trees_read": "count",
    "treebank.bytes_read": "B",
    "treebank.bytes_written": "B",
    "trace.overhead_pct": "%",
}
# Layer times derived from spans: metric -> (unit, span names, self time?).
LAYER_TIMES = {
    "treebank.read_s": ("s", ("treebank.read_tree_file", "treebank.read_boundary_file"), False),
    "treebank.project_s": ("s", ("treebank.compact_silence", "treebank.project_to_time"), False),
    "treebank.write_s": ("s", ("treebank.serialize_bracketed", "treebank.write_boundary_file"), False),
    "align.solve_s": ("s", ("align.PairSolver",), False),
    "align.recover_s": ("s", ("align.alignment",), False),
    "perturb.apply_s": ("s", ("perturb.apply_perturbation",), False),
    "perturb.rng_s": ("s", ("perturb.sentence_rng",), False),
    "metric.self_s": ("s", ("metric.struct_iou_corpus",), True),
    "cli.self_s": ("s", ("cli.main",), True),
}


def import_structiou():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "structiou" / "__init__.py").is_file():
        raise ImportError(f"no structiou sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import structiou

    if Path(structiou.__file__).resolve().parent != SRC / "structiou":
        raise ImportError(f"structiou imported from {structiou.__file__}, not {SRC}")


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import structiou.cli.

    The first probe is discarded: it may compile bytecode, which users
    pay once per install rather than per call.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               cwd=ROOT, capture_output=True, text=True,
                               timeout=60, check=True)
        samples.append(float(probe.stdout))
    return statistics.median(samples[1:])


def peak_memory(workload, op, tracer=None) -> tuple[int, object]:
    """Peak bytes traced while one operation runs, above what was live before."""
    from tracing import installed

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        if tracer is None:
            result = workload.run(op)
        else:
            with installed(tracer):
                result = workload.run(op)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


class Run:
    """Operation outcomes of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}

    def record(self, op, result, error: Exception | None = None) -> None:
        """Check one operation's output; count it as failed on any problem."""
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                problems, digest = self.workload.check(op, result)
            except (OSError, ValueError) as exc:
                problems, digest = [f"check raised {type(exc).__name__}: {exc}"], ""
            if not problems:
                previous = self.digests.setdefault(op.index, digest)
                if previous != digest:
                    problems = ["output differs from an earlier run of the same input"]
        self.fail(op, problems)

    def fail(self, op, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} op {op.index}: {p}" for p in problems]

    def audit(self, first_op) -> None:
        """Run-level checks, charged to the first operation as one more attempt."""
        self.attempted += 1
        try:
            problems = self.workload.audit()
        except (OSError, ValueError) as exc:
            problems = [f"audit raised {type(exc).__name__}: {exc}"]
        from workloads import DEFAULT_SEED, recorded_digest

        if self.workload.seed == DEFAULT_SEED:
            key = self.workload.digest_key()
            expected = recorded_digest(key)
            if expected is None:
                problems.append(f"no recorded digest for {key!r}")
            elif self.digests.get(first_op.index) != expected:
                problems.append(f"output digest differs from the one recorded for {key!r}")
        self.fail(first_op, problems)


def timed_call(workload, op):
    """Time one operation, started from a collected heap so that garbage
    left by earlier operations is not charged to this one."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload and return its metrics, counts and problems."""
    from tracing import Tracer, installed
    from workloads import WORKLOADS

    setup_s = None if trace else measure_setup()
    workload = WORKLOADS[name](seed, workdir)
    run = Run(workload)
    for k in range(workload.CHUNKS):  # generate cycled inputs before timing
        workload.op(k)
    first = workload.first_op = workload.op(0)

    # The memory pass runs first, untimed, and doubles as the warm-up. It
    # covers the first MEMORY_OPS inputs; peak_mem_mb is their median peak,
    # so one unusually large tree in one input does not decide it.
    memory_tracer = Tracer() if trace else None
    peaks = []
    for k in range(workload.MEMORY_OPS):
        op = workload.op(k)
        try:
            peak, result = peak_memory(workload, op, memory_tracer)
            peaks.append(peak)
            run.record(op, result)
        except Exception as exc:  # counted like any failed operation
            run.record(op, None, exc)
    peak = statistics.median(peaks) if peaks else 0

    tracer = Tracer()
    op_seconds: dict[int, list[float]] = {}  # by input
    op_pairs: dict[int, int] = {}
    traced_s, untraced_s = 0.0, 0.0
    loop_start = time.perf_counter()
    i = 0
    # Every input runs at least once, so each run measures the same mix.
    while time.perf_counter() - loop_start < seconds or i < workload.CHUNKS:
        op = workload.op(i)
        if not trace:
            elapsed, result, error = timed_call(workload, op)
            run.record(op, result, error)
            if error is None:
                op_seconds.setdefault(op.index, []).append(elapsed)
                op_pairs[op.index] = op.pairs
        else:
            # Alternate which side goes first so warm caches favour neither.
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.begin_run(i)
                    with installed(tracer):
                        elapsed, result, error = timed_call(workload, op)
                    traced_s += elapsed
                else:
                    elapsed, result, error = timed_call(workload, op)
                    untraced_s += elapsed
                run.record(op, result, error)
        i += 1
    tracer.finish()
    run.audit(first)

    if trace:
        metrics = layer_metrics(tracer, memory_tracer, traced_s, untraced_s)
    else:
        # Median time per input, so a slow moment or a repeat of a cheap
        # input does not decide the figure; summed over the fixed input mix.
        median_s = sum(statistics.median(t) for t in op_seconds.values())
        metrics = {
            "setup_s": setup_s,
            "pairs_per_s": sum(op_pairs.values()) / median_s if median_s else 0.0,
            "peak_mem_mb": peak / 2**20,
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted,
        "problems": run.problems,
        "metrics": metrics,
        "operations": i,
        "op_seconds": op_seconds,
        "corpus": workload.stats.summary(),
        "spans": tracer,
    }


def layer_metrics(tracer, memory_tracer, traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures from the spans; None marks a span that never fired."""
    metrics: dict[str, float | None] = {}
    for metric, (_, names, self_only) in LAYER_TIMES.items():
        values = tracer.self_time(*names) if self_only else tracer.durations(*names)
        metrics[metric] = sum(values) if values else None
    solves_ms = sorted(d * 1e3 for d in tracer.durations("align.PairSolver"))
    if len(solves_ms) >= 2:
        cuts = statistics.quantiles(solves_ms, n=100, method="inclusive")
        metrics["align.solve_p50_ms"], metrics["align.solve_p99_ms"] = cuts[49], cuts[98]
    else:
        metrics["align.solve_p50_ms"] = metrics["align.solve_p99_ms"] = (
            solves_ms[0] if solves_ms else None)
    counts = tracer.counts
    metrics["align.solves"] = len(solves_ms)
    metrics["align.node_pairs"] = counts.get("align.node_pairs", 0)
    metrics["align.uses_per_tree"] = (
        counts["align.tree_uses"] / counts["align.distinct_trees"]
        if counts.get("align.distinct_trees") else None)
    peaks = memory_tracer.solve_peaks if memory_tracer else []
    metrics["align.peak_mem_mb"] = max(peaks) / 2**20 if peaks else None
    for key in ("treebank.trees_read", "treebank.bytes_read", "treebank.bytes_written"):
        metrics[key] = counts.get(key, 0)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_s / untraced_s - 1.0) if untraced_s > 0 else None)
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in PER_LAYER:
        return PER_LAYER[metric]
    return LAYER_TIMES[metric][0]


def report(result: dict) -> dict:
    """Print the human-readable lines and return the JSON line's object."""
    trace = result["trace"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']} trace {trace} operations {result['operations']}")
    print("closed loop, 1 client; corpus: " + ", ".join(
        f"{k}={v:g}" for k, v in result["corpus"].items()))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(f"error_rate = {result['error_rate']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    reported = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    for name, value in metrics.items():
        if value is None:
            print(f"{name} = missing (span never fired) {unit_of(name)}")
        else:
            print(f"{name} = {value:.6g} {unit_of(name)}")
    json_metrics = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items() if metrics.get(name) is not None}
    failed = result["failed"]
    if len(json_metrics) < len(reported):
        # Only possible when operations failed, so no solve or span fired.
        print(f"FAILED metrics not measured: {sorted(set(reported) - set(json_metrics))}")
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": json_metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_structiou()
    except ImportError as exc:
        print(f"error: cannot import structiou: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as work:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), Path(work))
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("spans")
    if args.trace:
        tracer.write(f"{stem}.spans.jsonl")
    line = report(result)
    Path(f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
