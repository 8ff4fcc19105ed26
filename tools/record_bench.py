"""Record benchmark numbers for one or more checkouts into one JSON file.

Usage (from the repository root):

    python3 tools/record_bench.py --out BENCH_6.json \
        --checkout before=/path/to/parent/checkout --checkout after=.

For every checkout it runs ``python3 bench/run.py --seed 0 --trace 0``
``ROUNDS`` times on each workload of ``BENCHMARK.json``, for its
``run_seconds``; then ``--trace 1`` once per workload, keeping every
per-layer metric of that run's result file (``bench/out/``), with each
layer time also per scored pair (``us_per_pair``, over ``align.solves``);
and a single-pair sweep: a ``random_binary_tree``, a right-branching
chain and a zig-zag (a chain whose spine child switches sides at each
level, the solver's worst case) at 25, 50, 100 and 200 words, each
against a boundary-jittered copy of itself, recording the median wall
time of ``max_weight_alignment`` over up to 5 solves (fewer once they
took 10 s, so 2 for a 200-word zig-zag) and the ``tracemalloc`` peak of
one more. One sweep point runs on its own with
``python3 tools/record_bench.py --pair SRC SHAPE WORDS``, which prints
its JSON.
Each measurement runs in a fresh process that imports structiou from that
checkout's ``src/``. Checkouts take turns on every measurement, and the
order flips each round, because the host's CPU speed drifts by tens of
percent over minutes. Bytecode is compiled in every checkout first, so
that ``setup_s`` compares imports on equal terms even where
``PYTHONDONTWRITEBYTECODE`` stops imports from caching it. The file also
records the Python and numpy versions and the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ("binary", "chain", "zigzag")
WORDS = (25, 50, 100, 200)
JITTER = 0.3
ROUNDS = 10  # bench/run.py runs per workload and checkout
REPS = 5
BUDGET_S = 10.0


def measure_pair(src: str, shape: str, words: int) -> dict:
    """Time one pair in this process, importing structiou from src."""
    sys.path.insert(0, src)
    import gc
    import tracemalloc

    import numpy as np

    import structiou
    from structiou.align import max_weight_alignment
    from structiou.ambiguity import random_binary_tree
    from structiou.perturb import perturb_noise
    from structiou.treebank import (
        BoundaryRow, BoundaryTable, parse_bracketed, project_to_time)

    if Path(structiou.__file__).resolve().parent != Path(src).resolve() / "structiou":
        raise SystemExit(f"structiou imported from {structiou.__file__}, not {src}")
    if shape not in SHAPES:
        raise SystemExit(f"unknown shape {shape!r}, not one of {', '.join(SHAPES)}")
    rng = np.random.default_rng(words)
    if shape == "binary":
        tree = random_binary_tree(words, rng)
    else:
        text = "(X w)"
        for k in range(1, words):
            zag = shape == "zigzag" and k % 2
            text = f"(X {text} (X w))" if zag else f"(X (X w) {text})"
        tree = parse_bracketed(text)
    # parse_bracketed puts word k at (k, k + 1)
    table = BoundaryTable(tuple(
        BoundaryRow(tree.words[k], float(k), k + 1.0) for k in range(words)))
    pair = (project_to_time(tree, perturb_noise(table, JITTER, rng)), tree)

    seconds = []
    while len(seconds) < REPS and (not seconds or sum(seconds) < BUDGET_S):
        gc.collect()
        start = time.perf_counter()
        alignment = max_weight_alignment(*pair)
        seconds.append(time.perf_counter() - start)
    gc.collect()
    tracemalloc.start()
    max_weight_alignment(*pair)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": [pair[0].node_count, pair[1].node_count],
        "objective": alignment.objective,
        "median_s": statistics.median(seconds),
        "runs": len(seconds),
        "peak_mem_mb": peak / 2**20,
    }


def run_json(argv: list[str], cwd: Path) -> dict:
    """Run a command and parse the JSON object on its last output line."""
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(argv)} in {cwd} printed nothing:\n{done.stderr}")
    return json.loads(lines[-1])


def git_state(path: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, check=False).stdout.strip()

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--checkout", action="append", metavar="NAME=DIR",
                        help="a checkout to measure (default: this one as 'after')")
    parser.add_argument("--pair", nargs=3, metavar=("SRC", "SHAPE", "WORDS"),
                        help=argparse.SUPPRESS)  # one sweep point, in a child process
    args = parser.parse_args(argv)
    if args.pair:
        src, shape, words = args.pair
        print(json.dumps(measure_pair(src, shape, int(words))))
        return 0
    if not args.out:
        parser.error("--out is required")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    checkouts = {}
    for spec in args.checkout or [f"after={ROOT}"]:
        name, _, directory = spec.partition("=")
        checkouts[name] = Path(directory).resolve()
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                       cwd=checkouts[name], check=True)
    import numpy

    record = {
        "options": {"rounds": ROUNDS, "seconds": seconds, "seed": 0, "trace_runs": 1,
                    "words": list(WORDS), "reps": REPS, "budget_s": BUDGET_S},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cores": os.cpu_count(),
            "machine": platform.machine(),
        },
        "checkouts": {name: git_state(path) for name, path in checkouts.items()},
        "workloads": {w: {name: [] for name in checkouts} for w in workloads},
        "layers": {w: {} for w in workloads},
        "pairs": [],
    }

    def turns(k: int):
        names = list(checkouts)
        return names if k % 2 == 0 else names[::-1]

    for k in range(ROUNDS):
        for workload in workloads:
            for name in turns(k):
                line = run_json([sys.executable, "bench/run.py", "--workload", workload,
                                 "--seed", "0", "--seconds", str(seconds),
                                 "--trace", "0"], checkouts[name])
                metrics = {m: v["value"] for m, v in line["metrics"].items()}
                record["workloads"][workload][name].append(
                    {"correct": line["correct"], "failed": line["failed"], **metrics})
                print(f"round {k} {workload} {name}: {metrics}", flush=True)

    for k, workload in enumerate(workloads):
        for name in turns(k):
            line = run_json([sys.executable, "bench/run.py", "--workload", workload,
                             "--seed", "0", "--seconds", str(seconds), "--trace", "1"],
                            checkouts[name])
            result = json.loads((checkouts[name] / "bench" / "out" /
                                 f"{workload}-seed0-trace1.json").read_text(encoding="utf-8"))
            layers = result["metrics"]
            solves = layers["align.solves"]
            record["layers"][workload][name] = {
                "correct": line["correct"], "operations": result["operations"], **layers,
                "us_per_pair": {m: 1e6 * v / solves for m, v in layers.items()
                                if m.endswith("_s") and v is not None},
            }
            print(f"trace {workload} {name}: {record['layers'][workload][name]['us_per_pair']}",
                  flush=True)

    for k, (shape, words) in enumerate((s, w) for s in SHAPES for w in WORDS):
        point = {"shape": shape, "words": words}
        for name in turns(k):
            point[name] = run_json(
                [sys.executable, str(Path(__file__).resolve()), "--pair",
                 str(checkouts[name] / "src"), shape, str(words)], checkouts[name])
            print(f"{shape} {words} {name}: {point[name]}", flush=True)
        record["pairs"].append(point)

    record["medians"] = {
        w: {name: {m: statistics.median([run[m] for run in runs if m in run] or [None])
                   for m in ("setup_s", "pairs_per_s", "peak_mem_mb")}
            for name, runs in by_name.items()}
        for w, by_name in record["workloads"].items()
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
