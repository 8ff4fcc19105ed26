"""Tiny-size self-test of the benchmark.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Sizes are shrunk so every workload finishes in about a second.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.import_structiou()

import workloads  # noqa: E402  (needs the path set up above)
from structiou.align import max_weight_alignment  # noqa: E402

SEED = 5  # not the default seed: tiny sizes have no recorded digest


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "CANDIDATES", 8)
    monkeypatch.setattr(workloads.CorpusEval, "PAIRS", 4)
    monkeypatch.setattr(workloads.CorpusEval, "MAX_NODES", 12)
    monkeypatch.setattr(workloads.LargePairs, "WORDS", 6)
    monkeypatch.setattr(workloads.PerturbSweep, "GOLD_TREES", 3)
    monkeypatch.setattr(workloads.PerturbSweep, "REPS", 2)


def run_quietly(name: str, trace: bool, workdir: Path) -> tuple[dict, dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_benchmark(name, SEED, 0.01, trace, workdir)
        line = run.report(result)
    return result, line, out.getvalue()


def test_generator_is_deterministic_per_seed(tmp_path):
    def files(seed: int, sub: str) -> dict[str, bytes]:
        directory = tmp_path / sub
        for cls in (workloads.CorpusEval, workloads.PerturbSweep):
            cls(seed, directory).op(1)
        return {str(p.relative_to(directory)): p.read_bytes()
                for p in sorted(directory.rglob("*")) if p.is_file()}

    first, again, other = files(SEED, "a"), files(SEED, "b"), files(SEED + 1, "c")
    assert first and first == again
    assert first.keys() == other.keys() and first != other

    def pair_times(seed: int, cls) -> list[float]:
        t1, t2 = cls(seed, tmp_path).op(2).data["pair"]
        return [leaf.start for t in (t1, t2) for leaf in workloads.leaves(t.root)]

    for cls in (workloads.LargeBinary, workloads.LargeChain):
        assert pair_times(SEED, cls) == pair_times(SEED, cls)
        assert pair_times(SEED, cls) != pair_times(SEED + 1, cls)


def test_boundary_files_hold_plain_floats(tmp_path):
    op = workloads.CorpusEval(SEED, tmp_path).op(0)
    text = (op.data["dir"] / "gold.bounds").read_text(encoding="utf-8")
    assert "np.float" not in text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result, line, text = run_quietly(name, trace, tmp_path)
    assert result["failed"] == 0, result["problems"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert line["correct"] is True
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for metric_name in result["metrics"]:
        assert f"{metric_name} = " in text
        assert run.unit_of(metric_name) in text
    if trace:
        assert result["metrics"]["align.solves"] >= 1
        assert result["metrics"]["align.solve_s"] > 0
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_unfired_span_is_missing_not_zero(tmp_path):
    result, _, text = run_quietly("large_chain", True, tmp_path)
    assert result["metrics"]["treebank.read_s"] is None
    assert "treebank.read_s = missing" in text
    assert result["metrics"]["align.recover_s"] > 0


def _corrupt_eval(original):
    def corrupted(self, op):
        code = original(self, op)
        out = op.data["out"]
        lines = out.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split("\t")
        cells[4] = "1.0000" if cells[4] != "1.0000" else "0.5000"
        lines[1] = "\t".join(cells)
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return code
    return corrupted


def _corrupt_alignment(original):
    def corrupted(self, op):
        alignment = original(self, op)
        return replace(alignment, objective=alignment.objective + 0.5)
    return corrupted


def _corrupt_perturb(original):
    def corrupted(self, op):
        code = original(self, op)
        (op.data["out"] / "rep0.bounds").write_text("w\t2.0\t1.0\n")
        return code
    return corrupted


@pytest.mark.parametrize("cls, corrupt", [
    (workloads.CorpusEval, _corrupt_eval),
    (workloads.LargeBinary, _corrupt_alignment),
    (workloads.PerturbSweep, _corrupt_perturb),
])
def test_corrupted_result_counts_in_error_rate(cls, corrupt, monkeypatch, tmp_path):
    monkeypatch.setattr(cls, "run", corrupt(cls.run))
    result, line, text = run_quietly(cls.name, False, tmp_path)
    assert result["failed"] >= 1
    assert result["error_rate"] > 0
    assert line["correct"] is False and line["failed"] == result["failed"]
    assert "FAILED" in text


def test_feasibility_check_rejects_a_crossing_alignment(tmp_path):
    op = workloads.LargeChain(SEED, tmp_path).op(0)
    t1, t2 = op.data["pair"]
    good = max_weight_alignment(t1, t2)
    assert workloads.alignment_problems(t1, t2, good, labeled=True) == []
    leaves1, leaves2 = workloads.leaves(t1.root), workloads.leaves(t2.root)
    crossing = replace(good, pairs=((leaves1[0], leaves2[1]), (leaves1[1], leaves2[0])))
    assert workloads.alignment_problems(t1, t2, crossing, labeled=True) == [
        "alignment crosses"]
    reused = replace(good, pairs=((leaves1[0], leaves2[0]), (leaves1[1], leaves2[0])))
    assert workloads.alignment_problems(t1, t2, reused, labeled=True) == [
        "alignment reuses a node"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
