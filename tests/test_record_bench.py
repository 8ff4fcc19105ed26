"""The single-pair sweep of ``tools/record_bench.py``, one point per shape."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def sweep_point(shape: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), "--pair", str(ROOT / "src"), shape, "25"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize("shape", record_bench.SHAPES)
def test_sweep_point_prints_json(shape):
    done = sweep_point(shape)
    assert done.returncode == 0, done.stderr
    point = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(point) == {"nodes", "objective", "median_s", "runs", "peak_mem_mb"}
    assert point["nodes"] == [49, 49]
    assert point["runs"] == record_bench.REPS
    assert 0 < point["objective"] <= 49
    assert point["median_s"] > 0 and point["peak_mem_mb"] > 0


def test_unknown_shape_is_refused():
    done = sweep_point("zigzga")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "unknown shape 'zigzga', not one of binary, chain, zigzag\n"
