"""Smoke test of the benchmark: one short run of each mode, plus its contract.

    python3 -m pytest perfbench/test_smoke.py

Asserts no wall-clock bound; it checks the printed result against
``schemas/result.schema.json``, that the metric names and units are the ones
``BENCHMARK.json`` declares, and that the benchmark refuses to run without
the package's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_SCHEMA = json.loads((HERE / "schemas" / "result.schema.json").read_text())


def _bench(cwd: Path, trace: int, seconds: int = 1):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", "spirals-sweep",
            "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_the_code():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == {
        name: spec[2:] for name, spec in run.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_one_short_run(trace, declared):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[declared]}
    assert all(m["value"] is not None for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
