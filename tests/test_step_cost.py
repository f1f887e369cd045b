"""``tools/step_cost.py``: per-step times of each workload's training step,
whole and in its parts."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def step_cost(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "step_cost.py"), *args],
                          capture_output=True, text=True, timeout=60)


def test_prints_one_row_of_step_times_per_workload():
    start = time.perf_counter()
    proc = step_cost("--steps", "5", "--rounds", "1")
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["workload", "model", "batch", "rows",
                              "drive_us", "stream_us", "grad_us", "update_us"]
    assert [row.split()[:4] for row in rows] == [
        ["spirals-sweep", "(2,64,64,2)", "32", "800"],
        ["csv-analysis", "(32,128,128,8)", "64", "4000"],
        ["idx-wide", "(784,256,256,10)", "128", "3000"],
    ]
    for row in rows:
        assert all(float(cell) > 0 for cell in row.split()[4:])


def test_rejects_no_steps():
    proc = step_cost("--steps", "0")
    assert proc.returncode == 2
    assert "--steps and --rounds must be >= 1" in proc.stderr
