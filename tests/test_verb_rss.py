"""``tools/verb_rss.py``: a plan's verbs run in one process, each followed by
that process's own memory high-water mark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def verb_rss(tmp_path, steps):
    doc = {
        "seed": 5,
        "output_dir": str(tmp_path / "runs"),
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                    "test_n_per_class": 40},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 12,
        "pretrain": {"epochs": 2, "lr": 0.1},
        "algorithm": "fge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 2},
    }
    config, plan = tmp_path / "cfg.json", tmp_path / "plan.json"
    config.write_text(json.dumps(doc))
    plan.write_text(json.dumps({"steps": steps}))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "verb_rss.py"), str(plan),
                           str(config)], capture_output=True, text=True, timeout=120)


def test_prints_each_steps_verb_and_high_water_mark(tmp_path):
    proc = verb_rss(tmp_path, [
        {"verb": "pretrain", "overrides": []},
        {"verb": "run", "overrides": ["algorithm=fge"]},
        {"verb": "evaluate", "overrides": []},
        {"verb": "connectivity", "overrides": ["connectivity.iters=5",
                                               "connectivity.grid_size=7"]},
    ])
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["step", "verb", "exit", "VmHWM_MiB"]
    assert [row[:3] for row in rows] == [["0", "(import)", "-"], ["1", "pretrain", "0"],
                                         ["2", "run", "0"], ["3", "evaluate", "0"],
                                         ["4", "connectivity", "0"]]
    marks = [float(row[3]) for row in rows]
    assert 0 < marks[0] and marks == sorted(marks)
    assert (tmp_path / "runs" / "fge-seed5" / "connectivity" / "curve_profile.csv").exists()
    assert proc.stderr == ""


def test_a_failing_step_shows_its_output_and_fails_the_tool(tmp_path):
    proc = verb_rss(tmp_path, [{"verb": "run", "overrides": []}])
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].split()[:2] == ["1", "run"]
    assert proc.stdout.splitlines()[-1].split()[2] != "0"
    assert "w0" in proc.stderr
