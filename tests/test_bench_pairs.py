"""The verdict of ``tools/bench_pairs.py`` on fixed numbers: a gain holds
when the change wins nine pairs in ten and its median beats the parent's by
more than the parent's q3 - q1, and a metric whose parent spread is wider
than its bound is unresolved unless the two sides do not overlap."""

import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.62, 0.63, 0.61, 0.64, 0.62, 0.63, 0.62, 0.65, 0.63, 0.62]
# q1 0.85, median 1.0, q3 1.15: a spread of 0.3 of the median.
WIDE = [0.8, 1.2, 0.8, 1.0, 1.2, 1.0, 0.8, 1.0, 1.2, 1.0]


def test_quartiles_interpolate_as_numpy_does():
    for values in (PARENT, [3.0, 1.0], [1.0, 2.0, 4.0, 8.0, 16.0]):
        assert bench_pairs.quartiles(values) == pytest.approx(
            tuple(np.percentile(values, [25, 50, 75])), abs=1e-15)
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_a_clear_gain_holds():
    change = [p - 0.04 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.claim_holds(PARENT, change, "lower")
    assert bench_pairs.relative_change(PARENT, change) == pytest.approx(-0.04 / 0.625)


def test_nine_wins_are_enough_and_eight_are_not():
    change = [p - 0.04 for p in PARENT]
    change[0] = PARENT[0] + 0.01
    assert bench_pairs.wins(PARENT, change, "lower") == 9
    assert bench_pairs.claim_holds(PARENT, change, "lower")
    change[1] = PARENT[1]
    assert bench_pairs.wins(PARENT, change, "lower") == 8
    assert not bench_pairs.claim_holds(PARENT, change, "lower")


def test_a_gap_within_the_parents_spread_does_not_hold():
    # The parent's q3 - q1 is 0.01: a gain of 0.005 in every pair wins ten
    # pairs but is no wider than the spread.
    assert bench_pairs.quartiles(PARENT)[2] - bench_pairs.quartiles(PARENT)[0] == pytest.approx(0.01)
    change = [p - 0.005 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert not bench_pairs.claim_holds(PARENT, change, "lower")


def test_higher_is_better_turns_the_rule_around():
    rates = [1000.0 / p for p in PARENT]
    faster = [1000.0 / (p - 0.04) for p in PARENT]
    assert bench_pairs.claim_holds(rates, faster, "higher")
    assert not bench_pairs.claim_holds(faster, rates, "higher")
    assert not bench_pairs.claim_holds(rates, faster, "lower")


def test_bound_is_a_share_of_the_parents_median():
    slower = [p * 1.15 for p in PARENT]
    assert not bench_pairs.exceeds_bound(PARENT, slower, "lower", 0.2)
    assert bench_pairs.exceeds_bound(PARENT, slower, "lower", 0.1)
    assert bench_pairs.exceeds_bound(slower, PARENT, "higher", 0.1)
    assert not bench_pairs.exceeds_bound(PARENT, slower, "higher", 0.1)


def committed_repo(tmp_path, names=("src/pfge/harness.py", "perfbench/run.py")):
    """A repository at ``tmp_path / "repo"`` with one commit of ``names``.
    It is built here, so the tests run in a copy without ``.git``."""
    repo = tmp_path / "repo"
    for name in names:
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text("# committed\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    return repo


def test_parent_tree_is_extracted_from_the_commit(tmp_path):
    # The parent copy comes from ``git archive``, so it needs no worktree
    # entry in the repository and holds what the benchmark runs.
    repo = committed_repo(tmp_path)
    bench_pairs.extract_tree(repo, "HEAD", tmp_path / "parent")
    assert (tmp_path / "parent" / "src" / "pfge" / "harness.py").is_file()
    assert (tmp_path / "parent" / "perfbench" / "run.py").is_file()
    assert not (tmp_path / "parent" / ".git").exists()


def test_working_tree_is_extracted_as_it_is_on_disk(tmp_path):
    # The change runs from a copy extracted as the parent's is: tracked
    # files with their edits, untracked files git does not ignore, and
    # neither ignored files, deleted ones nor ``.git``.
    repo = committed_repo(tmp_path, ("src/pfge/harness.py", "perfbench/run.py",
                                     "src/pfge/gone.py", ".gitignore"))
    (repo / ".gitignore").write_text("__pycache__/\n*.out\n")
    (repo / "src/pfge/harness.py").write_text("# edited\n")
    (repo / "src/pfge/gone.py").unlink()
    (repo / "src/pfge/new.py").write_text("# untracked\n")
    (repo / "src/pfge/__pycache__").mkdir()
    (repo / "src/pfge/__pycache__/harness.pyc").write_bytes(b"ignored")
    (repo / "run.out").write_text("ignored\n")
    bench_pairs.extract_working_tree(repo, tmp_path / "change")
    files = {path.relative_to(tmp_path / "change").as_posix(): path.read_text()
             for path in (tmp_path / "change").rglob("*") if path.is_file()}
    assert files == {".gitignore": "__pycache__/\n*.out\n", "src/pfge/harness.py": "# edited\n",
                     "perfbench/run.py": "# committed\n", "src/pfge/new.py": "# untracked\n"}


def test_a_spread_wider_than_the_bound_is_unresolved():
    q1, median, q3 = bench_pairs.quartiles(WIDE)
    assert (q3 - q1) / median == pytest.approx(0.3)
    assert bench_pairs.unresolved(WIDE, WIDE, "lower", 0.2)
    assert bench_pairs.unresolved(WIDE, WIDE, "higher", 0.2)
    # A bound wider than the parent's spread resolves it.
    assert not bench_pairs.unresolved(WIDE, WIDE, "lower", 0.35)
    assert not bench_pairs.unresolved(PARENT, PARENT, "lower", 0.1)
    # So does every change run beating every parent run (min 0.8, max 1.2),
    # in the direction that counts as better.
    assert not bench_pairs.unresolved(WIDE, [v - 0.41 for v in WIDE], "lower", 0.2)
    assert bench_pairs.unresolved(WIDE, [v - 0.39 for v in WIDE], "lower", 0.2)
    assert not bench_pairs.unresolved(WIDE, [v + 0.41 for v in WIDE], "higher", 0.2)
    assert bench_pairs.unresolved(WIDE, [v + 0.41 for v in WIDE], "lower", 0.2)


def test_report_flags_unresolved_but_not_worse_metrics(capsys):
    runs = {side: [{"metrics": {"a_s": {"value": a}, "b_s": {"value": b}, "c_s": {"value": c}},
                    "fingerprint": "f", "failed": 0}
                   for a, b, c in zip(WIDE, PARENT, values)]
            for side, values in (("parent", PARENT), ("change", [p * 1.3 for p in PARENT]))}
    metrics = [{"name": "a_s", "better": "lower", "bound": 0.1},
               {"name": "b_s", "better": "lower", "bound": 0.1},
               {"name": "c_s", "better": "lower", "bound": 0.1}]
    assert bench_pairs._report(runs, metrics, None) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["a_s"].endswith("UNRESOLVED")
    assert not lines["b_s"].endswith(("UNRESOLVED", "WORSE"))
    assert lines["c_s"].endswith("WORSE")


def test_fingerprints_are_equal_only_when_every_run_has_the_same_one(capsys):
    assert bench_pairs.fingerprint("spirals-sweep seed=1 fingerprint=ab12 ok\n") == "ab12"
    assert bench_pairs.fingerprint("spirals-sweep seed=1 fingerprint=None ok\n") is None
    assert bench_pairs.fingerprint("no fingerprint here\n") is None

    def runs(parent, change):
        return {side: [{"metrics": {"a_s": {"value": 1.0}}, "fingerprint": f, "failed": 0}
                       for f in prints]
                for side, prints in (("parent", parent), ("change", change))}

    assert bench_pairs.fingerprints_equal(runs(["ab12", "ab12"], ["ab12", "ab12"]))
    assert not bench_pairs.fingerprints_equal(runs(["ab12", "ab12"], ["ab12", "cd34"]))
    assert not bench_pairs.fingerprints_equal(runs([None, None], [None, None]))
    assert not bench_pairs.fingerprints_equal(runs(["ab12", "ab12"], ["ab12", None]))
    bench_pairs._report(runs([None, None], [None, None]),
                        [{"name": "a_s", "better": "lower", "bound": 0.1}], None)
    assert "fingerprints equal: False;" in capsys.readouterr().out
