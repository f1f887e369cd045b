"""Run the benchmark at a parent commit and on the working tree in
alternating pairs, and compare the two sides metric by metric.

    python tools/bench_pairs.py --parent HEAD --workload spirals-sweep \\
        --pairs 10 --seed 23 --seconds 35 --claim run_s

Run it from the root of a checkout. It writes the files of ``--parent`` into
a temporary directory, which it removes at exit, through ``git archive`` and
``tarfile``, and refuses to run if ``perfbench/`` or ``BENCHMARK.json``
differ between that tree and the working tree. Each pair runs
``perfbench/run.py --trace 0`` once in each tree, the parent first in even
pairs and the working tree first in odd ones.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the working tree's change of the median, how many
pairs the working tree won, and ``WORSE`` where that change exceeds the
metric's bound. Otherwise it prints ``UNRESOLVED`` where the parent's own
spread, q3 - q1 as a share of its median, is wider than the bound and the
sides overlap, that is, not every working-tree run beats every parent run:
such a metric cannot be told unchanged. For the metric named by ``--claim``
it prints whether a gain holds: the working tree wins at least nine pairs in
ten, and its median beats the parent's by more than the parent's q3 - q1;
each pair's two values of it go to standard error as the pairs finish. It
also says whether every run's fingerprint and failed-operation count agree.
Standard library only.
"""

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` of ``values``, interpolated between order
    statistics as numpy's default percentile does."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better: str) -> int:
    """How many pairs ``(parent[i], change[i])`` the change wins outright."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def claim_holds(parent, change, better: str) -> bool:
    """Whether ``change`` improves on ``parent``: it wins at least nine pairs
    in ten, and the gap between the medians is wider than the parent's
    q3 - q1."""
    p_q1, p_median, p_q3 = quartiles(parent)
    gap = p_median - quartiles(change)[1]
    if better != "lower":
        gap = -gap
    return wins(parent, change, better) >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1


def relative_change(parent, change) -> float:
    """The change of the median as a share of the parent's median."""
    base = quartiles(parent)[1]
    return (quartiles(change)[1] - base) / base if base else 0.0


def exceeds_bound(parent, change, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    ``bound`` of the parent's median."""
    delta = relative_change(parent, change)
    return (delta if better == "lower" else -delta) > bound


def unresolved(parent, change, better: str, bound: float) -> bool:
    """Whether the parent's q3 - q1, as a share of its median, is wider than
    ``bound`` while not every change run beats every parent run."""
    q1, median, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(median) if median else 0.0
    if better == "lower":
        apart = max(change) < min(parent)
    else:
        apart = min(change) > max(parent)
    return spread > bound and not apart


def _git(root: Path, *args) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout


def _benchmark_differs(root: Path, parent: str) -> bool:
    """Whether the working tree's benchmark files differ from ``parent``'s,
    untracked files under ``perfbench/`` included."""
    paths = ("perfbench", "BENCHMARK.json")
    changed = subprocess.run(["git", "diff", "--quiet", parent, "--", *paths], cwd=root)
    untracked = _git(root, "ls-files", "--others", "--exclude-standard", "--", *paths)
    return changed.returncode != 0 or bool(untracked.strip())


def extract_tree(root: Path, ref: str, dest: Path) -> None:
    """Write the files of commit ``ref`` of the repository at ``root`` into
    ``dest``, as ``git archive`` lists them."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=root, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run_once(tree: Path, args) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``tree``: its result line plus
    the fingerprint."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench failed in {tree}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = re.search(r"fingerprint=(\S+)", proc.stdout)
    result["fingerprint"] = found.group(1) if found else None
    return result


def _values(runs: dict, side: str, name: str) -> list:
    return [r["metrics"][name]["value"] for r in runs[side]]


def _report(runs: dict, metrics: list, claim) -> int:
    print(f"{'metric':22s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} "
          f"{'median':>8s} {'wins':>6s}")
    for spec in metrics:
        name = spec["name"]
        parent, change = _values(runs, "parent", name), _values(runs, "change", name)
        cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (parent, change)]
        flag = ""
        if exceeds_bound(parent, change, spec["better"], spec["bound"]):
            flag = "  WORSE"
        elif unresolved(parent, change, spec["better"], spec["bound"]):
            flag = "  UNRESOLVED"
        print(f"{name:22s} {cells[0]:>30s} {cells[1]:>30s} "
              f"{relative_change(parent, change):+8.2%} "
              f"{wins(parent, change, spec['better']):>3d}/{len(parent)}{flag}")
    prints = {r["fingerprint"] for side in runs.values() for r in side}
    failed = [r["failed"] for side in runs.values() for r in side]
    print(f"fingerprints equal: {len(prints) == 1}; failed operations: {sum(failed)}")
    if claim is None:
        return 0
    spec = next(s for s in metrics if s["name"] == claim)
    holds = claim_holds(_values(runs, "parent", claim), _values(runs, "change", claim),
                        spec["better"])
    print(f"claim {claim}: {'holds' if holds else 'does not hold'}")
    return 0 if holds else 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--claim", help="end-to-end metric whose gain is checked")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {s["name"] for s in metrics}:
        print(f"error: {args.claim} is not an end-to-end metric", file=sys.stderr)
        return 2
    if _benchmark_differs(root, args.parent):
        print(f"error: perfbench/ or BENCHMARK.json differ from {args.parent}",
              file=sys.stderr)
        return 2
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        extract_tree(root, args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_run_once(trees[side], args))
            done = f"pair {pair + 1}/{args.pairs}"
            if args.claim is not None:
                done += "".join(f" {side} {_values(runs, side, args.claim)[-1]:.4g}"
                                for side in ("parent", "change"))
            print(done, file=sys.stderr)
    return _report(runs, metrics, args.claim)


if __name__ == "__main__":
    sys.exit(main())
