"""Pipeline benchmark of the pfge package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/pfge``).
The benchmark writes the workload's synthetic inputs for the seed under
``.perfbench_work/``, then starts one fresh worker process per repetition.
Each worker calls ``pfge.cli.main`` in-process for every verb of the
workload (closed loop, one client) and checks the outputs. Repetitions are
started until the next one would end after S seconds. Times are wall times
rescaled to a reference machine speed (see ``calibration.py``); each verb
time is the median over repetitions, as are memory and quality metrics.
Before the repetitions, a few workers only time set-up (``import pfge`` plus
``load_config``), and ``setup_s`` is the median over those and the
repetitions.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are reported. With ``--trace 1`` untraced and traced repetitions alternate;
the per-layer metrics come from the traced ones and ``trace.overhead_frac``
compares the two kinds. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A full record
(machine context, output fingerprint, per-repetition values, failures) goes
to ``.perfbench_out/<workload>-seed<N>-trace<T>.json`` and, for traced runs,
the spans of the last traced repetition to ``...-spans.jsonl`` beside it.

Metrics, units, directions and the workloads' reasons are documented in
``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 3
# No repetition starts that could end after this many seconds of the run;
# the whole run must end within 180 s.
DEADLINE_S = 165.0

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pretrain_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "connectivity_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "stored_mb": ("MiB", "lower"),
    "test_accuracy": ("fraction", "higher"),
    "test_nll": ("nats", "lower"),
}

# name -> (span name, field, unit, better); counts repeat exactly per workload.
PER_LAYER = {
    "data.load.calls": ("data.load", "calls", "count", "lower"),
    "data.load.rows": ("data.load", "rows", "count", "lower"),
    "data.load.self_s": ("data.load", "self_s", "s", "lower"),
    "data.standardize.self_s": ("data.standardize", "self_s", "s", "lower"),
    "data.batch.calls": ("data.batch", "calls", "count", "lower"),
    "data.batch.self_s": ("data.batch", "self_s", "s", "lower"),
    "nn.loss_and_grad.calls": ("nn.loss_and_grad", "calls", "count", "lower"),
    "nn.loss_and_grad.self_s": ("nn.loss_and_grad", "self_s", "s", "lower"),
    "nn.loss_and_grad.gflop": ("nn.loss_and_grad", "gflop", "GFLOP", "lower"),
    "nn.forward.calls": ("nn.forward", "calls", "count", "lower"),
    "nn.forward.rows": ("nn.forward", "rows", "count", "lower"),
    "nn.forward.self_s": ("nn.forward", "self_s", "s", "lower"),
    "nn.forward.gflop": ("nn.forward", "gflop", "GFLOP", "lower"),
    "nn.mean_loss.calls": ("nn.mean_loss", "calls", "count", "lower"),
    "nn.mean_loss.rows": ("nn.mean_loss", "rows", "count", "lower"),
    "nn.mean_loss.self_s": ("nn.mean_loss", "self_s", "s", "lower"),
    "nn.mean_loss.gflop": ("nn.mean_loss", "gflop", "GFLOP", "lower"),
    "nn.gflop_per_s": (None, None, "GFLOP/s", "higher"),
    "training.sgd_step.calls": ("training.sgd_step", "calls", "count", "lower"),
    "training.sgd_step.self_s": ("training.sgd_step", "self_s", "s", "lower"),
    "training.sgd_step.mb_moved": ("training.sgd_step", "mb_moved", "MiB", "lower"),
    "training.running_average_update.calls":
        ("training.running_average_update", "calls", "count", "lower"),
    "training.running_average_update.self_s":
        ("training.running_average_update", "self_s", "s", "lower"),
    "training.driver.self_s": ("training.driver", "self_s", "s", "lower"),
    "training.ensemble_predict.calls": ("training.ensemble_predict", "calls", "count", "lower"),
    "training.ensemble_predict.member_passes":
        ("training.ensemble_predict", "member_passes", "count", "lower"),
    "training.ensemble_predict.self_s": ("training.ensemble_predict", "self_s", "s", "lower"),
    "metrics.calls": ("metrics", "calls", "count", "lower"),
    "metrics.self_s": ("metrics", "self_s", "s", "lower"),
    "connectivity.train_curve.self_s": ("connectivity.train_curve", "self_s", "s", "lower"),
    "connectivity.profile_curve.self_s": ("connectivity.profile_curve", "self_s", "s", "lower"),
    "connectivity.mc_value.self_s": ("connectivity.mc_value", "self_s", "s", "lower"),
    "connectivity.curve_point.calls": ("connectivity.curve_point", "calls", "count", "lower"),
    "checkpoint.save.calls": ("checkpoint.save", "calls", "count", "lower"),
    "checkpoint.save.mb": ("checkpoint.save", "mb", "MiB", "lower"),
    "checkpoint.save.self_s": ("checkpoint.save", "self_s", "s", "lower"),
    "checkpoint.load.calls": ("checkpoint.load", "calls", "count", "lower"),
    "checkpoint.load.mb": ("checkpoint.load", "mb", "MiB", "lower"),
    "checkpoint.load.self_s": ("checkpoint.load", "self_s", "s", "lower"),
    "config.validate.calls": ("config.validate", "calls", "count", "lower"),
    "config.validate.self_s": ("config.validate", "self_s", "s", "lower"),
    "harness.pretrain.self_s": ("harness.pretrain", "self_s", "s", "lower"),
    "harness.run.self_s": ("harness.run", "self_s", "s", "lower"),
    "harness.evaluate.self_s": ("harness.evaluate", "self_s", "s", "lower"),
    "harness.connectivity_run.self_s": ("harness.connectivity_run", "self_s", "s", "lower"),
    "trace.overhead_frac": (None, None, "fraction", "lower"),
}

NN_RATE_SPANS = ("nn.loss_and_grad", "nn.forward", "nn.mean_loss")
VERB_METRICS = {"pretrain": "pretrain_s", "run": "run_s", "evaluate": "evaluate_s",
                "connectivity": "connectivity_s"}


def _source_digest(src: Path) -> str:
    """SHA-256 over the package's files, naming the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "pfge").rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path):
    """HEAD of the git repository rooted at ``root``; None when there is none."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _machine_context(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }


class Runner:
    """Starts workers for one plan and keeps every repetition's result."""

    def __init__(self, root: Path, workdir: Path, plan_path: Path, document: dict,
                 spans_path: Path, started: float):
        self.root = root
        self.workdir = workdir
        self.plan_path = plan_path
        self.document = document
        self.spans_path = spans_path
        self.started = started
        self.count = 0

    def worker(self, mode: str) -> dict:
        """One fresh worker process; returns its result or a failure record."""
        self.count += 1
        rep = self.workdir / f"rep-{self.count}"
        rep.mkdir()
        doc = dict(self.document, output_dir=str(rep / "runs"))
        config = rep / "config.json"
        config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        result_path = rep / "result.json"
        argv = [sys.executable, str(WORKER), str(self.plan_path), str(config),
                str(result_path), mode, str(self.spans_path)]
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(argv, cwd=self.root, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
            error = None if proc.returncode == 0 else (
                f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        except subprocess.TimeoutExpired:
            error = "worker timed out"
        result = {"mode": mode, "error": error}
        if error is None:
            result = json.loads(result_path.read_text())
            result["error"] = None
        shutil.rmtree(rep)
        return result


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _scale(result: dict) -> None:
    """Add reference-speed seconds to a worker result (see calibration.py)."""
    cal = result["cal"]
    result["setup_scaled"] = calibration.scale(result["setup_s"], cal[0], cal[0])
    for i, verb in enumerate(result.get("verbs", ())):
        verb["scaled"] = calibration.scale(verb["seconds"], cal[i], cal[i + 1])


def _verb_times(reps: list, key: str = "scaled") -> dict:
    """Verb metrics: the median over ``reps`` of each step's seconds, summed."""
    times = {name: 0.0 for name in VERB_METRICS.values()}
    for calls in zip(*(rep["verbs"] for rep in reps)):
        times[VERB_METRICS[calls[0]["verb"]]] += statistics.median(c[key] for c in calls)
    times["pipeline_s"] = sum(times.values())
    return times


def _end_to_end(plain: list, setup_times: list, plan: dict) -> dict:
    metrics = {"setup_s": _median(setup_times), **_verb_times(plain)}
    metrics["train_samples_per_s"] = plan["train_samples"] / (
        metrics["pretrain_s"] + metrics["run_s"])
    for key in ("peak_rss_mb", "stored_mb", "test_accuracy", "test_nll"):
        metrics[key] = _median([rep[key] for rep in plain])
    return metrics


def _layer_counts(trace: dict) -> dict:
    return {name: trace.get(span, {}).get(field, 0)
            for name, (span, field, _, _) in PER_LAYER.items()
            if field is not None and field != "self_s"}


def _per_layer(plain: list, traced: list, failures: list) -> dict:
    counts = _layer_counts(traced[0]["trace"])
    for rep in traced[1:]:
        if _layer_counts(rep["trace"]) != counts:
            failures.append("traced repetitions disagree on per-layer counts")
    metrics = dict(counts)
    # Self times are rescaled with their repetition's overall speed factor.
    factors = [_verb_times([rep])["pipeline_s"] / _verb_times([rep], "seconds")["pipeline_s"]
               for rep in traced]
    self_s = {span: _median([rep["trace"].get(span, {}).get("self_s", 0.0) * factor
                             for rep, factor in zip(traced, factors)])
              for span, _, _, _ in PER_LAYER.values() if span is not None}
    for name, (span, field, _, _) in PER_LAYER.items():
        if field == "self_s":
            metrics[name] = self_s[span]
    seconds = sum(self_s[span] for span in NN_RATE_SPANS)
    gflop = sum(traced[0]["trace"].get(span, {}).get("gflop", 0.0) for span in NN_RATE_SPANS)
    metrics["nn.gflop_per_s"] = gflop / seconds if seconds > 0 else None
    metrics["trace.overhead_frac"] = (
        _verb_times(traced)["pipeline_s"] / _verb_times(plain)["pipeline_s"] - 1.0)
    return metrics


def _run(args, root: Path, workdir: Path, outdir: Path, started: float) -> dict:
    sys.path.insert(0, str(root / "src"))
    plan = workloads.prepare(args.workload, workdir / "inputs", args.seed)
    stem = f"{args.workload}-seed{args.seed}"
    runner = Runner(root, workdir, workdir / "inputs" / "plan.json", plan["document"],
                    outdir / f"{stem}-spans.jsonl", started)
    failures = []
    attempted = failed = 0

    setup_times, setup_wall = [], []
    for _ in range(SETUP_PROBES):
        probe = runner.worker("setup")
        attempted += 1
        if probe["error"]:
            failed += 1
            failures.append(f"set-up probe: {probe['error']}")
        else:
            _scale(probe)
            setup_times.append(probe["setup_scaled"])
            setup_wall.append(probe["setup_s"])

    modes = ["plain", "trace"] if args.trace else ["plain"]
    reps, fingerprint = [], None
    measure_start = time.perf_counter()
    longest, attempts = 0.0, 0
    while True:
        now = time.perf_counter()
        if attempts >= len(modes) and now - measure_start + longest > args.seconds:
            break
        if now - started + longest > DEADLINE_S:
            failures.append("stopped early to stay within the run deadline")
            break
        rep = runner.worker(modes[attempts % len(modes)])
        attempts += 1
        longest = max(longest, time.perf_counter() - now)
        attempted += len(plan["steps"])
        if rep["error"]:
            failed += len(plan["steps"])
            failures.append(rep["error"])
            continue
        _scale(rep)
        setup_times.append(rep["setup_scaled"])
        setup_wall.append(rep["setup_s"])
        for verb in rep["verbs"]:
            if verb["failures"]:
                failed += 1
                failures.append(f"{' '.join(verb['argv'][:1] + verb['argv'][2:])}: "
                                + "; ".join(verb["failures"]) + verb["output"])
        fingerprint = fingerprint or rep["fingerprint"]
        if rep["fingerprint"] != fingerprint:
            failed += sum(1 for v in rep["verbs"] if v["verb"] == "run" and not v["failures"])
            failures.append(f"{rep['mode']} repetition {len(reps) + 1}: output fingerprint "
                            f"{rep['fingerprint']} differs from {fingerprint}")
        reps.append(rep)

    plain = [rep for rep in reps if rep["mode"] == "plain"]
    traced = [rep for rep in reps if rep["mode"] == "trace"]
    if args.trace and plain and traced:
        metrics = _per_layer(plain, traced, failures)
        names = PER_LAYER
    elif plain and not args.trace:
        metrics = _end_to_end(plain, setup_times, plan)
        names = END_TO_END
    else:
        failures.append("no repetition completed")
        names = PER_LAYER if args.trace else END_TO_END
        metrics = {name: None for name in names}

    context = _machine_context(root)
    if reps:
        context.update(reps[0]["context"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "fingerprint": fingerprint,
        "repetitions": {"plain": len(plain), "trace": len(traced),
                        "setup_probes": SETUP_PROBES},
        "reference_s": calibration.REFERENCE_S,
        "per_repetition": [
            {"mode": rep["mode"], "setup_s": rep["setup_scaled"], **_verb_times([rep]),
             "wall": {"setup_s": rep["setup_s"], **_verb_times([rep], "seconds")},
             "calls_wall_s": [v["seconds"] for v in rep["verbs"]], "calibration_s": rep["cal"],
             **{key: rep[key] for key in ("peak_rss_mb", "stored_mb", "test_accuracy",
                                          "test_nll")}}
            for rep in reps
        ],
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_wall,
        "failures": failures,
        "result": {
            "correct": failed == 0 and not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": names[name][-2]}
                        for name in names},
        },
    }
    (outdir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "pfge" / "__init__.py").is_file():
        print(f"error: no pfge source tree at {root / 'src' / 'pfge'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        record = _run(args, root, workdir, outdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = record["result"]
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} fingerprint={record['fingerprint']} "
          f"repetitions={record['repetitions']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
