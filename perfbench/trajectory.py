"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/trajectory.py --workloads spirals-sweep,idx-wide \\
        --seeds 1-10 --seconds 30 [--trace-seeds 1,2] [--label NAME]

Runs ``perfbench/run.py`` once per (workload, seed), untraced, and prints
for every end-to-end metric the median, the quartiles, and the spread
``(q3 - q1) / median`` (quartiles as ``statistics.quantiles(values, n=4)``
gives them) next to the metric's bound from ``BENCHMARK.json`` and a third
of it. ``--trace-seeds`` adds traced runs on those seeds and checks that
every per-layer count repeats exactly. With ``--label``, the summary and
each run's record are written to ``perfbench/results/BENCH_<label>.json``,
a point on the perf trajectory (summaries, fingerprints and per-layer
metrics; the full records stay in ``.perfbench_out/``), checked against
``perfbench/schemas/bench.schema.json``.

Run from the root of a checkout; the runs happen one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_SUFFIXES = (".calls", ".rows", ".gflop", ".mb", ".mb_moved", ".member_passes")


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((root / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if record["result"] != last:
        raise SystemExit(f"{workload} seed {seed}: record and printed result differ")
    return record


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def summarise(records: list, bounds: dict) -> dict:
    names = records[0]["result"]["metrics"]
    summary = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        summary[name] = dict(spread(values), unit=names[name]["unit"], bound=bounds[name],
                             values=values)
    return summary


def check_counts(traced: list) -> list:
    """Per-layer counts that differ between traced runs of one workload."""
    problems = []
    first = traced[0]["result"]["metrics"]
    for record in traced[1:]:
        metrics = record["result"]["metrics"]
        for name, metric in first.items():
            if name.endswith(COUNT_SUFFIXES) and metrics[name]["value"] != metric["value"]:
                problems.append(f"{name}: seed {traced[0]['seed']} gives {metric['value']}, "
                                f"seed {record['seed']} gives {metrics[name]['value']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--label")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        records = []
        for seed in _seeds(args.seeds):
            record = _run(root, workload, seed, args.seconds, 0)
            ok &= record["result"]["correct"]
            print(f"{workload} seed {seed}: correct={record['result']['correct']} "
                  f"pipeline_s={record['result']['metrics']['pipeline_s']['value']:.3f} "
                  f"reps={record['repetitions']['plain']}", flush=True)
            records.append(record)
        summary = summarise(records, bounds)
        print(f"\n{workload}: {len(records)} seeds")
        print(f"  {'metric':22s} {'median':>14s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
        for name, s in summary.items():
            flag = "" if name == "setup_s" or s["spread"] < s["bound"] / 3 else "  WIDE"
            print(f"  {name:22s} {s['median']:14.6g} {s['spread']:8.4f} {s['bound']:6.3f} "
                  f"{s['bound'] / 3:8.4f}{flag}")
        traced = [_run(root, workload, seed, args.seconds, 1)
                  for seed in (_seeds(args.trace_seeds) if args.trace_seeds else [])]
        problems = check_counts(traced) if traced else []
        for problem in problems:
            print(f"  count mismatch: {problem}")
        ok &= not problems and all(r["result"]["correct"] for r in traced)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {str(r["seed"]): r["result"]["metrics"] for r in traced},
            "fingerprints": {str(r["seed"]): r["fingerprint"] for r in records},
            "repetitions": {f"{r['seed']}/trace{r['trace']}": r["repetitions"]
                            for r in records + traced},
        }
        print()
    if args.label:
        out["context"] = records[0]["context"]
        import jsonschema

        schema = json.loads((HERE / "schemas" / "bench.schema.json").read_text())
        jsonschema.validate(out, schema)
        path = HERE / "results" / f"BENCH_{args.label}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
