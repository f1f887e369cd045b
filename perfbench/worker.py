"""One repetition of a workload, in a fresh process.

    python3 perfbench/worker.py PLAN CONFIG RESULT MODE [SPANS]

MODE is ``setup`` (time ``import pfge`` plus ``load_config`` and stop),
``plain`` (run every verb of the plan untraced) or ``trace`` (the same with
spans around the package's public functions, written to SPANS). The worker
calls ``pfge.cli.main`` in-process, one verb after another, checks every
verb's outputs, and writes its measurements to RESULT as JSON. The kernel of
``calibration.py`` is timed after set-up and after every verb.

BLAS is pinned to one thread for this process before numpy is imported, so
that a worker never competes with itself for a small machine's cores.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

MIB = 1024.0 * 1024.0


def _blas_context() -> dict:
    """BLAS library, version and the thread count in effect in this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                threads = func()
                break
        if threads is not None:
            break
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": BLAS_THREADS,
    }


def _run_verb(main, argv) -> tuple:
    """Call the CLI in-process; return (exit code, seconds, captured output)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        code = 1
        out.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue()


class _Checker:
    """Output checks of one repetition, and the fingerprint of its outputs."""

    def __init__(self, plan: dict, cfg):
        import jsonschema
        from importlib import resources

        self.plan = plan
        self.cfg = cfg
        schema = json.loads(
            resources.files("pfge.schemas").joinpath("report.schema.json").read_text()
        )
        self.report_validator = jsonschema.Draft7Validator(schema)
        self.digest = hashlib.sha256()
        self.stored_bytes = 0
        self.reports = {}

    def run_dir(self, algorithm: str) -> Path:
        return self.cfg.output_dir / f"{algorithm}-seed{self.cfg.seed}"

    def _feed(self, label: str, doc) -> None:
        self.digest.update(label.encode() + b"\0")
        self.digest.update(json.dumps(doc, sort_keys=True).encode() + b"\0")

    def check(self, step: dict) -> list:
        verb = step["verb"]
        if verb == "pretrain":
            return self._check_checkpoints([self.cfg.w0_path], "w0")
        if verb == "run":
            return self._check_run(step)
        if verb == "evaluate":
            return self._check_evaluate(step)
        return self._check_connectivity(step)

    def _check_checkpoints(self, paths, label: str) -> list:
        from pfge.checkpoint import header_path, load_checkpoint

        failures = []
        for path in paths:
            payload = Path(path).read_bytes()
            header = json.loads(header_path(path).read_text())
            if header["digest"] != "sha256:" + hashlib.sha256(payload).hexdigest():
                failures.append(f"{path}: sidecar digest does not match payload")
            ckpt = load_checkpoint(path)
            if ckpt.weights.values.size * 8 != len(payload):
                failures.append(f"{path}: payload length does not match its spec")
            self.digest.update(label.encode() + b"\0" + payload)
        return failures

    def _check_run(self, step: dict) -> list:
        from pfge.checkpoint import header_path
        from pfge.harness import member_checkpoint_paths

        algorithm = step["algorithm"]
        run_dir = self.run_dir(algorithm)
        report = json.loads((run_dir / "report.json").read_text())
        self.reports[algorithm] = report
        failures = [f"report.json at {e.json_path}: {e.message}"
                    for e in self.report_validator.iter_errors(report)]
        paths = member_checkpoint_paths(run_dir)
        expected = step["members"]
        if len(paths) != expected or len(report.get("members", ())) != expected:
            failures.append(f"{algorithm}: expected {expected} members, found "
                            f"{len(paths)} checkpoints and {len(report.get('members', ()))} "
                            "in report.json")
        failures += self._check_checkpoints(paths, algorithm)
        self.stored_bytes += sum(p.stat().st_size + header_path(p).stat().st_size for p in paths)
        if failures:
            return failures
        self._feed(algorithm, {key: report[key] for key in
                               ("resolved", "members", "ensemble_series", "ensemble")})
        ensemble = report["ensemble"]["metrics"]
        if not (math.isfinite(ensemble["nll"]) and math.isfinite(ensemble["ece"])):
            failures.append(f"{algorithm}: non-finite ensemble metrics {ensemble}")
        if algorithm == self.plan["primary"] and ensemble["accuracy"] < self.plan["accuracy_floor"]:
            failures.append(f"{algorithm}: test accuracy {ensemble['accuracy']} is below "
                            f"the floor {self.plan['accuracy_floor']}")
        return failures

    def _check_evaluate(self, step: dict) -> list:
        algorithm = step["algorithm"]
        record = json.loads((self.run_dir(algorithm) / "evaluation.json").read_text())
        failures = []
        if record["n_members"] != step["members"]:
            failures.append(f"evaluate: {record['n_members']} members, "
                            f"expected {step['members']}")
        report = self.reports.get(algorithm)
        if report is not None and record["last_k"] == report["ensemble"]["last_k"]:
            # Same members, test split and last_k as the run's final ensemble.
            want = report["ensemble"]["metrics"]
            for key, value in record["metrics"].items():
                if abs(value - want[key]) > 1e-9 * max(1.0, abs(want[key])):
                    failures.append(f"evaluate: {key} {value} differs from the run "
                                    f"report's {want[key]}")
        self._feed("evaluate", record["metrics"])
        return failures

    def _check_connectivity(self, step: dict) -> list:
        outdir = self.run_dir(step["algorithm"]) / "connectivity"
        record = json.loads((outdir / "connectivity.json").read_text())
        failures = []
        if not (math.isfinite(record["mc"]) and 0.0 <= record["t_star"] <= 1.0):
            failures.append(f"connectivity: mc {record['mc']} at t* {record['t_star']}")
        rows = (outdir / "curve_profile.csv").read_text().splitlines()
        if len(rows) != step["grid_size"] + 1:
            failures.append(f"connectivity: curve_profile.csv has {len(rows) - 1} rows, "
                            f"expected {step['grid_size']}")
        self._feed("connectivity", {key: record[key] for key in
                                    ("mc", "t_star", "train_loss_summary",
                                     "test_error_summary")})
        return failures


def main(argv) -> int:
    plan_path, config_path, result_path, mode = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, str(Path.cwd() / "src"))

    start = time.perf_counter()
    import pfge  # noqa: F401
    import pfge.cli
    from pfge.config import load_config

    cfg = load_config(config_path)
    setup_s = time.perf_counter() - start
    from calibration import Calibration

    calibrate = Calibration()
    result = {"mode": mode, "setup_s": setup_s, "pfge_path": pfge.__file__,
              "cal": [calibrate()]}
    if mode == "setup":
        Path(result_path).write_text(json.dumps(result))
        return 0

    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    verbs = []
    for step in plan["steps"]:
        argv = [step["verb"], config_path, *step["overrides"]]
        if tracer is not None:
            tracer.begin("cli." + step["verb"])
        code, seconds, output = _run_verb(pfge.cli.main, argv)
        if tracer is not None:
            tracer.end()
        result["cal"].append(calibrate())
        verbs.append({"verb": step["verb"], "argv": argv, "seconds": seconds,
                      "exit_code": code, "output": output[-2000:] if code else ""})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = _Checker(plan, cfg)
    for step, verb in zip(plan["steps"], verbs):
        failures = [f"exit code {verb['exit_code']}"] if verb["exit_code"] != 0 else []
        if not failures:
            try:
                failures = checker.check(step)
            except Exception:
                failures = ["output check raised:\n" + traceback.format_exc()]
        verb["failures"] = failures

    primary = checker.reports.get(plan["primary"], {}).get("ensemble", {}).get("metrics", {})
    result.update({
        "verbs": verbs,
        "peak_rss_mb": peak_rss_mb,
        "stored_mb": checker.stored_bytes / MIB,
        "test_accuracy": primary.get("accuracy"),
        "test_nll": primary.get("nll"),
        "fingerprint": checker.digest.hexdigest(),
        "context": _blas_context(),
    })
    if tracer is not None:
        result["trace"] = tracer.stats
        if spans_path:
            tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
