"""Run a benchmark plan's verbs in this process and print the process's own
memory high-water mark after each one.

    python tools/verb_rss.py PLAN CONFIG

PLAN is a plan file as ``perfbench/workloads.py`` writes it (``plan.json``);
CONFIG is a run config for it, such as that plan's ``document`` with an
``output_dir``. Each step runs through ``pfge.cli.main([verb, CONFIG,
*overrides])``, one after another in this process, as the benchmark's worker
runs them, with BLAS pinned to one thread before numpy is imported. The
verbs' own output is held back, and shown on standard error only for a step
that fails.

It prints one row per step: the step's number and verb, its exit code, and
``VmHWM`` from ``/proc/self/status`` after it, in MiB. Row 0 is the mark
after ``import pfge``. ``VmHWM`` is this program's own peak resident set,
where ``ru_maxrss`` would start at the peak of the process that started it.
The exit status is 0 when every step exits 0, else 1. Linux only; standard
library plus the package.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def vm_hwm_mib() -> float:
    """This process's peak resident set so far, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/verb_rss.py PLAN CONFIG", file=sys.stderr)
        return 2
    plan_path, config_path = argv
    import pfge.cli

    steps = json.loads(Path(plan_path).read_text())["steps"]
    print(f"{'step':>4}  {'verb':<14}{'exit':>4}  {'VmHWM_MiB':>9}")
    print(f"{0:>4}  {'(import)':<14}{'-':>4}  {vm_hwm_mib():>9.1f}")
    failed = False
    for number, step in enumerate(steps, start=1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = pfge.cli.main([step["verb"], config_path, *step["overrides"]])
        print(f"{number:>4}  {step['verb']:<14}{code:>4}  {vm_hwm_mib():>9.1f}", flush=True)
        if code != 0:
            failed = True
            sys.stderr.write(out.getvalue())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
