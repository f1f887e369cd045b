"""Where the golden pins hold, checked in fresh processes.

The pins of ``tests/test_golden.py`` do not depend on OpenBLAS's thread
count: the whole file passes with two BLAS threads. The two tiny variants'
pins do not depend on the width of the FMA kernel either: they pass with the
Haswell kernel forced. The "wide" variant's do, whether or not a layer is
split, because a 256-wide gemm rounds differently under Haswell than under
SkylakeX; so under Haswell, and under Sandybridge, whose kernel has no FMA,
``tests/test_layer_split.py`` checks instead that split forwards, training
steps and loops have the bits of unsplit ones. It runs at the default
thread count, two on a two-core machine, at which a loop must not split:
OpenBLAS then gives each thread a share of a gemm's rows or of its columns,
whichever is longer, and Haswell computes the last rows of a share in
another order, so a layer and its column halves can differ. Where a pin
fails, its message names OpenBLAS's kernel and numpy's CPU features."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TESTS_IN_ENVIRONMENT = """
import sys
import pytest
sys.path.insert(0, "tests")
from test_golden import environment
print(environment())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp", *sys.argv[1:]]))
"""

WIDE_PINS = [f"--deselect=tests/test_golden.py::{test}[wide]" for test in (
    "test_payload_digests_are_pinned", "test_curve_and_report_digests_are_pinned")]


@pytest.mark.parametrize("variables, core, tests", [
    ({"OPENBLAS_NUM_THREADS": "2"}, None, ["tests/test_golden.py", "tests/test_layer_split.py"]),
    ({"OPENBLAS_CORETYPE": "Haswell"}, "Haswell",
     ["tests/test_golden.py", *WIDE_PINS, "tests/test_layer_split.py"]),
    ({"OPENBLAS_CORETYPE": "Sandybridge"}, "Sandybridge", ["tests/test_layer_split.py"]),
])
def test_pins_and_split_hold(tmp_path, variables, core, tests):
    src = str(ROOT / "src")
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", TESTS_IN_ENVIRONMENT, str(tmp_path), *tests],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    if core is not None:
        assert result.stdout.startswith(f"OpenBLAS core {core};")
