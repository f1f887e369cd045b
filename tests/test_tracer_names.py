"""The benchmark's tracer looks up package functions by name (for example
``harness.apply_standardization`` and ``harness.ece``); a refactor that drops
one of those names breaks every traced benchmark run, so check they resolve."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; "
            "import tracing; tracing.install(tracing.Tracer())")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
