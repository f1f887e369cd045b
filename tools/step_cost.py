"""Time one training step of each benchmark workload's model, whole and in
its parts.

    python tools/step_cost.py [--steps N] [--rounds R]

For each workload's model, batch size and train-split size (spirals-sweep,
csv-analysis and idx-wide), on a seeded random split of that many rows, it
times N steps of each of:

- ``drive``: ``training._drive``, the whole loop: batch, gradient, update;
- ``stream``: drawing batches from a ``data.BatchStream``;
- ``grad``: ``nn._GradStep`` on one epoch's batches, drawn beforehand;
- ``update``: ``training._sgd_update``, the heavy-ball update.

Each part runs once per round, the parts in turn, on this thread, BLAS
pinned to one thread before numpy is imported. It prints one row per
workload: the median over R rounds of each part's CPU time per step
(``time.thread_time``), in microseconds. Standard library plus the package.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from itertools import cycle, islice  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# (workload, layer sizes, batch size, train rows), as perfbench's workloads.
SETTINGS = (
    ("spirals-sweep", (2, 64, 64, 2), 32, 800),
    ("csv-analysis", (32, 128, 128, 8), 64, 4000),
    ("idx-wide", (784, 256, 256, 10), 128, 3000),
)
PARTS = ("drive", "stream", "grad", "update")


def per_step_us(call, steps: int) -> float:
    """``call()``'s thread CPU time divided by ``steps``, in microseconds."""
    start = time.thread_time()
    call()
    return (time.thread_time() - start) / steps * 1e6


def part_calls(sizes, batch_size: int, rows: int, steps: int) -> dict:
    """One zero-argument call per part, each running ``steps`` steps."""
    import numpy as np

    from pfge import data, nn, training

    spec = nn.LayerSpec(sizes)
    rng = np.random.default_rng(0)
    split = data.Dataset(rng.normal(size=(rows, sizes[0])),
                         rng.integers(0, sizes[-1], rows), sizes[-1])
    w0 = nn.init_model(spec, 0)
    opt = training.MomentumState.initial(w0)
    stream = data.BatchStream(split, batch_size, 0)
    epoch = list(islice(stream, stream.iterations_per_epoch))
    values, grad = w0.values.copy(), np.empty(spec.param_count)
    blocks = training._update_blocks(values, np.zeros_like(values), grad)
    step = nn._GradStep(spec, values, grad, 0.0)

    def drive():
        training._drive(w0, opt, stream, steps, lambda i: 0.01, steps, steps)

    def batches():
        for _ in islice(stream, steps):
            pass

    def grads():
        for batch in islice(cycle(epoch), steps):
            step(batch)

    def updates():
        for _ in range(steps):
            training._sgd_update(blocks, 0.01, opt.momentum, opt.weight_decay)

    return {"drive": drive, "stream": batches, "grad": grads, "update": updates}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=1000, help="steps per part and round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds, of which the median")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be >= 1")
    print(f"{'workload':<14}{'model':<20}{'batch':>6}{'rows':>6}"
          + "".join(f"{part + '_us':>11}" for part in PARTS))
    for name, sizes, batch_size, rows in SETTINGS:
        calls = part_calls(sizes, batch_size, rows, args.steps)
        times = {part: [] for part in PARTS}
        for _ in range(args.rounds):
            for part in PARTS:
                times[part].append(per_step_us(calls[part], args.steps))
        model = "(" + ",".join(map(str, sizes)) + ")"
        print(f"{name:<14}{model:<20}{batch_size:>6}{rows:>6}"
              + "".join(f"{statistics.median(times[part]):>11.1f}" for part in PARTS),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
