"""In-memory spans around the package's public functions, installed from outside.

Modules of the package bind names with ``from .x import y``, so a function is
wrapped under every name a calling module looks it up by (for example
``pfge.training.sgd_step`` for the drivers and ``pfge.harness.sgd_step`` for
the pretrain loop). Each span records name, start, end and parent; a span's
self time is its duration minus the durations of its direct children. Counts
come from argument and result shapes only, so they repeat exactly for every
seed of a workload.
"""

import functools
import json
import time

MIB = 1024.0 * 1024.0


class Tracer:
    """Span stack plus per-name totals: ``calls``, ``self_s`` and counters."""

    def __init__(self):
        self.spans = []
        self.stats = {}
        self._stack = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), name, parent, time.perf_counter(), 0.0])
        self.spans.append(None)

    def end(self) -> dict:
        """Close the innermost span and return its name's totals for counters."""
        end = time.perf_counter()
        index, name, parent, start, child_s = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent)
        if self._stack:
            self._stack[-1][4] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "self_s": 0.0}
        stat["calls"] += 1
        stat["self_s"] += duration - child_s
        return stat

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _add(stat: dict, **counts) -> None:
    for key, value in counts.items():
        stat[key] = stat.get(key, 0) + value


def _matmul_gflop(sizes, rows: int) -> float:
    """Multiply-adds of one forward pass, as 2 flops each, in GFLOP."""
    return 2.0 * rows * sum(a * b for a, b in zip(sizes[:-1], sizes[1:])) / 1e9


def _loss_grad_gflop(sizes, rows: int) -> float:
    # Forward, weight gradients, and input gradients of every layer but the first.
    back_inputs = 2.0 * rows * sum(a * b for a, b in zip(sizes[1:-1], sizes[2:])) / 1e9
    return 2.0 * _matmul_gflop(sizes, rows) + back_inputs


def _payload_mib(weights) -> float:
    return weights.spec.param_count * 8 / MIB


def _rows(stat, args, kwargs, result):
    _add(stat, rows=len(result))


def _loss_grad_counts(stat, args, kwargs, result):
    w, batch = args[0], args[1]
    _add(stat, gflop=_loss_grad_gflop(w.spec.sizes, len(batch)))


def _forward_counts(stat, args, kwargs, result):
    w, inputs = args[0], args[1]
    rows = inputs.shape[0]
    _add(stat, rows=rows, gflop=_matmul_gflop(w.spec.sizes, rows))


def _sgd_step_counts(stat, args, kwargs, result):
    # Computed, not measured: read weights, gradient and velocity, write
    # velocity and weights, each a float64 vector of every parameter.
    _add(stat, mb_moved=5 * _payload_mib(args[0]))


def _ensemble_counts(stat, args, kwargs, result):
    ensemble = args[0]
    last_k = args[2] if len(args) > 2 else kwargs.get("last_k")
    _add(stat, member_passes=len(ensemble) if last_k is None else last_k)


def _save_counts(stat, args, kwargs, result):
    _add(stat, mb=_payload_mib(args[1].weights))


def _load_counts(stat, args, kwargs, result):
    _add(stat, mb=_payload_mib(result.weights))


def _wrap(tracer: Tracer, owner, attr: str, name: str, counts=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            stat = tracer.end()
        if counts is not None:
            counts(stat, args, kwargs, result)
        return result

    setattr(owner, attr, traced)


def _wrap_batches(tracer: Tracer, stream_cls) -> None:
    original = stream_cls.__iter__

    def traced_iter(self):
        inner = original(self)
        while True:
            tracer.begin("data.batch")
            try:
                batch = next(inner)
            finally:
                tracer.end()
            yield batch

    stream_cls.__iter__ = traced_iter


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported package, in place."""
    import pfge.cli
    import pfge.config
    import pfge.connectivity
    import pfge.data
    import pfge.harness
    import pfge.training

    harness, training, connectivity = pfge.harness, pfge.training, pfge.connectivity
    points = [
        (harness, "load_csv", "data.load", _rows),
        (harness, "load_idx", "data.load", _rows),
        (harness, "feature_stats", "data.standardize", None),
        (harness, "apply_standardization", "data.standardize", None),
        (training, "loss_and_grad", "nn.loss_and_grad", _loss_grad_counts),
        (harness, "loss_and_grad", "nn.loss_and_grad", _loss_grad_counts),
        (connectivity, "loss_and_grad", "nn.loss_and_grad", _loss_grad_counts),
        (training, "forward", "nn.forward", _forward_counts),
        (connectivity, "forward", "nn.forward", _forward_counts),
        (connectivity, "mean_loss", "nn.mean_loss", _forward_counts),
        (training, "sgd_step", "training.sgd_step", _sgd_step_counts),
        (harness, "sgd_step", "training.sgd_step", _sgd_step_counts),
        (training, "running_average_update", "training.running_average_update", None),
        (harness, "run_swa", "training.driver", None),
        (harness, "run_fge", "training.driver", None),
        (harness, "run_pfge", "training.driver", None),
        (harness, "ensemble_predict", "training.ensemble_predict", _ensemble_counts),
        (harness, "accuracy", "metrics", None),
        (harness, "nll", "metrics", None),
        (harness, "ece", "metrics", None),
        (harness, "reliability", "metrics", None),
        (harness, "train_curve", "connectivity.train_curve", None),
        (harness, "profile_curve", "connectivity.profile_curve", None),
        (harness, "mc_value", "connectivity.mc_value", None),
        (connectivity, "curve_point", "connectivity.curve_point", None),
        (harness, "save_checkpoint", "checkpoint.save", _save_counts),
        (harness, "load_checkpoint", "checkpoint.load", _load_counts),
        (pfge.cli, "load_checkpoint", "checkpoint.load", _load_counts),
        (pfge.config, "validate_against_schema", "config.validate", None),
        (harness, "validate_against_schema", "config.validate", None),
        (harness, "pretrain", "harness.pretrain", None),
        (harness, "run", "harness.run", None),
        (harness, "evaluate", "harness.evaluate", None),
        (harness, "connectivity_run", "harness.connectivity_run", None),
    ]
    for owner, attr, name, counts in points:
        _wrap(tracer, owner, attr, name, counts)
    _wrap_batches(tracer, pfge.data.BatchStream)
