"""Accuracy, negative log-likelihood, expected calibration error, and
reliability-diagram binning.

Binning convention: confidence is the maximum predicted probability, bins are
``B`` equal-width right-closed intervals partitioning (0, 1], and an empty
bin contributes zero to the calibration error.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import files
from .errors import InvalidArgumentError
from .nn import _as_labels, _row_argmax, _row_max

PROB_FLOOR = 1e-12
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class PredictionBatch:
    """Predicted class probabilities with the true labels."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        labels = _as_labels(self.labels)
        if probs.ndim != 2 or probs.shape[0] < 1:
            raise InvalidArgumentError(f"probs must be a nonempty 2-D array, got {probs.shape}")
        if labels.shape != (probs.shape[0],):
            raise InvalidArgumentError(
                f"labels shape {labels.shape} does not match {probs.shape[0]} rows"
            )
        # NaN compares false against the row-sum tolerance, so test it first.
        if not (np.isfinite(probs).all() and (probs >= 0).all()):
            raise InvalidArgumentError("probabilities must be finite and nonnegative")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise InvalidArgumentError("probability rows must sum to 1")
        if labels.min() < 0 or labels.max() >= probs.shape[1]:
            raise InvalidArgumentError(f"labels must lie in [0, {probs.shape[1]})")
        probs = probs.copy()
        labels = labels.copy()
        probs.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.probs.shape[0]

    @cached_property
    def _top(self):
        """``(confidence, prediction)``: each row's largest probability and the
        first class that holds it, taken once for ``accuracy`` and
        ``reliability`` alike. The probabilities are finite, so the column-wise
        argmax is exact."""
        conf = _row_max(self.probs)
        return conf, _row_argmax(self.probs, conf)


@dataclass(frozen=True)
class ReliabilityBins:
    """Per-bin calibration statistics; empty bins report zeros and are flagged."""

    bin_edges: np.ndarray
    counts: np.ndarray
    confidences: np.ndarray
    accuracies: np.ndarray
    empty: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    def ece_value(self) -> float:
        """Count-weighted mean absolute accuracy-confidence gap."""
        weights = self.counts / self.counts.sum()
        return float(np.sum(weights * np.abs(self.accuracies - self.confidences)))

    def write_csv(self, path) -> None:
        files.write_csv(path, ["bin_lo", "bin_hi", "count", "confidence", "accuracy"],
                        zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts,
                            self.confidences, self.accuracies))


def accuracy(p: PredictionBatch) -> float:
    """Fraction of rows whose argmax (lowest index on ties) is the true label."""
    return float(np.mean(p._top[1] == p.labels))


def nll(p: PredictionBatch) -> float:
    """Mean negative log probability of the true class, natural log.

    Probabilities are floored at 1e-12 so one-hot float outputs stay finite.
    """
    true_probs = p.probs[np.arange(len(p)), p.labels]
    return float(np.mean(-np.log(np.maximum(true_probs, PROB_FLOOR))))


def reliability(p: PredictionBatch, bins: int) -> ReliabilityBins:
    """Assign each sample to a confidence bin and compute per-bin statistics."""
    if bins < 1:
        raise InvalidArgumentError(f"bins must be >= 1, got {bins}")
    conf, preds = p._top
    correct = preds == p.labels
    # Right-closed bins (lo, hi]: confidence c lands in bin ceil(c * B) - 1.
    idx = np.clip(np.ceil(conf * bins).astype(np.int64) - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sums = np.bincount(idx, weights=conf, minlength=bins)
    correct_sums = np.bincount(idx, weights=correct.astype(np.float64), minlength=bins)
    empty = counts == 0
    denom = np.where(empty, 1, counts)
    return ReliabilityBins(
        bin_edges=np.linspace(0.0, 1.0, bins + 1),
        counts=counts,
        confidences=np.where(empty, 0.0, conf_sums / denom),
        accuracies=np.where(empty, 0.0, correct_sums / denom),
        empty=empty,
    )


def ece(p: PredictionBatch, bins: int) -> float:
    """Expected calibration error over ``bins`` equal-width confidence bins."""
    return reliability(p, bins).ece_value()
