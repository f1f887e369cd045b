"""Bezier curves between weight vectors, curve-loss training, and the
mode-connectivity gap.

A curve with ``k+1`` control points is the Bernstein combination
``gamma(t) = sum_j C(k,j) (1-t)^(k-j) t^j w_j`` for ``t`` in [0, 1], with the
endpoint controls pinned to the two models being connected and only the
interior controls trainable. Training minimizes the expected loss along the
curve by sampling ``t`` uniformly, one draw per mini-batch.

The mode-connectivity value of a trained curve is
``0.5 * (L(w) + L(w')) - L(gamma(t*))`` where ``t*`` maximizes the absolute
deviation of the curve loss from the endpoint average. The value is signed:
negative means the curve rises above the endpoint average at its most
deviant point. It is read off the train-loss series of a grid sweep:
``CurveProfile.mc`` takes it from the profile already computed for the plot
and CSV, so the harness sweeps the grid once per curve, and ``mc_value``
runs its own sweep for callers without a profile.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import files
from .data import Dataset
from .errors import ConfigurationError, InvalidArgumentError, NumericError, ShapeError
from .nn import Batch, ModelWeights, _grad_step, _Workspace, forward, linear_combine, mean_loss
# Not called here, but importable from this module for callers (and
# perfbench's tracer) that look it up under this name.
from .nn import loss_and_grad  # noqa: F401
from .rng import STREAM_CURVE, stream_rng

LossFn = Callable[[ModelWeights], float]


@dataclass(frozen=True)
class CurveSpec:
    """k+1 control points; ``controls[0]`` and ``controls[-1]`` are the endpoints."""

    controls: tuple

    def __post_init__(self):
        controls = tuple(self.controls)
        if len(controls) < 2:
            raise InvalidArgumentError("a curve needs at least 2 control points")
        spec = controls[0].spec
        if any(c.spec != spec for c in controls):
            raise ShapeError("all control points must share one layer spec")
        object.__setattr__(self, "controls", controls)

    @property
    def k(self) -> int:
        return len(self.controls) - 1

    @property
    def spec(self):
        return self.controls[0].spec


@dataclass(frozen=True)
class CurveProfile:
    """Losses and errors along the curve plus their max/min/mean summaries."""

    grid: np.ndarray
    train_loss: np.ndarray
    test_error: np.ndarray
    train_loss_summary: dict
    test_error_summary: dict

    @property
    def mc(self):
        """Signed ``(mc, t_star)`` of ``train_loss`` on this grid, equal to
        what ``mc_value`` computes on the same curve, grid and loss."""
        if len(self.grid) < 3:
            raise InvalidArgumentError(f"grid_size must be >= 3, got {len(self.grid)}")
        return _mc_gap(self.grid, self.train_loss)

    @classmethod
    def _of(cls, grid: np.ndarray, scores) -> "CurveProfile":
        """The profile of the ``(train_loss, test_error)`` pairs ``scores``,
        one per point of ``grid``."""
        train_loss, test_error = (np.array(series) for series in zip(*scores))
        return cls(grid, train_loss, test_error,
                   _series_summary(train_loss), _series_summary(test_error))

    def write_csv(self, path) -> None:
        files.write_csv(path, ["t", "train_loss", "test_error"],
                        zip(self.grid, self.train_loss, self.test_error))


def bernstein(k: int, t: float) -> np.ndarray:
    """The k+1 Bernstein coefficients C(k,j) (1-t)^(k-j) t^j at ``t``."""
    if not (0.0 <= t <= 1.0):
        raise InvalidArgumentError(f"t must lie in [0, 1], got {t}")
    if k < 0:
        raise InvalidArgumentError(f"k must be nonnegative, got {k}")
    j = np.arange(k + 1)
    try:
        combs = np.array([math.comb(k, int(m)) for m in j], dtype=np.float64)
    except OverflowError:
        raise InvalidArgumentError(f"k={k}: Bernstein coefficients overflow float64") from None
    return combs * (1.0 - t) ** (k - j) * t**j


def curve_point(curve: CurveSpec, t: float) -> ModelWeights:
    """Evaluate the curve; the endpoints return their control points untouched,
    and ``bernstein`` rejects a ``t`` outside [0, 1]."""
    if t == 0.0:
        return curve.controls[0]
    if t == 1.0:
        return curve.controls[-1]
    coeffs = bernstein(curve.k, t)
    anchor = curve.controls[0].values
    values = _bezier_sum(anchor, coeffs[1:], [c.values for c in curve.controls[1:]],
                         np.empty_like(anchor), np.empty_like(anchor))
    return ModelWeights(curve.spec, values)


def _bezier_sum(anchor: np.ndarray, coeffs, controls, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """Write ``anchor + sum_j coeffs[j] * (controls[j] - anchor)`` into
    ``out``, summed in control order, with each term formed in ``scratch``;
    returns ``out``. The difference form anchored at the first control keeps
    constant curves exactly constant instead of accumulating coefficient
    roundoff."""
    out[...] = anchor
    for coeff, control in zip(coeffs, controls):
        np.subtract(control, anchor, out=scratch)
        scratch *= coeff
        out += scratch
    return out


def initial_curve(w: ModelWeights, w_end: ModelWeights, k: int) -> CurveSpec:
    """The ``k + 1`` controls spaced evenly on the straight segment from ``w``
    to ``w_end``; ``k`` must be at least 1."""
    if w.spec != w_end.spec:
        raise ShapeError("curve endpoints must share one layer spec")
    if k < 1:
        raise InvalidArgumentError(f"a curve needs k >= 1, got k={k}")
    interior = [
        linear_combine(1.0 - j / k, w, j / k, w_end) for j in range(1, k)
    ]
    return CurveSpec((w, *interior, w_end))


def train_curve(
    w: ModelWeights,
    w_end: ModelWeights,
    k: int,
    iters: int,
    stream: Iterable[Batch],
    lr: float,
    seed: int,
    loss_grad_fn=None,
    l2_coeff: float = 0.0,
) -> CurveSpec:
    """Fit the interior control points to minimize expected loss along the curve.

    Per iteration: draw ``t`` uniformly (seeded curve stream), take one
    mini-batch, evaluate the loss gradient at ``gamma(t)``, and update each
    interior control ``j`` by plain SGD with the chain-rule factor
    ``bernstein_j(t)``. Endpoints are never touched. The point, gradient and
    update buffers are allocated once, before the loop, and the gradient
    comes from one ``nn._grad_step`` on the point buffer, which hands a
    supplied ``loss_grad_fn(weights, batch)`` a frozen copy of the point.
    Numpy warnings are off in the loop: a non-finite point, loss or control
    raises ``NumericError`` naming the iteration, and a stream that runs out
    first raises ``InvalidArgumentError``.
    """
    if k < 2:
        raise ConfigurationError(f"curve training needs k >= 2, got k={k}")
    if iters < 1:
        raise InvalidArgumentError(f"iters must be >= 1, got {iters}")
    spec = w.spec
    start = initial_curve(w, w_end, k)
    interior = [c.values.copy() for c in start.controls[1:-1]]
    controls = [*interior, w_end.values]
    point, grad, scratch = (np.empty(spec.param_count) for _ in range(3))
    step = _grad_step(spec, point, grad, l2_coeff, loss_grad_fn)
    rng = stream_rng(seed, STREAM_CURVE)
    i = 0
    with np.errstate(all="ignore"):
        for i, batch in zip(range(1, iters + 1), stream):
            t = float(rng.uniform())
            coeffs = bernstein(k, t)
            _bezier_sum(w.values, coeffs[1:], controls, point, scratch)
            if not np.logical_and.reduce(np.isfinite(point)):
                raise NumericError(f"non-finite curve point at iteration {i}")
            data_loss, l2_penalty = step(batch)
            if not math.isfinite(data_loss + l2_penalty):
                raise NumericError(f"non-finite curve loss at iteration {i}")
            for j, control in enumerate(interior):
                np.multiply(grad, lr * coeffs[j + 1], out=scratch)
                control -= scratch
                if not np.logical_and.reduce(np.isfinite(control)):
                    raise NumericError(f"non-finite control point at iteration {i}")
    if i < iters:
        raise InvalidArgumentError(f"the batch stream ran out at iteration {i + 1}")
    trained = [ModelWeights(w.spec, c) for c in interior]
    return CurveSpec((w, *trained, w_end))


def profile_curve(
    curve: CurveSpec,
    grid_size: int,
    train: Dataset,
    test: Dataset,
    l2_coeff: float = 0.0,
) -> CurveProfile:
    """Full-dataset train loss and test error at ``grid_size`` uniform t values."""
    if grid_size < 2:
        raise InvalidArgumentError(f"grid_size must be >= 2, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size)
    workspace = _profile_workspace(curve.spec, train, test)
    return CurveProfile._of(grid, _sweep(curve, grid, train, test, l2_coeff, workspace))


def _profile_workspace(spec, train: Dataset, test: Dataset) -> _Workspace:
    # One workspace for both splits: a second would add the smaller split's
    # activations to peak memory.
    return _Workspace(spec, max(len(train), len(test)))


def _sweep(curve: CurveSpec, ts, train: Dataset, test: Dataset, l2_coeff: float,
           workspace: _Workspace, helper=None) -> list:
    """``_point_scores`` of the curve point at each t of ``ts``, all sharing
    their forwards' row tiles with ``helper`` if given."""
    return [_point_scores(curve_point(curve, float(t)), train, test, l2_coeff, workspace,
                          helper=helper) for t in ts]


def _point_scores(point: ModelWeights, train: Dataset, test: Dataset, l2_coeff: float,
                  workspace: _Workspace, fns=None, helper=None) -> tuple:
    """``(train_loss, test_error)`` of ``point`` over the whole of both
    splits, forwarded in ``workspace``, sharing row tiles with ``helper`` if
    given.
    ``fns`` is the ``(mean_loss, forward)`` to call, by default this
    module's."""
    mean_loss_of, forward_of = fns or (mean_loss, forward)
    train_loss = mean_loss_of(point, train.inputs, train.labels, l2_coeff,
                              workspace=workspace, helper=helper).total
    preds = np.argmax(forward_of(point, test.inputs, workspace=workspace, helper=helper), axis=1)
    return train_loss, float(np.mean(preds != test.labels))


def _series_summary(series: np.ndarray) -> dict:
    return {
        "max": float(series.max()),
        "min": float(series.min()),
        "mean": float(series.mean()),
    }


def mc_value(
    curve: CurveSpec,
    grid_size: int,
    train: Optional[Dataset] = None,
    loss_fn: Optional[LossFn] = None,
    l2_coeff: float = 0.0,
):
    """Mode-connectivity gap of the curve and the grid point attaining it.

    The loss defaults to the full training loss; ``loss_fn`` overrides it.
    ``t*`` is found by exhaustive search over the uniform grid, ties resolved
    to the smallest t. Returns the signed ``(mc, t_star)``.
    """
    if grid_size < 3:
        raise InvalidArgumentError(f"grid_size must be >= 3, got {grid_size}")
    if loss_fn is None:
        if train is None:
            raise InvalidArgumentError("mc_value needs a training dataset or a loss_fn")
        loss_fn = lambda w: mean_loss(w, train.inputs, train.labels, l2_coeff).total
    grid = np.linspace(0.0, 1.0, grid_size)
    losses = np.array([loss_fn(curve_point(curve, float(t))) for t in grid])
    return _mc_gap(grid, losses)


def _mc_gap(grid: np.ndarray, losses: np.ndarray):
    """Signed gap ``0.5 * (L(0) + L(1)) - L(t*)`` and ``t*`` of a loss series
    on ``grid``; ``t*`` maximizes the absolute deviation, ties to the smallest t."""
    endpoint_avg = 0.5 * (losses[0] + losses[-1])
    deviation = np.abs(endpoint_avg - losses)
    star = int(np.argmax(deviation))
    return float(endpoint_avg - losses[star]), float(grid[star])
