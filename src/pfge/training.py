"""One cyclical-SGD training driver and the collection rules of the algorithms.

SWA, FGE and PFGE follow one trajectory: at iteration ``i`` (1-based) the
learning rate comes from a schedule, one heavy-ball SGD step is taken, and at
the bottom-of-cycle instants ``i % c == 0`` a collection rule decides what to
keep. ``_drive`` runs that loop (also for the harness's pretraining) with
weights, velocity, gradient and average in preallocated buffers updated in
place, in the floating-point order of ``sgd_step`` and
``running_average_update``. ``_collection_rule`` maps each algorithm, for a
budget of ``n`` iterations, cycle length ``c`` and recording period ``P``, onto
the rule's arguments to ``_drive``::

    algorithm  keep        cycle_len  period  members
    sgd        "last"      -          -       1
    swa        "average"   c          n       1
    fge        "iterates"  c          -       n / c
    pfge       "average"   c          P       n / P

``"average"`` folds each cycle-end iterate into a running average seeded from
``w0``; at the end of every recording period the average becomes a member and
re-seeds both the weights and the next period's average. ``"iterates"`` keeps
each raw cycle-end iterate and ``"last"`` only the final one.

Drivers are deterministic given (initial weights, schedule, batch stream,
optimizer state): rerunning with the same inputs reproduces every iterate
bit-for-bit.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import InvalidArgumentError, NumericError, ShapeError
from .nn import Batch, ModelWeights, _GradStep, _softmax_inplace, _Workspace, forward
# Not called here, but importable from this module for callers (and
# perfbench's tracer) that look it up under this name.
from .nn import loss_and_grad  # noqa: F401
from .schedule import BudgetSpec, LrSchedule, lr_at, validate_budget

LossGradFn = Callable[[ModelWeights, Batch], tuple]


@dataclass(frozen=True)
class MomentumState:
    """Velocity buffer plus the momentum and weight-decay coefficients."""

    velocity: np.ndarray
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        velocity = np.asarray(self.velocity, dtype=np.float64)
        if velocity.ndim != 1:
            raise ShapeError(f"velocity must be a flat vector, got shape {velocity.shape}")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidArgumentError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise InvalidArgumentError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        velocity = velocity.copy()
        velocity.flags.writeable = False
        object.__setattr__(self, "velocity", velocity)

    @classmethod
    def initial(cls, w: ModelWeights, momentum: float = 0.9, weight_decay: float = 5e-4):
        """Zero velocity sized for ``w``."""
        return cls(np.zeros(w.values.size), momentum, weight_decay)


@dataclass(frozen=True)
class EnsembleSet:
    """Ordered snapshot collection with the iterations they were recorded at."""

    members: tuple
    recorded_at: tuple

    def __post_init__(self):
        members = tuple(self.members)
        recorded_at = tuple(int(i) for i in self.recorded_at)
        if not members:
            raise InvalidArgumentError("ensemble must contain at least one member")
        if len(members) != len(recorded_at):
            raise InvalidArgumentError("members and recorded_at lengths differ")
        if any(b <= a for a, b in zip(recorded_at, recorded_at[1:])):
            raise InvalidArgumentError("recorded_at must be strictly increasing")
        spec = members[0].spec
        if any(m.spec != spec for m in members):
            raise ShapeError("all ensemble members must share one layer spec")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "recorded_at", recorded_at)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def spec(self):
        return self.members[0].spec


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration learning rate and loss, plus the bottom-of-cycle
    iterations at which the collection rule fired. It holds no weights: the
    members are the only iterates a driver keeps."""

    iterations: np.ndarray
    lrs: np.ndarray
    losses: np.ndarray
    cycle_end_iters: tuple


# Elements per block of the in-place update: the four operands' blocks stay
# in a core's L2 cache instead of streaming whole vectors six times.
_BLOCK = 1 << 15


def _sgd_update(w, velocity, grad, alpha, momentum, weight_decay, scratch) -> bool:
    """In place: ``velocity <- momentum*velocity + (grad + weight_decay*w)``,
    then ``w <- w - alpha*velocity``, block by block; ``scratch`` holds at
    least ``min(w.size, _BLOCK)`` elements. Returns whether every updated
    weight is finite, checked while each block is still in cache."""
    finite = True
    for lo in range(0, w.size, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        w_b, v_b = w[blk], velocity[blk]
        s_b = scratch[: w_b.size]
        np.multiply(w_b, weight_decay, out=s_b)
        s_b += grad[blk]
        v_b *= momentum
        v_b += s_b
        np.multiply(v_b, alpha, out=s_b)
        w_b -= s_b
        finite = finite and bool(np.isfinite(w_b).all())
    return finite


def _fold(avg: np.ndarray, n_models: int, w: np.ndarray) -> None:
    """In place: ``avg <- (avg * n_models + w) / (n_models + 1)``."""
    avg *= n_models
    avg += w
    avg /= n_models + 1


def sgd_step(w: ModelWeights, grad: np.ndarray, alpha: float, state: MomentumState):
    """One heavy-ball SGD update.

    ``velocity <- momentum * velocity + (grad + weight_decay * w)`` followed by
    ``w <- w - alpha * velocity``. With zero momentum and decay this is plain
    ``w - alpha * grad``.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != w.values.shape or state.velocity.shape != w.values.shape:
        raise ShapeError(
            f"gradient/velocity shape {grad.shape}/{state.velocity.shape} does not "
            f"match weights {w.values.shape}"
        )
    values, velocity = w.values.copy(), state.velocity.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        finite = _sgd_update(values, velocity, grad, alpha, state.momentum,
                             state.weight_decay, np.empty(min(values.size, _BLOCK)))
    if not finite:
        raise NumericError("non-finite weights after SGD update")
    return (
        ModelWeights(w.spec, values),
        MomentumState(velocity, state.momentum, state.weight_decay),
    )


def running_average_update(w_avg: ModelWeights, n_models: int, w: ModelWeights) -> ModelWeights:
    """Fold one more model into a running mean over ``n_models`` models."""
    if w_avg.spec != w.spec:
        raise ShapeError("spec mismatch in running average")
    if n_models < 1:
        raise InvalidArgumentError(f"n_models must be >= 1, got {n_models}")
    avg = w_avg.values.copy()
    _fold(avg, n_models, w.values)
    return ModelWeights(w.spec, avg)


def _drive(w0: ModelWeights, opt: MomentumState, stream: Iterable[Batch], n_iters: int,
           lr: Callable[[int], float], keep: str = "last", cycle_len: Optional[int] = None,
           period: Optional[int] = None, loss_grad_fn: Optional[LossGradFn] = None,
           l2_coeff: float = 0.0):
    """Run ``n_iters`` SGD steps from ``w0`` with step size ``lr(i)``.

    Every multiple of ``cycle_len`` is a cycle end: the trace records it and
    the collection rule ``keep`` fires, ``"average"`` closing a
    recording period at every multiple of ``period``. Without
    ``loss_grad_fn`` a ``_GradStep`` built once for the run writes the
    gradient into a preallocated buffer; a supplied
    ``loss_grad_fn(weights, batch)`` gets a frozen copy of the weights.
    Numpy warnings are off in the loop: a non-finite loss or weight raises
    ``NumericError`` naming the iteration. Returns ``(EnsembleSet, trace)``.
    """
    spec = w0.spec
    w, velocity = w0.values.copy(), opt.velocity.copy()
    if velocity.shape != w.shape:
        raise ShapeError(f"velocity shape {velocity.shape} != weights {w.shape}")
    avg = w0.values.copy() if keep == "average" else None
    n_models = 1
    grad, scratch = np.empty_like(w), np.empty(min(w.size, _BLOCK))
    step = _GradStep(spec, w, grad, l2_coeff) if loss_grad_fn is None else None
    lrs, losses = np.empty(n_iters), np.empty(n_iters)
    cycle_end_iters, members = [], []
    batch_iter = iter(stream)
    with np.errstate(all="ignore"):
        for i in range(1, n_iters + 1):
            alpha = lr(i)
            batch = next(batch_iter)
            if step is not None:
                data_loss, l2_penalty = step(batch)
                loss = data_loss + l2_penalty
                step_grad = grad
            else:
                value, step_grad = loss_grad_fn(ModelWeights(spec, w), batch)
                loss = value.total
                step_grad = np.asarray(step_grad, dtype=np.float64)
                if step_grad.shape != w.shape:
                    raise ShapeError(f"gradient shape {step_grad.shape} != weights {w.shape}")
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at iteration {i}")
            lrs[i - 1] = alpha
            losses[i - 1] = loss
            if not _sgd_update(w, velocity, step_grad, alpha, opt.momentum,
                               opt.weight_decay, scratch):
                raise NumericError(f"non-finite weights after SGD update (iteration {i})")
            if cycle_len is None or i % cycle_len:
                continue
            cycle_end_iters.append(i)
            if keep == "iterates":
                members.append((ModelWeights(spec, w), i))
            elif keep == "average":
                _fold(avg, n_models, w)
                n_models += 1
                if i % period == 0:
                    members.append((ModelWeights(spec, avg), i))
                    w[...] = avg
                    n_models = 1
    if keep == "last":
        members.append((ModelWeights(spec, w), n_iters))
    trace = RunTrace(np.arange(1, n_iters + 1), lrs, losses, tuple(cycle_end_iters))
    return EnsembleSet(*zip(*members)), trace


def _collection_rule(algorithm: str, sched: LrSchedule, budget: BudgetSpec):
    """Check ``budget`` against ``sched`` and return ``algorithm``'s
    ``(keep, cycle_len, period, n_members)``, as tabled in the module
    docstring."""
    validate_budget(sched, budget)
    n, c = budget.total_iters, sched.cycle_len
    if algorithm == "sgd":
        return "last", None, None, 1
    if algorithm == "fge":
        return "iterates", c, None, n // c
    period = n if algorithm == "swa" else budget.record_period
    return "average", c, period, n // period


def run_swa(
    w0: ModelWeights,
    sched: LrSchedule,
    n_iters: int,
    stream: Iterable[Batch],
    opt: MomentumState,
    loss_grad_fn: Optional[LossGradFn] = None,
    l2_coeff: float = 0.0,
):
    """Train with the cyclical schedule, maintaining a running weight average.

    The average starts at ``w0`` and folds in the iterate at every
    bottom-of-cycle instant, so the result is the arithmetic mean of ``w0``
    and the ``n_iters / c`` cycle-end iterates. Returns ``(w_avg, trace)``.
    """
    keep, cycle_len, period, _ = _collection_rule("swa", sched, BudgetSpec(n_iters))
    ensemble, trace = _drive(w0, opt, stream, n_iters, partial(lr_at, sched), keep,
                             cycle_len, period, loss_grad_fn, l2_coeff)
    return ensemble.members[0], trace


def run_fge(
    w0: ModelWeights,
    sched: LrSchedule,
    n_iters: int,
    stream: Iterable[Batch],
    opt: MomentumState,
    loss_grad_fn: Optional[LossGradFn] = None,
    l2_coeff: float = 0.0,
):
    """Train with the cyclical schedule, collecting every cycle-end iterate.

    Returns ``(EnsembleSet, trace)`` with exactly ``n_iters / c`` members,
    recorded at iterations ``c, 2c, ..., n_iters``.
    """
    keep, cycle_len, period, _ = _collection_rule("fge", sched, BudgetSpec(n_iters))
    return _drive(w0, opt, stream, n_iters, partial(lr_at, sched), keep, cycle_len, period,
                  loss_grad_fn, l2_coeff)


def run_pfge(
    w0: ModelWeights,
    sched: LrSchedule,
    n_iters: int,
    record_period: int,
    stream: Iterable[Batch],
    opt: MomentumState,
    loss_grad_fn: Optional[LossGradFn] = None,
    l2_coeff: float = 0.0,
):
    """Train consecutive weight-averaging procedures and ensemble their outputs.

    Each recording period of ``record_period`` iterations runs one averaging
    procedure; at the period's end the current average becomes an ensemble
    member and also re-initializes the weights for the next period. The
    momentum state carries across period boundaries untouched. Returns
    ``(EnsembleSet, trace)`` with exactly ``n_iters / record_period`` members.
    """
    keep, cycle_len, period, _ = _collection_rule(
        "pfge", sched, BudgetSpec(n_iters, record_period))
    return _drive(w0, opt, stream, n_iters, partial(lr_at, sched), keep, cycle_len, period,
                  loss_grad_fn, l2_coeff)


def ensemble_predict(ensemble: EnsembleSet, inputs: np.ndarray, last_k: Optional[int] = None):
    """Average the members' softmax outputs and take the per-row argmax.

    ``last_k`` restricts the average to the most recently recorded models.
    Ties in the argmax resolve to the lowest class index. Returns
    ``(avg_probs, labels)``.
    """
    if last_k is not None:
        if not (1 <= last_k <= len(ensemble)):
            raise InvalidArgumentError(
                f"last_k must be in [1, {len(ensemble)}], got {last_k}"
            )
        members = ensemble.members[-last_k:]
    else:
        members = ensemble.members
    total = None
    for probs in _member_probs(members, inputs):
        total = _accumulate(total, probs)
    total /= len(members)
    return total, np.argmax(total, axis=1)


def _member_probs(members, inputs: np.ndarray):
    """Yield the softmax outputs of each of ``members`` (one spec) on
    ``inputs``, in order, one forward each. All are written into one
    workspace, so each yielded array is overwritten by the next member's:
    copy what must outlive that."""
    x = np.asarray(inputs, dtype=np.float64)
    workspace = _Workspace(members[0].spec, x.shape[0] if x.ndim == 2 else 0)
    for member in members:
        yield _softmax_inplace(forward(member, x, workspace=workspace))


def _accumulate(total: Optional[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """``total + probs``, added in place; with no ``total`` yet, a copy of
    ``probs``, never the workspace buffer ``_member_probs`` yields."""
    if total is None:
        return probs.copy()
    total += probs
    return total
