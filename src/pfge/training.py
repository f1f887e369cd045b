"""One cyclical-SGD training driver and the collection rules of the algorithms.

SWA, FGE and PFGE follow one trajectory: at iteration ``i`` (1-based) the
learning rate comes from a schedule and one heavy-ball SGD step is taken.
``_drive`` runs that loop (also for the harness's pretraining) with weights,
velocity, gradient and average in preallocated buffers updated in place, in
the floating-point order of ``sgd_step`` and ``running_average_update``. Each
algorithm is an ``(average, period)`` rule: with ``average`` every
bottom-of-cycle iterate (``i % c == 0``) is folded into a running average
seeded from ``w0``, and every ``period`` iterations a member is collected: the
average, which then re-seeds the weights and the next period's average, or
without ``average`` the iterate itself. ``_collection_rule`` maps each
algorithm, for a budget of ``n`` iterations, cycle length ``c`` and recording
period ``P``, onto its rule::

    algorithm  average  period  members
    sgd        no       n       1
    swa        yes      n       1
    fge        no       c       n / c
    pfge       yes      P       n / P

Drivers are deterministic given (initial weights, schedule, batch stream,
optimizer state): rerunning with the same inputs reproduces every iterate
bit-for-bit.

``_drive`` runs every step on its caller's thread. ``ensemble_predict``
starts no thread either; handed a helper thread (which only the harness
verbs open, see ``nn._split_helper``), it gives it half of each forward's
row tiles (see ``nn.forward``) and waits for it before moving on. Every
tile is whole rows of a gemm, so the results have the bits of a one-thread
call.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import InvalidArgumentError, NumericError, ShapeError
from .nn import Batch, ModelWeights, _grad_step, _softmax_inplace, _Workspace, forward
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


def _update_blocks(w, velocity, grad) -> list:
    """The views ``_sgd_update`` works on, made once for a loop: per
    ``_BLOCK`` elements, those of ``w``, ``velocity`` and ``grad``, and the
    same length of one scratch buffer."""
    scratch = np.empty(min(w.size, _BLOCK))
    return [(w[lo:lo + _BLOCK], velocity[lo:lo + _BLOCK], grad[lo:lo + _BLOCK],
             scratch[:min(_BLOCK, w.size - lo)]) for lo in range(0, w.size, _BLOCK)]


def _sgd_update(blocks, alpha, momentum, weight_decay) -> bool:
    """In place: ``velocity <- momentum*velocity + (grad + weight_decay*w)``,
    then ``w <- w - alpha*velocity``, block by block over ``_update_blocks``.
    Returns whether every updated weight is finite, checked while each block
    is still in cache."""
    finite = True
    for w_b, v_b, g_b, s_b in blocks:
        np.multiply(w_b, weight_decay, out=s_b)
        s_b += g_b
        v_b *= momentum
        v_b += s_b
        np.multiply(v_b, alpha, out=s_b)
        w_b -= s_b
        finite = finite and bool(np.logical_and.reduce(np.isfinite(w_b)))
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
        finite = _sgd_update(_update_blocks(values, velocity, grad), alpha, state.momentum,
                             state.weight_decay)
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
           lr: Callable[[int], float], cycle_len: int, period: int, average: bool = False,
           loss_grad_fn: Optional[LossGradFn] = None, l2_coeff: float = 0.0,
           on_cycle_end: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
           start: int = 0):
    """Run SGD steps ``start + 1`` to ``n_iters`` from ``w0`` with step size
    ``lr(i)`` under the ``(average, period)`` rule of the module docstring;
    ``period`` is a multiple of ``cycle_len``, and every multiple of
    ``cycle_len`` is a cycle end, recorded in the trace. A ``start`` above 0
    resumes a run at the end of a period: ``w0`` and ``opt`` hold the weights
    and velocity there, and ``stream`` gives the batches from step
    ``start + 1`` on. The gradient comes from one ``nn._grad_step`` built for
    the run, which hands a supplied ``loss_grad_fn(weights, batch)`` a frozen
    copy of the weights. Numpy warnings are off in the loop: a non-finite
    loss or weight raises ``NumericError`` naming the iteration.
    ``on_cycle_end(w, velocity)``, if given, is called with the live iterate
    and velocity at each cycle end, before an average takes it in, which it
    must neither keep nor change; what it raises stops the loop. A stream
    that runs out first raises ``InvalidArgumentError``. Returns
    ``(EnsembleSet, trace)``.
    """
    spec = w0.spec
    w, velocity = w0.values.copy(), opt.velocity.copy()
    if velocity.shape != w.shape:
        raise ShapeError(f"velocity shape {velocity.shape} != weights {w.shape}")
    avg = w0.values.copy() if average else None
    n_models = 1
    grad = np.empty_like(w)
    blocks = _update_blocks(w, velocity, grad)
    step = _grad_step(spec, w, grad, l2_coeff, loss_grad_fn)
    lrs, losses = np.empty(n_iters - start), np.empty(n_iters - start)
    cycle_end_iters, members = [], []
    i = start
    with np.errstate(all="ignore"):
        for i, batch in zip(range(start + 1, n_iters + 1), stream):
            alpha = lr(i)
            data_loss, l2_penalty = step(batch)
            loss = data_loss + l2_penalty
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at iteration {i}")
            lrs[i - start - 1] = alpha
            losses[i - start - 1] = loss
            if not _sgd_update(blocks, alpha, opt.momentum, opt.weight_decay):
                raise NumericError(f"non-finite weights after SGD update (iteration {i})")
            if i % cycle_len:
                continue
            cycle_end_iters.append(i)
            if on_cycle_end is not None:
                on_cycle_end(w, velocity)
            if average:
                _fold(avg, n_models, w)
                n_models += 1
            if i % period == 0:
                members.append((ModelWeights(spec, avg if average else w), i))
                if average:
                    w[...] = avg
                    n_models = 1
    if i < n_iters:
        raise InvalidArgumentError(f"the batch stream ran out at iteration {i + 1}")
    trace = RunTrace(np.arange(start + 1, n_iters + 1), lrs, losses, tuple(cycle_end_iters))
    return EnsembleSet(*zip(*members)), trace


def _collection_rule(algorithm: str, sched: LrSchedule, budget: BudgetSpec):
    """Check ``budget`` against ``sched`` and return ``algorithm``'s
    ``(average, period)``, as tabled in the module docstring."""
    validate_budget(sched, budget)
    n, c, P = budget.total_iters, sched.cycle_len, budget.record_period
    return {"sgd": (False, n), "swa": (True, n), "fge": (False, c), "pfge": (True, P)}[algorithm]


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
    average, period = _collection_rule("swa", sched, BudgetSpec(n_iters))
    ensemble, trace = _drive(w0, opt, stream, n_iters, partial(lr_at, sched), sched.cycle_len,
                             period, average, loss_grad_fn, l2_coeff)
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
    average, period = _collection_rule("fge", sched, BudgetSpec(n_iters))
    return _drive(w0, opt, stream, n_iters, partial(lr_at, sched), sched.cycle_len, period,
                  average, loss_grad_fn, l2_coeff)


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
    average, period = _collection_rule("pfge", sched, BudgetSpec(n_iters, record_period))
    return _drive(w0, opt, stream, n_iters, partial(lr_at, sched), sched.cycle_len, period,
                  average, loss_grad_fn, l2_coeff)


def ensemble_predict(ensemble: EnsembleSet, inputs: np.ndarray, last_k: Optional[int] = None,
                     helper=None):
    """Average the members' softmax outputs and take the per-row argmax.

    ``last_k`` restricts the average to the most recently recorded models.
    Ties in the argmax resolve to the lowest class index. Every member's
    forward writes into one workspace and, given a ``helper`` thread, runs
    half of its row tiles there. Returns ``(avg_probs, labels)``.
    """
    if last_k is not None:
        if not (1 <= last_k <= len(ensemble)):
            raise InvalidArgumentError(
                f"last_k must be in [1, {len(ensemble)}], got {last_k}"
            )
        members = ensemble.members[-last_k:]
    else:
        members = ensemble.members
    x = np.asarray(inputs, dtype=np.float64)
    workspace = _Workspace(members[0].spec, x.shape[0] if x.ndim == 2 else 0)
    total = None
    for member in members:
        total, _ = _add_member(total, member, x, workspace, helper)
    total /= len(members)
    return total, np.argmax(total, axis=1)


def _add_member(total: Optional[np.ndarray], member: ModelWeights, x: np.ndarray,
                workspace: _Workspace, helper=None) -> tuple:
    """One member's step of an ensemble prediction: its forward of ``x``
    into ``workspace`` (half the row tiles on ``helper``, if given), softmax
    in place, added to ``total`` by ``_accumulate``. Returns ``(total,
    probs)``, ``probs`` being the workspace's buffer, valid until its next
    use."""
    probs = _softmax_inplace(forward(member, x, workspace=workspace, helper=helper))
    return _accumulate(total, probs), probs


def _accumulate(total: Optional[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """``total + probs``, added in place; with no ``total`` yet, a copy of
    ``probs``, which may be a forward's workspace buffer."""
    if total is None:
        return probs.copy()
    total += probs
    return total
