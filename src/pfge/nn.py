"""Minimal dense feed-forward network with exact analytic gradients.

Weights live in a single flat float64 vector so that every algorithm in this
package (running averages, snapshot collection, Bezier combinations) is plain
vector arithmetic. The flat layout is, per layer ``l``: the weight matrix
``W_l`` of shape (sizes[l], sizes[l+1]) in row-major order, followed by the
bias ``b_l`` of length sizes[l+1]. Hidden layers apply the configured
activation; the output layer is linear and produces logits.
"""

import ctypes
import queue
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InvalidArgumentError, ShapeError
from .rng import STREAM_INIT, stream_rng

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    """Architecture descriptor: layer widths plus the hidden activation."""

    sizes: tuple
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 2:
            raise ConfigurationError("LayerSpec needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ConfigurationError(f"layer sizes must be >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def param_count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in zip(self.sizes[:-1], self.sizes[1:]))

    @property
    def n_classes(self) -> int:
        return self.sizes[-1]


@dataclass(frozen=True)
class ModelWeights:
    """A flat parameter vector tied to its architecture.

    The array is frozen after construction; all operations return new vectors.
    """

    spec: LayerSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size != self.spec.param_count:
            raise ShapeError(
                f"expected {self.spec.param_count} parameters for {self.spec.sizes}, "
                f"got array of shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("weights contain non-finite values")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _as_labels(labels) -> np.ndarray:
    """``labels`` as an int64 array. Integer arrays are cast as they are; any
    other values must be integral and finite, or ``InvalidArgumentError``
    is raised rather than truncating them."""
    try:
        values = np.asarray(labels)
        if values.dtype.kind in "biu":
            return values.astype(np.int64, copy=False)
        values = values.astype(np.float64)
    except (TypeError, ValueError):
        raise InvalidArgumentError("labels must be finite integers") from None
    # Fails on NaN, infinities, fractions and magnitudes beyond int64 alike.
    if not np.all((np.trunc(values) == values) & (np.abs(values) < 2.0**63)):
        raise InvalidArgumentError("labels must be finite integers")
    return values.astype(np.int64)


@dataclass(frozen=True)
class Batch:
    """A mini-batch of inputs with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = _as_labels(self.labels)
        if inputs.ndim != 2:
            raise ShapeError(f"batch inputs must be 2-D, got shape {inputs.shape}")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ShapeError(
                f"label count {labels.shape} does not match input rows {inputs.shape[0]}"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class LossValue:
    """Mean cross-entropy plus the L2 penalty, kept separately."""

    data_loss: float
    l2_penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.data_loss + self.l2_penalty)


def init_model(spec: LayerSpec, seed: int) -> ModelWeights:
    """Initialize weights uniformly in +-1/sqrt(fan_in); biases start at zero.

    Deterministic in (spec, seed): draws come from the dedicated init stream,
    layer by layer.
    """
    rng = stream_rng(seed, STREAM_INIT)
    chunks = []
    for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        chunks.append(rng.uniform(-scale, scale, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelWeights(spec, np.concatenate(chunks))


def _layer_views(spec: LayerSpec, flat: np.ndarray) -> list:
    """Split a flat vector laid out for ``spec`` into per-layer (W, b) views."""
    layers = []
    offset = 0
    for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
        W = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[offset : offset + fan_out]
        offset += fan_out
        layers.append((W, b))
    return layers


def unpack(w: ModelWeights) -> list:
    """Split the flat vector into per-layer (W, b) views."""
    return _layer_views(w.spec, w.values)


class _Workspace:
    """Forward buffers for up to ``rows`` input rows of ``spec``: two hidden
    buffers, which the hidden layers write in turn, and one for the logits.
    A call on fewer rows writes a row prefix of each, which is C-contiguous
    like a fresh array, so the matmuls are the ones a fresh forward makes."""

    def __init__(self, spec: LayerSpec, rows: int):
        hidden = spec.sizes[1:-1]
        self.spec, self.rows = spec, rows
        self.hidden = [np.empty(rows * max(hidden)) for _ in hidden[:2]]
        self.logits = np.empty(rows * spec.n_classes)

    def out(self, layer: int, rows: int) -> np.ndarray:
        """The (rows, width) array that ``layer`` writes its output into."""
        width = self.spec.sizes[layer + 1]
        buf = self.logits if layer == self.spec.n_layers - 1 else self.hidden[layer % 2]
        return buf[: rows * width].reshape(rows, width)


class _BackgroundThread:
    """Runs the calls given to ``submit`` one at a time, first in, first out,
    on one background thread, and keeps what they return in ``results``.

    The calls must enter no name that a tracer wraps in ``harness``,
    ``training`` or ``connectivity``: such a tracer keeps one span stack, for
    the main thread alone. So they call ``nn`` and ``metrics`` directly. As a
    context manager it starts the thread on entry and joins it on exit; the
    calls run under numpy's error state as it was on entry. An exception
    leaving the block cancels the calls still queued. Without one, the first
    error a call raised is raised on exit, and the calls queued after it do
    not run; ``wait`` raises it as soon as it is known."""

    def __init__(self, name: str):
        self.results = []
        self._queue = queue.SimpleQueue()
        self._error = None
        self._pending = 0
        self._idle = threading.Condition()
        self._thread = threading.Thread(target=self._work, name=name)

    def __enter__(self):
        self._errstate = np.geterr()
        self._thread.start()
        return self

    def submit(self, call, *args) -> None:
        with self._idle:
            self._pending += 1
        self._queue.put(partial(call, *args))

    def wait(self) -> None:
        """Block until every call submitted so far has run and drop what
        they returned from ``results``; raise the first error a call raised
        instead."""
        with self._idle:
            self._idle.wait_for(lambda: not self._pending)
        if self._error is not None:
            raise self._error
        self.results.clear()

    def _work(self) -> None:
        with np.errstate(**self._errstate):
            while (call := self._queue.get()) is not None:
                try:
                    if self._error is None:
                        self.results.append(call())
                except Exception as exc:
                    self._error = exc
                with self._idle:
                    self._pending -= 1
                    self._idle.notify()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._error = exc or self._error  # an error in the block cancels what is queued
        self._queue.put(None)
        self._thread.join()
        if exc is None and self._error is not None:
            raise self._error


# Each output column of a gemm is its own dot products, so a layer computed
# as two gemms over its left and right columns can have the bits of one gemm
# (row halves do not). With OpenBLAS's SkylakeX kernel that holds when both
# the width and the split point are multiples of 8 (the last ``width % 8``
# columns of a gemm come out differently) and when each half stays off the
# small-matrix path, which halves of 5-9 rows x 784 x 256 took. A loop handed
# a helper thread splits the work of a layer at least this wide and this
# large with it; smaller layers lose more to the handoff than they gain.
_SPLIT_COLUMNS = 256
_SPLIT_MULTIPLY_ADDS = 2**23
# The OpenBLAS kernels under which such halves were checked to have the bits
# of the whole gemm, all with one BLAS thread. With more, OpenBLAS gives each
# thread a share of the rows or of the columns, whichever is longer, and
# Haswell computes a share's last rows in another order, so a layer and its
# halves can differ. Elsewhere no loop gets a helper.
_EXACT_SPLIT_CORES = ("SkylakeX", "Haswell", "Sandybridge")


@cache
def _openblas(name: str, restype=ctypes.c_int):
    """OpenBLAS's ``openblas_<name>()`` as numpy loaded it, returning
    ``restype``, or None if numpy's BLAS is not OpenBLAS."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    libs = sorted({line.split()[-1] for line in lines if "openblas" in line and "/" in line})
    for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
        for lib in libs:
            if (func := getattr(ctypes.CDLL(lib), symbol, None)) is not None:
                func.restype = restype
                return func


def _splits_exactly() -> bool:
    """Whether column halves of a gemm have its bits under numpy's BLAS as
    it is set now: OpenBLAS on one thread with a kernel checked for it."""
    core, threads = _openblas("get_corename", ctypes.c_char_p), _openblas("get_num_threads")
    return core is not None and threads() == 1 and core().decode() in _EXACT_SPLIT_CORES


def _split_point(rows, fan_in: int, fan_out: int) -> int:
    """The output column at which a ``fan_in`` x ``fan_out`` layer on
    ``rows`` rows splits between two threads, or 0 if it stays whole."""
    wide = fan_out >= _SPLIT_COLUMNS and fan_out % 8 == 0
    return fan_out // 16 * 8 if wide and rows * fan_in * fan_out >= _SPLIT_MULTIPLY_ADDS else 0


def _split_helper(spec: LayerSpec, rows=float("inf")):
    """A ``_BackgroundThread`` to split ``spec``'s layers on ``rows`` rows
    with, or, if none of them would split or the BLAS in effect does not
    split exactly, a context that gives None. By default a layer counts if
    it splits on enough rows."""
    split = any(_split_point(rows, *shape) for shape in zip(spec.sizes[:-1], spec.sizes[1:]))
    return _BackgroundThread("pfge-layer-half") if split and _splits_exactly() else nullcontext()


def _dense(h: np.ndarray, W: np.ndarray, b: np.ndarray, activation, out=None) -> np.ndarray:
    """``activation(h @ W + b)``, written into ``out`` if given; an
    ``activation`` of None leaves the layer linear."""
    out = np.matmul(h, W, out=out)
    out += b
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)
    return out


def _forward(layers, x: np.ndarray, activation: str, acts=None, workspace=None,
             helper=None) -> np.ndarray:
    """Logits of ``x``; each hidden layer's output is appended to ``acts`` if
    given, and written into ``workspace`` if given instead of fresh arrays.
    Given a ``helper`` thread, a layer at a ``_split_point`` computes its
    right columns on it."""
    h = x
    rows, last = x.shape[0], len(layers) - 1
    for idx, (W, b) in enumerate(layers):
        act = activation if idx < last else None
        out = None if workspace is None else workspace.out(idx, rows)
        m = 0 if helper is None else _split_point(rows, *W.shape)
        if m:
            out = np.empty((rows, W.shape[1])) if out is None else out
            helper.submit(_dense, h, W[:, m:], b[m:], act, out[:, m:])
            _dense(h, W[:, :m], b[:m], act, out[:, :m])
            helper.wait()
        h = out if m else _dense(h, W, b, act, out)
        if idx == last:
            return h
        if acts is not None:
            acts.append(h)


# numpy reduces a C-ordered (rows, classes) array along axis 1 at tens of
# nanoseconds per row, while one elementwise pass over a column costs about a
# microsecond plus a nanosecond or two per row. The class-axis maxima and
# argmaxes below go column by column on arrays with at least this many rows
# per column, and through numpy on shorter, wider ones.
_ROWS_PER_COLUMN = 16


def _by_columns(z: np.ndarray) -> bool:
    rows, cols = z.shape
    return cols > 0 and rows >= _ROWS_PER_COLUMN * cols


def _row_max(z: np.ndarray) -> np.ndarray:
    """``np.maximum.reduce(z, axis=1)`` of a 2-D ``z``: the same values, a NaN
    in a row included. Only the sign of a zero maximum that ties with a zero
    of the other sign may differ; numpy's own reduction picks it by the order
    of its vector lanes, which depends on the CPU."""
    if not _by_columns(z):
        return np.maximum.reduce(z, axis=1)
    out = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(out, z[:, j], out=out)
    return out


def _row_argmax(z: np.ndarray, row_max: np.ndarray) -> np.ndarray:
    """``np.argmax(z, axis=1)`` of a 2-D ``z`` without NaN, given ``row_max =
    _row_max(z)``: each row's first column equal to its maximum. A row holding
    NaN gets an unspecified column, not numpy's first NaN."""
    if not _by_columns(z):
        return np.argmax(z, axis=1)
    # A row's first maximum sits after the run of leading columns that miss it.
    missed = z[:, 0] != row_max
    out = missed.astype(np.intp)
    for j in range(1, z.shape[1] - 1):
        missed &= z[:, j] != row_max
        out += missed
    return out


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray):
    """Stable mean cross-entropy, overwriting ``logits`` with ``exp_shifted``;
    returns it with ``row_sums`` such that ``softmax(logits) == exp_shifted /
    row_sums[:, None]``. ``rows`` is ``np.arange(len(labels))``."""
    logits -= _row_max(logits)[:, None]
    picked = logits[rows, labels]
    np.exp(logits, out=logits)
    row_sums = np.add.reduce(logits, axis=1)
    # The mean as ``np.mean`` computes it (one pairwise sum, then a division),
    # without its Python-level wrapper; ``terms`` is a fresh array.
    terms = np.log(row_sums)
    terms -= picked
    return float(np.add.reduce(terms)) / len(terms), logits, row_sums


def _l2_penalty(layers, l2_coeff: float) -> float:
    if l2_coeff > 0.0:
        return 0.5 * l2_coeff * sum(float(np.sum(W**2)) for W, _ in layers)
    return 0.0


def forward(w: ModelWeights, inputs: np.ndarray, *, workspace=None, helper=None) -> np.ndarray:
    """Compute logits, shape (batch, classes). Given a ``_Workspace`` for
    ``w.spec``, the logits are a view of its buffer, valid until its next use.
    Given a ``helper`` thread, wide layers are split with it."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.spec.sizes[0]:
        raise ShapeError(
            f"inputs of shape {x.shape} do not match input width {w.spec.sizes[0]}"
        )
    if workspace is not None and (workspace.spec != w.spec or x.shape[0] > workspace.rows):
        raise InvalidArgumentError(
            f"a workspace for {workspace.rows} rows of {workspace.spec.sizes} cannot "
            f"hold {x.shape[0]} rows of {w.spec.sizes}"
        )
    return _forward(unpack(w), x, w.spec.activation, workspace=workspace, helper=helper)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    return _softmax_inplace(np.array(logits, dtype=np.float64))


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """``softmax`` of ``z`` written over ``z``; returns ``z``. The row maxima
    of any number of leading axes are taken on ``z`` seen as one 2-D array."""
    z -= _row_max(z.reshape(-1, z.shape[-1])).reshape(z.shape[:-1] + (1,))
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def loss_and_grad(w: ModelWeights, batch: Batch, l2_coeff: float = 0.0):
    """Mean cross-entropy with optional L2 penalty, plus its exact gradient.

    The L2 term is ``l2_coeff/2 * sum(W**2)`` over weight matrices only;
    biases are excluded. Returns ``(LossValue, grad)`` with ``grad`` a flat
    vector matching the weight layout.
    """
    grad = np.empty(w.spec.param_count)
    return LossValue(*_GradStep(w.spec, w.values, grad, l2_coeff)(batch)), grad


class _GradStep:
    """``loss_and_grad`` for a loop whose flat weight vector ``values`` and
    gradient vector ``grad`` never move: their layer views, and the row
    index of each batch size, are built once, not per step. Calling it on a
    batch checks the batch, writes the gradient into ``grad`` and returns
    ``(data_loss, l2_penalty)`` as floats. Given a ``helper`` thread, a layer
    at a ``_split_point`` shares its work with it: the forward's right
    columns; at the first layer the weight gradient's right columns; at any
    other layer the whole weight gradient, beside the main thread's
    ``delta @ W.T``. Every piece is a whole gemm or whole columns of one."""

    def __init__(self, spec: LayerSpec, values: np.ndarray, grad: np.ndarray,
                 l2_coeff: float):
        if l2_coeff < 0:
            raise InvalidArgumentError("l2_coeff must be nonnegative")
        self.spec, self.l2_coeff = spec, l2_coeff
        self.layers, self.grad_layers = _layer_views(spec, values), _layer_views(spec, grad)
        self.rows = {}

    def __call__(self, batch: Batch, helper=None):
        # A driver accepts any stream of batches, so each one is checked: a
        # negative label would otherwise wrap around silently.
        _check_batch(self.spec, batch)
        layers, activation, l2_coeff = self.layers, self.spec.activation, self.l2_coeff
        x, labels, n = batch.inputs, batch.labels, len(batch)
        rows = self.rows.get(n)
        if rows is None:
            rows = self.rows[n] = np.arange(n)
        acts = [x]
        logits = _forward(layers, x, activation, acts, helper=helper)
        data_loss, delta, row_sums = _cross_entropy(logits, labels, rows)

        # Softmax minus the one-hot labels, over the batch size.
        delta /= row_sums[:, None]
        delta[rows, labels] -= 1.0
        delta /= n

        for idx in range(len(layers) - 1, -1, -1):
            W, _ = layers[idx]
            dW, db = self.grad_layers[idx]
            m = helper and _split_point(n, *W.shape)
            if not m:
                _param_grad(acts[idx], delta, W, dW, db, l2_coeff)
            elif idx:  # the whole gradient, beside ``delta @ W.T`` below
                helper.submit(_param_grad, acts[idx], delta, W, dW, db, l2_coeff)
            else:  # the right columns on the helper, the left ones here
                helper.submit(_param_grad, acts[0], delta, W, dW, db, l2_coeff, slice(m, None))
                _param_grad(acts[0], delta, W, dW, db, l2_coeff, slice(None, m))
            if idx > 0:
                delta = delta @ W.T
                if activation == "relu":
                    delta *= acts[idx] > 0.0
                else:
                    delta *= 1.0 - acts[idx] ** 2
            if m:
                helper.wait()
        return data_loss, _l2_penalty(layers, l2_coeff)


def _param_grad(acts, delta, W, dW, db, l2_coeff: float, cols=None) -> None:
    """Write a layer's gradient, only its columns ``cols`` if given: ``dW =
    acts.T @ delta + l2_coeff * W`` and ``db`` the column sums of ``delta``."""
    if cols is not None:
        delta, W, dW, db = delta[:, cols], W[:, cols], dW[:, cols], db[cols]
    np.matmul(acts.T, delta, out=dW)
    np.add.reduce(delta, axis=0, out=db)
    if l2_coeff > 0.0:
        dW += l2_coeff * W


def _grad_step(spec: LayerSpec, values: np.ndarray, grad: np.ndarray, l2_coeff: float,
               loss_grad_fn=None):
    """A training loop's gradient: a ``_GradStep``, or, given a caller's
    ``loss_grad_fn(weights, batch) -> (LossValue, grad)``, a step called the
    same way that passes it a frozen copy of ``values``, checks the
    gradient's shape and copies it into ``grad``."""
    if loss_grad_fn is None:
        return _GradStep(spec, values, grad, l2_coeff)

    def step(batch: Batch, helper=None):
        value, step_grad = loss_grad_fn(ModelWeights(spec, values), batch)
        step_grad = np.asarray(step_grad, dtype=np.float64)
        if step_grad.shape != grad.shape:
            raise ShapeError(f"gradient shape {step_grad.shape} != weights {grad.shape}")
        grad[...] = step_grad
        return value.data_loss, value.l2_penalty
    return step


def _check_batch(spec: LayerSpec, batch: Batch) -> None:
    """Raise unless ``batch`` is non-empty, as wide as ``spec``'s input and
    labelled within ``[0, n_classes)``."""
    if len(batch) == 0:
        raise InvalidArgumentError("empty batch")
    x, labels = batch.inputs, batch.labels
    if x.shape[1] != spec.sizes[0]:
        raise ShapeError(
            f"batch width {x.shape[1]} does not match input width {spec.sizes[0]}"
        )
    n_classes = spec.n_classes
    # One reduction checks both ends: labels are int64, and a negative one
    # read as uint64 is at least 2**63.
    if np.maximum.reduce(labels.view(np.uint64)) >= n_classes:
        raise InvalidArgumentError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


def mean_loss(w: ModelWeights, inputs: np.ndarray, labels: np.ndarray, l2_coeff: float = 0.0,
              *, workspace=None, helper=None) -> LossValue:
    """Loss over a full input matrix without computing gradients; the inputs
    and labels are checked as a training batch is. ``workspace`` and
    ``helper`` are passed on to ``forward``."""
    batch = Batch(inputs, labels)
    _check_batch(w.spec, batch)
    logits = forward(w, batch.inputs, workspace=workspace, helper=helper)
    data_loss = _cross_entropy(logits, batch.labels, np.arange(len(batch)))[0]
    return LossValue(data_loss, _l2_penalty(unpack(w), l2_coeff))


def linear_combine(a: float, w_a: ModelWeights, b: float, w_b: ModelWeights) -> ModelWeights:
    """Elementwise ``a*w_a + b*w_b``. Specs must match."""
    if w_a.spec != w_b.spec:
        raise ShapeError(f"spec mismatch: {w_a.spec.sizes} vs {w_b.spec.sizes}")
    return ModelWeights(w_a.spec, a * w_a.values + b * w_b.values)
