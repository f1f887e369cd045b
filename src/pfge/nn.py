"""Minimal dense feed-forward network with exact analytic gradients.

Weights live in a single flat float64 vector so that every algorithm in this
package (running averages, snapshot collection, Bezier combinations) is plain
vector arithmetic. The flat layout is, per layer ``l``: the weight matrix
``W_l`` of shape (sizes[l], sizes[l+1]) in row-major order, followed by the
bias ``b_l`` of length sizes[l+1]. Hidden layers apply the configured
activation; the output layer is linear and produces logits.

A training step runs whole on its caller's thread. Where OpenBLAS runs one
thread on a kernel checked for it (``_splits_exactly``), a forward over many
rows runs in row tiles, which have the bits of the whole gemm, half of them
on a helper thread if it has one (``forward``).
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

    @classmethod
    def _take(cls, inputs: np.ndarray, labels: np.ndarray):
        """Wrap ``inputs`` and ``labels`` without the public constructor's
        conversions and checks: for float64 and int64 arrays of matching
        rows, such as the rows a ``Dataset`` hands out, which are checked
        already. A training step still checks the batch (``_check_batch``)."""
        batch = cls.__new__(cls)
        object.__setattr__(batch, "inputs", inputs)
        object.__setattr__(batch, "labels", labels)
        return batch

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
    """Forward buffers for up to ``rows`` input rows of ``spec``, kept from
    one forward to the next:

    - the logits;
    - two tile buffers per thread, of up to ``2 * _TILE_ROWS - 1`` rows,
      which a thread's row tiles write in turn, layer by layer (see
      ``forward``); a whole forward of fewer than ``2 * _TILE_ROWS`` rows
      uses the caller's;
    - full-row hidden buffers, for a forward of at least ``2 * _TILE_ROWS``
      rows: where layers that run whole follow the tiled ones, one for the
      last tiled layer's output and one more if a whole hidden layer
      follows; two for a forward that runs whole.

    A call on fewer rows writes a row prefix of each, which is C-contiguous
    like a fresh array, so the matmuls are the ones a fresh forward makes.

    The buffers that a forward of ``rows`` rows writes on one thread are
    made here, on the thread that makes the workspace; any other, such as a
    helper's tile buffers, when a forward first asks for it. Made on a
    scorer's thread, they would be freed into that thread's malloc arena,
    which the main thread's later verbs do not reuse: the process's peak
    RSS then grows."""

    def __init__(self, spec: LayerSpec, rows: int):
        self.spec, self.rows = spec, rows
        self._width = max(spec.sizes[1:-1], default=0)
        self._buffers = {}
        tiled = _tiled_layers(spec, rows)
        for layer in range(spec.n_layers):
            if layer < tiled - 1:
                self.out(layer, 0, thread=0)
            else:
                self.out(layer, rows)

    def out(self, layer: int, rows: int, thread=None) -> np.ndarray:
        """The (rows, width) array that ``layer`` writes its output into: a
        row prefix of the logits, of a full-row buffer, or, for a tile of
        the thread numbered ``thread`` (0 the caller's, 1 its helper) or a
        short whole forward, of that thread's tile buffer. A helper asks
        only for its own tile buffers, so no buffer is made by two threads."""
        width = self.spec.sizes[layer + 1]
        if layer == self.spec.n_layers - 1:
            key, size = "logits", self.rows * width
        elif thread is None and rows >= 2 * _TILE_ROWS:
            key, size = layer % 2, self.rows * self._width
        else:
            key, size = (thread or 0, layer % 2), min(self.rows, 2 * _TILE_ROWS - 1) * self._width
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(size)
        return _rows(buf, rows, width)


def _rows(buf: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first ``rows * width`` elements of the flat ``buf`` as a C-ordered
    (rows, width) array."""
    return buf[: rows * width].reshape(rows, width)


class _BackgroundThread:
    """Runs the calls given to ``submit`` one at a time, first in, first out,
    on one background thread; ``result`` returns what the oldest call whose
    result was not yet taken returned, waiting for it if need be.

    The calls must enter no name that a tracer wraps in ``harness``,
    ``training`` or ``connectivity``: such a tracer keeps one span stack, for
    the main thread alone. So they call ``nn`` and ``metrics`` directly. As a
    context manager it starts the thread on entry and joins it on exit. Each
    call runs under numpy's error state as it was where it was submitted.
    Once a call raises, the calls queued after it do not run, and ``result``
    raises its error for each of them. An exception leaving the block
    cancels the calls still queued; without one, the first error among the
    results not taken is raised on exit."""

    def __init__(self, name: str):
        self._calls, self._replies = queue.SimpleQueue(), queue.SimpleQueue()
        self._cancelled = False
        self._thread = threading.Thread(target=self._work, name=name)

    def __enter__(self):
        self._thread.start()
        return self

    def submit(self, call, *args) -> None:
        self._calls.put((np.geterr(), partial(call, *args)))

    def result(self):
        error, value = self._replies.get()
        if error is not None:
            raise error
        return value

    def _work(self) -> None:
        error = None
        while (item := self._calls.get()) is not None:
            errstate, call = item
            value = None
            if error is None and not self._cancelled:
                try:
                    with np.errstate(**errstate):
                        value = call()
                except Exception as exc:
                    error = exc
            self._replies.put((error, value))

    def __exit__(self, exc_type, exc, tb) -> None:
        self._cancelled = exc is not None
        self._calls.put(None)
        self._thread.join()
        while exc is None and not self._replies.empty():
            error, _ = self._replies.get()
            if error is not None:
                raise error


# The OpenBLAS kernels under which the row tiles below were checked to have
# the bits of the whole gemm, all with one BLAS thread. With more, OpenBLAS
# gives each thread a share of the rows or of the columns, whichever is
# longer, and Haswell computes a share's last rows in another order, so a
# layer and its parts can differ. Elsewhere nothing tiles.
_EXACT_TILE_CORES = ("SkylakeX", "Haswell", "Sandybridge")
# Each row of a gemm is its own dot products, and under these kernels at
# one thread a tile of at least this many rows has the bits of the whole gemm
# where the width is a multiple of 8: 0 of 450 random shapes differed, tiles
# of 128-1,024 rows. Other widths (2 and 10 among them), tiles of 8-16 rows
# and a short remainder left as its own tile do differ. A forward over at
# least two tiles' rows runs its leading layers whose widths are multiples
# of 8 in tiles of this many rows, the remainder joined to the last, which
# keeps a tile's activations in cache and lets a helper take half of them.
_TILE_ROWS = 512


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
    """Whether row tiles of a gemm have its bits under numpy's BLAS as it
    is set now: OpenBLAS on one thread with a kernel checked for it."""
    core, threads = _openblas("get_corename", ctypes.c_char_p), _openblas("get_num_threads")
    return core is not None and threads() == 1 and core().decode() in _EXACT_TILE_CORES


def _tiled_layers(spec: LayerSpec, rows) -> int:
    """How many leading layers of ``spec`` a forward of ``rows`` rows runs in
    row tiles: those whose widths are multiples of 8, if it has at least
    ``2 * _TILE_ROWS`` rows and the BLAS in effect splits exactly; else 0."""
    if rows < 2 * _TILE_ROWS or not _splits_exactly():
        return 0
    widths = spec.sizes[1:]
    return next((idx for idx, width in enumerate(widths) if width % 8), len(widths))


def _split_helper(spec: LayerSpec, rows: int):
    """A ``_BackgroundThread`` to share the row tiles of ``spec``'s forwards
    on ``rows`` rows with, or, where they do not tile (see
    ``_tiled_layers``), a context that gives None."""
    return _BackgroundThread("pfge-layer-half") if _tiled_layers(spec, rows) else nullcontext()


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
             first=0) -> np.ndarray:
    """Logits of ``x``, the input of ``layers[first]``, through
    ``layers[first:]``; each hidden layer's output is appended to ``acts`` if
    given, and written into ``workspace`` if given instead of fresh arrays."""
    h = x
    rows, last = x.shape[0], len(layers) - 1
    for idx in range(first, last + 1):
        W, b = layers[idx]
        out = None if workspace is None else workspace.out(idx, rows)
        h = _dense(h, W, b, activation if idx < last else None, out)
        if acts is not None and idx < last:
            acts.append(h)
    return h


def _forward_tiles(layers, count: int, x: np.ndarray, activation: str, out: np.ndarray,
                   workspace: _Workspace, thread: int, start: int, stop: int) -> None:
    """Run rows ``start:stop`` of ``x`` through the first ``count`` of
    ``layers`` in tiles of ``_TILE_ROWS`` rows, the remainder joined to the
    last tile; the hidden outputs go into the tile buffers of ``workspace``'s
    thread numbered ``thread``, and layer ``count - 1``'s into the same rows
    of ``out``."""
    last = len(layers) - 1
    starts = range(start, stop - _TILE_ROWS + 1, _TILE_ROWS)
    for lo, hi in zip(starts, [*starts[1:], stop]):
        h = x[lo:hi]
        for idx in range(count):
            W, b = layers[idx]
            dest = out[lo:hi] if idx == count - 1 else workspace.out(idx, hi - lo, thread)
            h = _dense(h, W, b, activation if idx < last else None, dest)


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


def _cross_entropy(logits: np.ndarray, picks: np.ndarray):
    """Stable mean cross-entropy, overwriting ``logits`` with ``exp_shifted``;
    returns it with ``row_sums`` such that ``softmax(logits) == exp_shifted /
    row_sums[:, None]``. ``picks`` is the flat index ``arange(rows) *
    classes + labels`` of each row's true-class logit."""
    logits -= _row_max(logits)[:, None]
    picked = logits.ravel()[picks]
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
    """Compute logits, shape (batch, classes), into ``workspace``, a
    ``_Workspace`` for ``w.spec``, or a fresh one; the logits are a view of
    its buffer, valid until its next use.

    Where ``_tiled_layers`` says so, the leading layers run in row tiles.
    Given a ``helper`` thread, the rows then split into two halves at a
    multiple of 8 near the middle, each tiled on its own, and the helper
    runs the second half's tiles. The layers after the tiled ones run whole
    on the caller's thread."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.spec.sizes[0]:
        raise ShapeError(
            f"inputs of shape {x.shape} do not match input width {w.spec.sizes[0]}"
        )
    rows = x.shape[0]
    if workspace is None:
        workspace = _Workspace(w.spec, rows)
    elif workspace.spec != w.spec or rows > workspace.rows:
        raise InvalidArgumentError(
            f"a workspace for {workspace.rows} rows of {workspace.spec.sizes} cannot "
            f"hold {rows} rows of {w.spec.sizes}"
        )
    layers, activation = unpack(w), w.spec.activation
    count = _tiled_layers(w.spec, rows)
    if not count:
        return _forward(layers, x, activation, workspace=workspace)
    h = workspace.out(count - 1, rows)
    tiles = partial(_forward_tiles, layers, count, x, activation, h, workspace)
    half = rows // 16 * 8 if helper is not None else rows
    if helper is not None:
        helper.submit(tiles, 1, half, rows)
    tiles(0, 0, half)
    if helper is not None:
        helper.result()
    return _forward(layers, h, activation, workspace=workspace, first=count)


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
    gradient vector ``grad`` never move: their layer views are built once,
    and so are the step buffers, which hold each layer's output, the delta
    ``delta @ W.T`` back-propagated into each hidden layer, the hidden
    activation's derivative (the ReLU mask ``a > 0`` or tanh's ``1 - a²``)
    and the flat index ``arange(n) * classes + labels`` of each row's
    true-class logit. They are made for the first batch and again only when
    a larger one arrives; a smaller batch, such as an epoch's short last
    one, uses C-contiguous row prefixes of them, as ``_Workspace`` does, so
    every gemm is the one a fresh array gets. Calling it on a batch checks
    the batch, writes the gradient into ``grad`` and returns ``(data_loss,
    l2_penalty)`` as floats, all on the caller's thread."""

    def __init__(self, spec: LayerSpec, values: np.ndarray, grad: np.ndarray,
                 l2_coeff: float):
        if l2_coeff < 0:
            raise InvalidArgumentError("l2_coeff must be nonnegative")
        self.spec, self.l2_coeff = spec, l2_coeff
        self.layers, self.grad_layers = _layer_views(spec, values), _layer_views(spec, grad)
        self.capacity, self._sized = 0, {}

    def _views(self, n: int):
        """The step buffers' views for a batch of ``n`` rows, made at the
        first such batch: per layer its output, per hidden layer the delta
        and its activation's derivative, each (n, width); the first ``n``
        row offsets ``row * classes``; and the flat label index.
        A batch larger than any before makes the buffers again."""
        views = self._sized.get(n)
        if views is None:
            sizes, hidden = self.spec.sizes, self.spec.sizes[1:-1]
            if n > self.capacity:
                widest = max(hidden, default=0)
                self.capacity, self._sized = n, {}
                self._buffers = ([np.empty(n * width) for width in sizes[1:]],
                                 [np.empty(n * width) for width in hidden],
                                 np.empty(n * widest), np.arange(n) * sizes[-1],
                                 np.empty(n, dtype=np.int64))
            outs, deltas, derivative, offsets, picks = self._buffers
            views = self._sized[n] = (
                [_rows(buf, n, width) for buf, width in zip(outs, sizes[1:])],
                [_rows(buf, n, width) for buf, width in zip(deltas, hidden)],
                [_rows(derivative, n, width) for width in hidden], offsets[:n], picks[:n])
        return views

    def out(self, layer: int, rows: int) -> np.ndarray:
        """Where ``_forward`` writes ``layer``'s output on ``rows`` rows, as
        into a ``_Workspace``."""
        return self._sized[rows][0][layer]

    def __call__(self, batch: Batch):
        # A driver accepts any stream of batches, so each one is checked: a
        # negative label would otherwise wrap around silently.
        _check_batch(self.spec, batch)
        layers, activation, l2_coeff = self.layers, self.spec.activation, self.l2_coeff
        x, labels, n = batch.inputs, batch.labels, len(batch)
        _, deltas, derivatives, offsets, picks = self._views(n)
        acts = [x]
        logits = _forward(layers, x, activation, acts, workspace=self)
        data_loss, delta, row_sums = _cross_entropy(logits, np.add(offsets, labels, out=picks))

        # Softmax minus the one-hot labels, over the batch size.
        delta /= row_sums[:, None]
        delta.ravel()[picks] -= 1.0  # a view: ``delta`` is C-contiguous
        delta /= n

        for idx in range(len(layers) - 1, -1, -1):
            W, _ = layers[idx]
            dW, db = self.grad_layers[idx]
            _param_grad(acts[idx], delta, W, dW, db, l2_coeff)
            if idx > 0:
                delta = np.matmul(delta, W.T, out=deltas[idx - 1])
                derivative = derivatives[idx - 1]
                if activation == "relu":
                    # Written as float: a bool mask would make the multiply
                    # cast it in a fresh buffer.
                    np.greater(acts[idx], 0.0, out=derivative)
                else:
                    np.subtract(1.0, np.square(acts[idx], out=derivative), out=derivative)
                delta *= derivative
        return data_loss, _l2_penalty(layers, l2_coeff)


def _param_grad(acts, delta, W, dW, db, l2_coeff: float) -> None:
    """Write a layer's gradient: ``dW = acts.T @ delta + l2_coeff * W`` and
    ``db`` the column sums of ``delta``."""
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

    def step(batch: Batch):
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
    data_loss = _cross_entropy(logits, np.arange(len(batch)) * w.spec.n_classes + batch.labels)[0]
    return LossValue(data_loss, _l2_penalty(unpack(w), l2_coeff))


def linear_combine(a: float, w_a: ModelWeights, b: float, w_b: ModelWeights) -> ModelWeights:
    """Elementwise ``a*w_a + b*w_b``. Specs must match."""
    if w_a.spec != w_b.spec:
        raise ShapeError(f"spec mismatch: {w_a.spec.sizes} vs {w_b.spec.sizes}")
    return ModelWeights(w_a.spec, a * w_a.values + b * w_b.values)
