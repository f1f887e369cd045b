"""Minimal dense feed-forward network with exact analytic gradients.

Weights live in a single flat float64 vector so that every algorithm in this
package (running averages, snapshot collection, Bezier combinations) is plain
vector arithmetic. The flat layout is, per layer ``l``: the weight matrix
``W_l`` of shape (sizes[l], sizes[l+1]) in row-major order, followed by the
bias ``b_l`` of length sizes[l+1]. Hidden layers apply the configured
activation; the output layer is linear and produces logits.
"""

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Batch:
    """A mini-batch of inputs with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
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


def _forward(layers, x: np.ndarray, activation: str, acts=None, workspace=None) -> np.ndarray:
    """Logits of ``x``; each hidden layer's output is appended to ``acts`` if
    given, and written into ``workspace`` if given instead of fresh arrays."""
    h = x
    last = len(layers) - 1
    for idx, (W, b) in enumerate(layers):
        h = h @ W if workspace is None else np.matmul(h, W, out=workspace.out(idx, x.shape[0]))
        h += b
        if idx == last:
            return h
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray):
    """Stable mean cross-entropy, overwriting ``logits`` with ``exp_shifted``;
    returns it with ``row_sums`` such that ``softmax(logits) == exp_shifted /
    row_sums[:, None]``. ``rows`` is ``np.arange(len(labels))``."""
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[rows, labels]
    np.exp(logits, out=logits)
    row_sums = logits.sum(axis=1)
    return float(np.mean(np.log(row_sums) - picked)), logits, row_sums


def _l2_penalty(layers, l2_coeff: float) -> float:
    if l2_coeff > 0.0:
        return 0.5 * l2_coeff * sum(float(np.sum(W**2)) for W, _ in layers)
    return 0.0


def forward(w: ModelWeights, inputs: np.ndarray, *, workspace=None) -> np.ndarray:
    """Compute logits, shape (batch, classes). Given a ``_Workspace`` for
    ``w.spec``, the logits are a view of its buffer, valid until its next use."""
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
    return _forward(unpack(w), x, w.spec.activation, workspace=workspace)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    return _softmax_inplace(np.array(logits, dtype=np.float64))


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    """``softmax`` of ``z`` written over ``z``; returns ``z``."""
    z -= z.max(axis=-1, keepdims=True)
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
    ``(data_loss, l2_penalty)`` as floats."""

    def __init__(self, spec: LayerSpec, values: np.ndarray, grad: np.ndarray,
                 l2_coeff: float):
        self.spec, self.l2_coeff = spec, l2_coeff
        self.layers, self.grad_layers = _layer_views(spec, values), _layer_views(spec, grad)
        self.rows = {}

    def __call__(self, batch: Batch):
        # A driver accepts any stream of batches, so each one is checked: a
        # negative label would otherwise wrap around silently.
        spec, l2_coeff = self.spec, self.l2_coeff
        n = len(batch)
        if n == 0:
            raise InvalidArgumentError("empty batch")
        if l2_coeff < 0:
            raise InvalidArgumentError("l2_coeff must be nonnegative")
        x, labels = batch.inputs, batch.labels
        if x.shape[1] != spec.sizes[0]:
            raise ShapeError(
                f"batch width {x.shape[1]} does not match input width {spec.sizes[0]}"
            )
        n_classes = spec.n_classes
        if labels.min() < 0 or labels.max() >= n_classes:
            raise InvalidArgumentError(
                f"labels must lie in [0, {n_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        rows = self.rows.get(n)
        if rows is None:
            rows = self.rows[n] = np.arange(n)
        return _loss_and_grad_core(self.layers, self.grad_layers, spec.activation, x,
                                   labels, rows, l2_coeff)


def _loss_and_grad_core(layers, grad_layers, activation: str, x: np.ndarray,
                        labels: np.ndarray, rows: np.ndarray, l2_coeff: float):
    """Unchecked ``loss_and_grad`` on the (W, b) views ``layers`` of the
    weights, writing the gradient into their counterparts ``grad_layers``;
    ``rows`` is ``np.arange(len(labels))``. Returns ``(data_loss, l2_penalty)``."""
    n = x.shape[0]
    acts = [x]
    logits = _forward(layers, x, activation, acts)
    data_loss, delta, row_sums = _cross_entropy(logits, labels, rows)

    # Softmax minus the one-hot labels, over the batch size.
    delta /= row_sums[:, None]
    delta[rows, labels] -= 1.0
    delta /= n

    for idx in range(len(layers) - 1, -1, -1):
        W, _ = layers[idx]
        dW, db = grad_layers[idx]
        np.matmul(acts[idx].T, delta, out=dW)
        np.sum(delta, axis=0, out=db)
        if l2_coeff > 0.0:
            dW += l2_coeff * W
        if idx > 0:
            delta = delta @ W.T
            if activation == "relu":
                delta *= acts[idx] > 0.0
            else:
                delta *= 1.0 - acts[idx] ** 2
    return data_loss, _l2_penalty(layers, l2_coeff)


def mean_loss(w: ModelWeights, inputs: np.ndarray, labels: np.ndarray, l2_coeff: float = 0.0,
              *, workspace=None) -> LossValue:
    """Loss over a full input matrix without computing gradients; ``workspace``
    is passed on to ``forward``."""
    labels = np.asarray(labels, dtype=np.int64)
    logits = forward(w, inputs, workspace=workspace)
    data_loss = _cross_entropy(logits, labels, np.arange(len(labels)))[0]
    return LossValue(data_loss, _l2_penalty(unpack(w), l2_coeff))


def linear_combine(a: float, w_a: ModelWeights, b: float, w_b: ModelWeights) -> ModelWeights:
    """Elementwise ``a*w_a + b*w_b``. Specs must match."""
    if w_a.spec != w_b.spec:
        raise ShapeError(f"spec mismatch: {w_a.spec.sizes} vs {w_b.spec.sizes}")
    return ModelWeights(w_a.spec, a * w_a.values + b * w_b.values)
