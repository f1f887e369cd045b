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


def _forward(layers, x: np.ndarray, activation: str, acts=None) -> np.ndarray:
    """Logits of ``x``; each hidden layer's output is appended to ``acts`` if given."""
    h = x
    for W, b in layers[:-1]:
        h = h @ W
        h += b
        if activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)
    W, b = layers[-1]
    logits = h @ W
    logits += b
    return logits


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Stable mean cross-entropy, plus ``exp_shifted`` and ``row_sums`` such
    that ``softmax(logits) == exp_shifted / row_sums[:, None]``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    row_sums = exp_shifted.sum(axis=1)
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(np.log(row_sums) - picked)), exp_shifted, row_sums


def _l2_penalty(layers, l2_coeff: float) -> float:
    if l2_coeff > 0.0:
        return 0.5 * l2_coeff * sum(float(np.sum(W**2)) for W, _ in layers)
    return 0.0


def forward(w: ModelWeights, inputs: np.ndarray) -> np.ndarray:
    """Compute logits, shape (batch, classes)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.spec.sizes[0]:
        raise ShapeError(
            f"inputs of shape {x.shape} do not match input width {w.spec.sizes[0]}"
        )
    return _forward(unpack(w), x, w.spec.activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's maximum."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_grad(w: ModelWeights, batch: Batch, l2_coeff: float = 0.0):
    """Mean cross-entropy with optional L2 penalty, plus its exact gradient.

    The L2 term is ``l2_coeff/2 * sum(W**2)`` over weight matrices only;
    biases are excluded. Returns ``(LossValue, grad)`` with ``grad`` a flat
    vector matching the weight layout.
    """
    grad = np.empty(w.spec.param_count)
    return loss_and_grad_into(w.spec, w.values, batch, l2_coeff, grad), grad


def loss_and_grad_into(spec: LayerSpec, values: np.ndarray, batch: Batch,
                       l2_coeff: float, grad: np.ndarray) -> LossValue:
    """``loss_and_grad`` on a raw flat weight vector, writing the gradient
    into the preallocated flat vector ``grad`` in place. Returns the loss."""
    if len(batch) == 0:
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

    layers = _layer_views(spec, values)
    n = x.shape[0]
    acts = [x]
    logits = _forward(layers, x, spec.activation, acts)
    data_loss, delta, row_sums = _cross_entropy(logits, labels)

    # Softmax minus the one-hot labels, over the batch size.
    delta /= row_sums[:, None]
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    for idx, (dW, db) in reversed(list(enumerate(_layer_views(spec, grad)))):
        W, _ = layers[idx]
        np.matmul(acts[idx].T, delta, out=dW)
        np.sum(delta, axis=0, out=db)
        if l2_coeff > 0.0:
            dW += l2_coeff * W
        if idx > 0:
            delta = delta @ W.T
            if spec.activation == "relu":
                delta *= acts[idx] > 0.0
            else:
                delta *= 1.0 - acts[idx] ** 2
    return LossValue(data_loss, _l2_penalty(layers, l2_coeff))


def mean_loss(w: ModelWeights, inputs: np.ndarray, labels: np.ndarray, l2_coeff: float = 0.0) -> LossValue:
    """Loss over a full input matrix without computing gradients."""
    labels = np.asarray(labels, dtype=np.int64)
    data_loss = _cross_entropy(forward(w, inputs), labels)[0]
    return LossValue(data_loss, _l2_penalty(unpack(w), l2_coeff))


def linear_combine(a: float, w_a: ModelWeights, b: float, w_b: ModelWeights) -> ModelWeights:
    """Elementwise ``a*w_a + b*w_b``. Specs must match."""
    if w_a.spec != w_b.spec:
        raise ShapeError(f"spec mismatch: {w_a.spec.sizes} vs {w_b.spec.sizes}")
    return ModelWeights(w_a.spec, a * w_a.values + b * w_b.values)
