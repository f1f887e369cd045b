import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfge import data, nn, training
from pfge.connectivity import train_curve
from pfge.errors import ConfigurationError, InvalidArgumentError, ShapeError
from pfge.nn import (
    Batch,
    LayerSpec,
    LossValue,
    ModelWeights,
    _cross_entropy,
    _row_argmax,
    _row_max,
    _softmax_inplace,
    _Workspace,
    forward,
    init_model,
    linear_combine,
    loss_and_grad,
    _GradStep,
    mean_loss,
    softmax,
    unpack,
)
from pfge.training import EnsembleSet, ensemble_predict


def finite_difference_gradient(w, batch, l2_coeff, h=1e-5):
    """Central finite differences of the total loss, one coordinate at a time."""
    base = w.values
    grad = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        loss_plus = loss_and_grad(ModelWeights(w.spec, plus), batch, l2_coeff)[0].total
        loss_minus = loss_and_grad(ModelWeights(w.spec, minus), batch, l2_coeff)[0].total
        grad[i] = (loss_plus - loss_minus) / (2.0 * h)
    return grad


def max_relative_error(a, b, floor=1e-5):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


def reference_cross_entropy(logits, labels):
    """``nn._cross_entropy`` written with ``np.mean``, ``np.sum`` and the
    array methods, as the training step computed it first."""
    rows = np.arange(len(labels))
    logits -= logits.max(axis=1, keepdims=True)
    picked = logits[rows, labels]
    np.exp(logits, out=logits)
    row_sums = logits.sum(axis=1)
    return float(np.mean(np.log(row_sums) - picked)), logits, row_sums


def reference_l2_penalty(layers, l2_coeff):
    return 0.5 * l2_coeff * sum(float(np.sum(W**2)) for W, _ in layers) if l2_coeff > 0 else 0.0


def reference_check(spec, labels):
    if labels.min() < 0 or labels.max() >= spec.n_classes:
        raise InvalidArgumentError("label out of range")


def reference_step(w, batch, l2_coeff):
    """``(data_loss, l2_penalty)`` and the gradient, with the operations of
    ``nn._GradStep`` and the reductions of ``reference_cross_entropy``."""
    reference_check(w.spec, batch.labels)
    layers, n, labels = unpack(w), len(batch), batch.labels
    grad = np.empty(w.spec.param_count)
    grad_layers, offset = [], 0
    for W, b in layers:
        dW = grad[offset : offset + W.size].reshape(W.shape)
        db = grad[offset + W.size : offset + W.size + b.size]
        grad_layers.append((dW, db))
        offset += W.size + b.size
    acts, h = [batch.inputs], batch.inputs
    for idx, (W, b) in enumerate(layers):
        h = h @ W
        h += b
        if idx < len(layers) - 1:
            h = np.maximum(h, 0.0, out=h) if w.spec.activation == "relu" else np.tanh(h, out=h)
            acts.append(h)
    data_loss, delta, row_sums = reference_cross_entropy(h, labels)
    rows = np.arange(n)
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
            if w.spec.activation == "relu":
                delta *= acts[idx] > 0.0
            else:
                delta *= 1.0 - acts[idx] ** 2
    return (data_loss, reference_l2_penalty(layers, l2_coeff)), grad


def reference_mean_loss(w, inputs, labels, l2_coeff):
    reference_check(w.spec, labels)
    data_loss = reference_cross_entropy(forward(w, inputs), labels)[0]
    return data_loss, reference_l2_penalty(unpack(w), l2_coeff)


def parent_cross_entropy(logits, labels, rows):
    """``nn._cross_entropy`` before the flat label index: the true-class
    logits picked as ``logits[rows, labels]``, ``rows`` being
    ``np.arange(len(labels))``."""
    logits -= nn._row_max(logits)[:, None]
    picked = logits[rows, labels]
    np.exp(logits, out=logits)
    row_sums = np.add.reduce(logits, axis=1)
    terms = np.log(row_sums)
    terms -= picked
    return float(np.add.reduce(terms)) / len(terms), logits, row_sums


class ParentStep:
    """``nn._GradStep`` before its step buffers, kept as the reference the
    buffered step must match bit for bit: every call makes its activations,
    deltas and ReLU masks afresh, and picks and subtracts the one-hot by
    ``[rows, labels]``. The body of ``__call__`` is the former one, less
    the column split the step no longer has."""

    def __init__(self, spec, values, grad, l2_coeff):
        self.spec, self.l2_coeff = spec, l2_coeff
        self.layers, self.grad_layers = nn._layer_views(spec, values), nn._layer_views(spec, grad)
        self.rows = {}

    def __call__(self, batch):
        nn._check_batch(self.spec, batch)
        layers, activation, l2_coeff = self.layers, self.spec.activation, self.l2_coeff
        x, labels, n = batch.inputs, batch.labels, len(batch)
        rows = self.rows.get(n)
        if rows is None:
            rows = self.rows[n] = np.arange(n)
        acts = [x]
        logits = nn._forward(layers, x, activation, acts)
        data_loss, delta, row_sums = parent_cross_entropy(logits, labels, rows)

        delta /= row_sums[:, None]
        delta[rows, labels] -= 1.0
        delta /= n

        for idx in range(len(layers) - 1, -1, -1):
            W, _ = layers[idx]
            dW, db = self.grad_layers[idx]
            nn._param_grad(acts[idx], delta, W, dW, db, l2_coeff)
            if idx > 0:
                delta = delta @ W.T
                if activation == "relu":
                    delta *= acts[idx] > 0.0
                else:
                    delta *= 1.0 - acts[idx] ** 2
        return data_loss, nn._l2_penalty(layers, l2_coeff)


def parent_loss_and_grad(l2_coeff):
    """A ``loss_grad_fn`` for the training loops that runs ``ParentStep``."""
    def loss_grad(w, batch):
        grad = np.empty(w.spec.param_count)
        return LossValue(*ParentStep(w.spec, w.values, grad, l2_coeff)(batch)), grad
    return loss_grad


class TestLayerSpec:
    def test_param_count(self):
        assert LayerSpec((2, 3, 2)).param_count == 2 * 3 + 3 + 3 * 2 + 2

    def test_rejects_single_layer(self):
        with pytest.raises(ConfigurationError):
            LayerSpec((4,))

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            LayerSpec((4, 0, 2))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError):
            LayerSpec((2, 2), activation="sigmoid")


class TestInitModel:
    def test_deterministic(self):
        spec = LayerSpec((3, 5, 2))
        a = init_model(spec, seed=11)
        b = init_model(spec, seed=11)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_weights(self):
        spec = LayerSpec((3, 5, 2))
        assert not np.array_equal(init_model(spec, 1).values, init_model(spec, 2).values)

    def test_param_vector_length(self):
        assert init_model(LayerSpec((2, 3, 2)), 0).values.size == 17

    def test_biases_zero(self):
        w = init_model(LayerSpec((4, 4)), seed=7)
        (W, b), = unpack(w)
        assert np.all(b == 0.0)
        assert np.all(np.abs(W) <= 0.5)  # scale 1/sqrt(4)

    def test_weights_frozen(self):
        w = init_model(LayerSpec((2, 2)), 0)
        with pytest.raises(ValueError):
            w.values[0] = 1.0


class TestForward:
    def test_zero_weights_zero_logits(self):
        spec = LayerSpec((3, 4, 2))
        w = ModelWeights(spec, np.zeros(spec.param_count))
        out = forward(w, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(out == 0.0)

    def test_identity_layer(self):
        spec = LayerSpec((2, 2))
        w = ModelWeights(spec, np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
        out = forward(w, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0]]))

    def test_matches_hand_rolled_matmul(self):
        # Straight-line re-implementation of the same architecture.
        spec = LayerSpec((3, 4, 5, 2), activation="tanh")
        w = init_model(spec, seed=3)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(6, 3))
        (W1, b1), (W2, b2), (W3, b3) = unpack(w)
        h1 = np.tanh(x @ W1 + b1)
        h2 = np.tanh(h1 @ W2 + b2)
        expected = h2 @ W3 + b3
        got = forward(w, x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected) + 1.0)

    def test_deterministic_bitwise(self):
        spec = LayerSpec((4, 8, 3))
        w = init_model(spec, 5)
        x = np.random.default_rng(1).normal(size=(7, 4))
        assert np.array_equal(forward(w, x), forward(w, x))

    def test_dimension_mismatch(self):
        w = init_model(LayerSpec((3, 2)), 0)
        with pytest.raises(ShapeError):
            forward(w, np.zeros((4, 5)))


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.array_equal(softmax(np.array([[0.0, 0.0]])), np.array([[0.5, 0.5]]))

    def test_constant_rows_uniform(self):
        for c in (-3.0, 0.0, 7.5, 1e8):
            row = softmax(np.array([[c, c, c]]))
            assert np.allclose(row, 1.0 / 3.0, atol=1e-15)

    def test_hand_evaluated_ratio(self):
        # exp-normalize of [ln 1, ln 3] is [1, 3] / 4.
        probs = softmax(np.array([[np.log(1.0), np.log(3.0)]]))
        assert np.allclose(probs, [[0.25, 0.75]], atol=1e-15)

    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(scale=30.0, size=(50, 7))
        probs = softmax(logits)
        assert np.all(probs > 0.0)
        assert np.all(probs <= 1.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(20, 4))
        shifts = rng.normal(scale=100.0, size=(20, 1))
        assert np.allclose(softmax(logits), softmax(logits + shifts), atol=1e-12)


def former_softmax(logits):
    """``softmax`` as it was written before the row maxima went column by
    column: one ``max`` along the last axis of the whole array."""
    z = np.array(logits, dtype=np.float64)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


@st.composite
def class_scores(draw, nan_rows=False, rows=None, cols=None):
    """A (rows, classes) float64 array of 1-3,000 rows and 1-12 columns, tall
    and short alike, unless ``rows`` or ``cols`` is given. Its values come
    either from a small pool, which makes ties, zeros of both signs and
    infinities common, or from a normal distribution; with ``nan_rows``,
    some rows hold a NaN."""
    cols = cols or draw(st.integers(1, 12))
    rows = rows or draw(st.sampled_from([draw(st.integers(1, 3 * cols)),
                                         draw(st.integers(1, 3000))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -7.0, np.inf, -np.inf])
        z = rng.choice(pool, size=(rows, cols))
    else:
        z = rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=(rows, cols))
    if nan_rows:
        hit = rng.random(rows) < draw(st.sampled_from([0.0, 0.05, 1.0]))
        z[hit, rng.integers(0, cols, size=int(hit.sum()))] = np.nan
    return z


class TestRowReductions:
    """``_row_max`` and ``_row_argmax`` against the numpy reductions they
    replace, on both of their paths: column by column on tall arrays and
    through numpy on short, wide ones."""

    @given(z=class_scores(nan_rows=True))
    def test_row_max_is_numpys_maximum(self, z):
        got, want = _row_max(z), np.maximum.reduce(z, axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        # Bit for bit, NaN included. Adding +0.0 turns only -0.0 into +0.0:
        # numpy's reduction picks the sign of a zero maximum tied with a zero
        # of the other sign by the order of its vector lanes, which depends
        # on the CPU, so that sign is the one bit not compared.
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @given(z=class_scores())
    def test_row_argmax_is_numpys_argmax(self, z):
        got, want = _row_argmax(z, _row_max(z)), np.argmax(z, axis=1)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(data=st.data())
    def test_row_sum_is_numpys_sum(self, data):
        # 1-12 columns, 1-7 of them summed column by column, and row counts on
        # both sides of the ``_by_columns`` threshold.
        cols = data.draw(st.integers(1, 12))
        edge = nn._ROWS_PER_COLUMN * cols
        rows = data.draw(st.integers(max(1, edge - 2), edge + 2) | st.integers(1, 3000))
        z = data.draw(class_scores(rows=rows, cols=cols))
        with np.errstate(invalid="ignore"):
            got, want = nn._row_sum(z), z.sum(axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape
        # Bit for bit, the sign of a zero sum included; an inf - inf NaN
        # in the same rows, whatever its payload.
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_column_path_keeps_the_first_of_tied_maxima(self):
        z = np.tile([[1.0, 3.0, 3.0], [-0.0, 0.0, -1.0], [2.0, 2.0, 2.0]], (20, 1))
        assert np.array_equal(_row_argmax(z, _row_max(z)), np.tile([1, 0, 0], 20))
        assert np.array_equal(_row_max(z), np.tile([3.0, 0.0, 2.0], 20))

    @given(z=class_scores())
    def test_softmax_matches_the_former_code(self, z):
        with np.errstate(all="ignore"):
            got, want = _softmax_inplace(z.copy()), former_softmax(z)
        assert got.tobytes() == want.tobytes()

    @given(z=class_scores(), seed=st.integers(0, 2**32 - 1))
    def test_cross_entropy_matches_the_former_code(self, z, seed):
        labels = np.random.default_rng(seed).integers(0, z.shape[1], size=len(z))
        with np.errstate(all="ignore"):
            picks = np.arange(len(z)) * z.shape[1] + labels
            loss, exp_shifted, row_sums = _cross_entropy(z.copy(), picks)
            want = reference_cross_entropy(z.copy(), labels)
        assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes()
        assert exp_shifted.tobytes() == want[1].tobytes()
        assert row_sums.tobytes() == want[2].tobytes()

    @given(data=st.data())
    def test_public_softmax_on_1d_and_nd_input(self, data):
        # One vector, and 3-D arrays in both memory orders, short and tall:
        # each is read as rows of its last axis, as the former code read it.
        classes = data.draw(st.integers(1, 6))
        lead = data.draw(st.sampled_from([(), (2, 3), (40, 25), (1, 700)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        logits = rng.normal(scale=10.0, size=lead + (classes,))
        if data.draw(st.booleans()):
            logits = np.asfortranarray(logits)
        before = logits.copy()
        got = softmax(logits)
        assert got.shape == logits.shape
        assert got.tobytes() == former_softmax(logits).tobytes()
        assert np.array_equal(logits, before)


class TestLossAndGrad:
    def test_gradient_matches_finite_differences(self):
        # Both activations, several widths; the acceptance suite repeats this
        # check over its own set of nets.
        cases = [
            (LayerSpec((2, 5, 3)), 0),
            (LayerSpec((2, 5, 3), activation="tanh"), 1),
            (LayerSpec((4, 3, 3), activation="tanh"), 2),
            (LayerSpec((3, 6, 2)), 3),
        ]
        rng = np.random.default_rng(2024)
        for spec, seed in cases:
            w = init_model(spec, seed)
            x = rng.normal(size=(8, spec.sizes[0]))
            y = rng.integers(0, spec.n_classes, size=8)
            batch = Batch(x, y)
            _, grad = loss_and_grad(w, batch, l2_coeff=0.01)
            fd = finite_difference_gradient(w, batch, l2_coeff=0.01)
            assert max_relative_error(grad, fd) < 1e-4

    def test_saturated_separable_point(self):
        spec = LayerSpec((1, 2))
        w = ModelWeights(spec, np.array([100.0, -100.0, 0.0, 0.0]))
        batch = Batch(np.array([[1.0]]), np.array([0]))
        _, grad = loss_and_grad(w, batch, l2_coeff=0.0)
        assert np.linalg.norm(grad) < 1e-6

    def test_l2_penalty_linear_in_coeff(self):
        spec = LayerSpec((2, 4, 3))
        w = init_model(spec, 8)
        batch = Batch(np.array([[0.5, -1.0], [2.0, 0.1]]), np.array([0, 2]))
        loss1, _ = loss_and_grad(w, batch, l2_coeff=0.01)
        loss2, _ = loss_and_grad(w, batch, l2_coeff=0.02)
        assert loss1.data_loss == loss2.data_loss
        assert np.isclose(loss2.total - loss2.data_loss, 2.0 * (loss1.total - loss1.data_loss))

    def test_l2_excludes_biases(self):
        spec = LayerSpec((1, 1))
        # One weight 2.0, one bias 3.0; penalty must see only the weight.
        w = ModelWeights(spec, np.array([2.0, 3.0]))
        batch = Batch(np.array([[1.0]]), np.array([0]))
        loss, _ = loss_and_grad(w, batch, l2_coeff=1.0)
        assert np.isclose(loss.l2_penalty, 0.5 * 2.0**2)

    def test_total_is_sum(self):
        spec = LayerSpec((2, 3, 2))
        w = init_model(spec, 0)
        batch = Batch(np.array([[1.0, 2.0]]), np.array([1]))
        loss, _ = loss_and_grad(w, batch, l2_coeff=0.5)
        assert loss.total == loss.data_loss + loss.l2_penalty
        assert loss.data_loss >= 0.0
        assert loss.l2_penalty >= 0.0

    def test_empty_batch_rejected(self):
        w = init_model(LayerSpec((2, 2)), 0)
        batch = Batch(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(InvalidArgumentError):
            loss_and_grad(w, batch, 0.0)

    def test_mean_loss_agrees_with_grad_path(self):
        spec = LayerSpec((2, 6, 3), activation="tanh")
        w = init_model(spec, 4)
        rng = np.random.default_rng(77)
        x = rng.normal(size=(9, 2))
        y = rng.integers(0, 3, size=9)
        via_grad, _ = loss_and_grad(w, Batch(x, y), l2_coeff=0.3)
        direct = mean_loss(w, x, y, l2_coeff=0.3)
        assert np.isclose(via_grad.total, direct.total, rtol=0, atol=1e-14)



class TestReductionsMatchReference:
    """The training step and ``mean_loss`` call each reduction as one ufunc;
    they give the bits of ``np.sum``, ``np.mean`` and the array methods."""

    @given(data=st.data(), n_hidden=st.integers(1, 3),
           activation=st.sampled_from(["relu", "tanh"]),
           l2_coeff=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
           batch_sizes=st.lists(st.integers(1, 70), min_size=1, max_size=3))
    def test_step_and_mean_loss_bit_for_bit(self, data, n_hidden, activation, l2_coeff,
                                            batch_sizes):
        widths = data.draw(st.lists(st.integers(1, 8), min_size=n_hidden + 2,
                                    max_size=n_hidden + 2))
        spec = LayerSpec(tuple(widths), activation)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        w = ModelWeights(spec, rng.normal(scale=1.5, size=spec.param_count))
        grad = np.empty(spec.param_count)
        # One step serves every batch, as in a training loop, so its
        # per-size row index is reused across calls.
        step = _GradStep(spec, w.values, grad, l2_coeff)
        for n in batch_sizes + batch_sizes[:1]:
            x = rng.normal(scale=3.0, size=(n, spec.sizes[0]))
            y = rng.integers(0, spec.n_classes, size=n)
            expected, expected_grad = reference_step(w, Batch(x, y), l2_coeff)
            assert step(Batch(x, y)) == expected
            assert np.array_equal(grad, expected_grad)
            value = mean_loss(w, x, y, l2_coeff)
            assert (value.data_loss, value.l2_penalty) == reference_mean_loss(w, x, y, l2_coeff)


class TestMeanLossChecks:
    """``mean_loss`` checks its labels with the training step's batch check."""

    spec = LayerSpec((2, 3, 2))

    def inputs(self):
        return np.random.default_rng(5).normal(size=(5, 2))

    @pytest.mark.parametrize("labels, bad_range", [
        ([0, 1, -1, 0, 1], "[-1, 1]"),
        ([0, 1, 2, 0, 1], "[0, 2]"),
        ([0, 1, -2**63, 0, 1], f"[{-2**63}, 1]"),
        ([0, 1, 2**63 - 1, 0, 1], f"[0, {2**63 - 1}]"),
        ([-1, 1, 2, 0, 1], "[-1, 2]"),
    ], ids=["negative", "n_classes", "int64-min", "int64-max", "both-ends"])
    def test_label_out_of_range(self, labels, bad_range):
        w = init_model(self.spec, 0)
        expected = f"labels must lie in [0, 2), got range {bad_range}"
        with pytest.raises(InvalidArgumentError) as step_error:
            loss_and_grad(w, Batch(self.inputs(), labels))
        assert str(step_error.value) == expected
        with pytest.raises(InvalidArgumentError) as error:
            mean_loss(w, self.inputs(), labels)
        assert str(error.value) == expected

    @pytest.mark.parametrize("labels", [[0, 1, 1, 0, 1], [1, 1, 1, 1, 1], [0, 0, 0, 0, 0]])
    def test_labels_up_to_n_classes_minus_one_pass(self, labels):
        w = init_model(self.spec, 0)
        value, _ = loss_and_grad(w, Batch(self.inputs(), labels))
        assert value == mean_loss(w, self.inputs(), labels)
        assert np.isfinite(value.total)

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeError, match="label count"):
            mean_loss(init_model(self.spec, 0), self.inputs(), [0, 1, 0])

    def test_empty_inputs_rejected(self):
        with pytest.raises(InvalidArgumentError, match="empty"):
            mean_loss(init_model(self.spec, 0), np.zeros((0, 2)), [])

class TestBatchLabels:
    @pytest.mark.parametrize("labels", [
        [0.0, 1.9], [0.0, -0.5], [0.0, np.nan], [0.0, np.inf], [0.0, 1e19], ["0", "x"],
    ])
    def test_rejects_non_integral_labels(self, labels):
        with pytest.raises(InvalidArgumentError, match="finite integers"):
            Batch(np.zeros((2, 2)), labels)

    def test_integral_labels_become_int64(self):
        for labels in ([0.0, 1.0], np.array([0.0, 1.0], dtype=np.float32), [0, 1], ["0", "1"]):
            batch = Batch(np.zeros((2, 2)), labels)
            assert batch.labels.dtype == np.int64
            assert batch.labels.tolist() == [0, 1]

    def test_int64_labels_are_not_copied(self):
        labels = np.array([1, 0])
        assert Batch(np.zeros((2, 2)), labels).labels is labels


class TestLinearCombine:
    def test_identity(self):
        w = init_model(LayerSpec((2, 3)), 1)
        other = init_model(LayerSpec((2, 3)), 2)
        out = linear_combine(1.0, w, 0.0, other)
        assert np.array_equal(out.values, w.values)

    def test_convex_fixed_point(self):
        w = init_model(LayerSpec((2, 3)), 1)
        out = linear_combine(0.5, w, 0.5, w)
        assert np.array_equal(out.values, w.values)

    def test_hand_arithmetic(self):
        spec = LayerSpec((1, 1))
        a = ModelWeights(spec, np.array([1.0, 2.0]))
        b = ModelWeights(spec, np.array([10.0, 20.0]))
        out = linear_combine(2.0, a, 3.0, b)
        assert np.array_equal(out.values, np.array([32.0, 64.0]))

    def test_commutes_with_swap(self):
        a = init_model(LayerSpec((3, 2)), 5)
        b = init_model(LayerSpec((3, 2)), 6)
        left = linear_combine(0.3, a, 0.7, b)
        right = linear_combine(0.7, b, 0.3, a)
        assert np.array_equal(left.values, right.values)

    def test_repeated_vs_fused(self):
        spec = LayerSpec((2, 4, 2))
        rng = np.random.default_rng(3)
        ws = [ModelWeights(spec, rng.normal(size=spec.param_count)) for _ in range(3)]
        step = linear_combine(1.0, ws[0], 0.25, ws[1])
        step = linear_combine(1.0, step, -0.5, ws[2])
        fused = ws[0].values + 0.25 * ws[1].values - 0.5 * ws[2].values
        scale = np.max(np.abs(fused)) + 1.0
        assert np.max(np.abs(step.values - fused)) <= 1e-12 * scale

    def test_spec_mismatch(self):
        with pytest.raises(ShapeError):
            linear_combine(1.0, init_model(LayerSpec((2, 3)), 0), 1.0, init_model(LayerSpec((3, 2)), 0))


class TestWorkspace:
    """Forwards written into one reused workspace give the fresh-allocation
    bits, and nothing a caller keeps from one weight set changes when the
    workspace serves the next."""

    @given(data=st.data(), n_hidden=st.integers(1, 3),
           activation=st.sampled_from(["relu", "tanh"]), capacity=st.integers(1, 12))
    def test_reuse_matches_fresh_allocation(self, data, n_hidden, activation, capacity):
        widths = data.draw(st.lists(st.integers(1, 6), min_size=n_hidden + 2,
                                    max_size=n_hidden + 2))
        spec = LayerSpec(tuple(widths), activation)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.normal(scale=2.0, size=(capacity, spec.sizes[0]))
        y = rng.integers(0, spec.n_classes, size=capacity)
        members = [init_model(spec, data.draw(st.integers(0, 2**16))) for _ in range(3)]
        workspace = _Workspace(spec, capacity)
        kept = []
        for w in members:
            rows = data.draw(st.integers(1, capacity))
            x_r, y_r = x[:rows], y[:rows]
            fresh = forward(w, x_r)
            got = forward(w, x_r, workspace=workspace)
            assert got.flags.c_contiguous
            assert got.tobytes() == fresh.tobytes()
            probs = _softmax_inplace(forward(w, x_r, workspace=workspace))
            assert probs.tobytes() == softmax(fresh).tobytes()
            loss = mean_loss(w, x_r, y_r, 1e-3, workspace=workspace)
            assert loss == mean_loss(w, x_r, y_r, 1e-3)
            kept.append((w, rows, loss, np.argmax(probs, axis=1)))
        for w, rows, loss, preds in kept:
            assert loss == mean_loss(w, x[:rows], y[:rows], 1e-3)
            assert np.array_equal(preds, np.argmax(forward(w, x[:rows]), axis=1))

    @given(data=st.data(), capacity=st.integers(1, 12))
    def test_ensemble_average_matches_fresh_softmaxes(self, data, capacity):
        spec = LayerSpec((3, 5, 4, 3), data.draw(st.sampled_from(["relu", "tanh"])))
        x = np.random.default_rng(capacity).normal(size=(capacity, 3))
        members = tuple(init_model(spec, seed) for seed in range(data.draw(st.integers(1, 4))))
        total = None
        for w in members:
            probs = softmax(forward(w, x))
            total = probs if total is None else total + probs
        got, labels = ensemble_predict(EnsembleSet(members, tuple(range(1, len(members) + 1))), x)
        assert got.tobytes() == (total / len(members)).tobytes()
        assert np.array_equal(labels, np.argmax(got, axis=1))

    def test_rejects_a_workspace_that_does_not_fit(self):
        w = init_model(LayerSpec((2, 4, 2)), 0)
        with pytest.raises(InvalidArgumentError, match="workspace"):
            forward(w, np.zeros((5, 2)), workspace=_Workspace(w.spec, 4))
        with pytest.raises(InvalidArgumentError, match="workspace"):
            forward(w, np.zeros((3, 2)), workspace=_Workspace(LayerSpec((2, 5, 2)), 4))


# A batch-size sequence that grows, shrinks to one row, grows back and ends
# on a short batch: buffers made again, prefixes of one and of most rows.
GROWING_AND_SHORT = [7, 32, 1, 32, 5]


class TestStepBuffers:
    """``_GradStep`` keeps its layer outputs, deltas, activation derivatives
    and flat label index from one call to the next; each call gives the
    bits of the former step, which made them afresh."""

    @given(data=st.data(), n_hidden=st.integers(1, 3),
           activation=st.sampled_from(["relu", "tanh"]), l2_coeff=st.sampled_from([0.0, 1e-3]),
           batch_sizes=st.one_of(st.just(GROWING_AND_SHORT),
                                 st.lists(st.integers(1, 40), min_size=2, max_size=6)))
    def test_each_call_matches_the_parent_step_bit_for_bit(self, data, n_hidden, activation,
                                                          l2_coeff, batch_sizes):
        # Three hidden layers catch a scheme that alternates two buffers.
        widths = data.draw(st.lists(st.integers(1, 9), min_size=n_hidden + 2,
                                    max_size=n_hidden + 2))
        spec = LayerSpec(tuple(widths), activation)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        values = np.empty(spec.param_count)
        grad, parent_grad = np.empty(spec.param_count), np.empty(spec.param_count)
        step = _GradStep(spec, values, grad, l2_coeff)
        parent = ParentStep(spec, values, parent_grad, l2_coeff)
        for n in batch_sizes:
            # The weights move between calls, as in a training loop.
            values[...] = rng.normal(scale=1.5, size=spec.param_count)
            x = rng.normal(scale=3.0, size=(n, spec.sizes[0]))
            y = rng.integers(0, spec.n_classes, size=n)
            batch = Batch(x, y)
            assert step(batch) == parent(batch)
            assert grad.tobytes() == parent_grad.tobytes()
            w = ModelWeights(spec, values)
            value = mean_loss(w, x, y, l2_coeff)
            want = parent_cross_entropy(forward(w, x).copy(), y, np.arange(n))[0]
            assert (value.data_loss, value.l2_penalty) == (want, nn._l2_penalty(unpack(w), l2_coeff))

    @pytest.mark.parametrize("average", [False, True])
    @pytest.mark.parametrize("activation, l2_coeff", [("relu", 0.0), ("tanh", 1e-3)])
    def test_loops_match_the_parent_step_on_a_stream_with_a_short_batch(
            self, average, activation, l2_coeff):
        spec = LayerSpec((3, 9, 7, 4), activation)
        rng = np.random.default_rng(11)
        split = data.Dataset(rng.normal(size=(45, 3)), rng.integers(0, 4, 45), 4)
        stream = data.batches(split, 16, seed=2)  # batches of 16, 16 and 13 rows
        w0, w1 = init_model(spec, 1), init_model(spec, 2)
        opt = training.MomentumState.initial(w0)
        runs = [training._drive(w0, opt, stream, 12, lambda i: 0.05, 3, 6, average,
                                loss_grad_fn=fn, l2_coeff=l2_coeff)
                for fn in (None, parent_loss_and_grad(l2_coeff))]
        (members, trace), (parent_members, parent_trace) = runs
        assert [m.values.tobytes() for m in members.members] == \
            [m.values.tobytes() for m in parent_members.members]
        assert trace.losses.tobytes() == parent_trace.losses.tobytes()
        curves = [train_curve(w0, w1, 3, 12, stream, 0.05, seed=4, loss_grad_fn=fn,
                              l2_coeff=l2_coeff)
                  for fn in (None, parent_loss_and_grad(l2_coeff))]
        assert [c.values.tobytes() for c in curves[0].controls] == \
            [c.values.tobytes() for c in curves[1].controls]

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("sizes", [(2, 64, 64, 2), (2, 64, 64, 64, 2)])
    def test_a_step_makes_no_layer_arrays(self, sizes, activation):
        spec = LayerSpec(sizes, activation)
        rng = np.random.default_rng(0)
        values, grad = rng.normal(scale=0.3, size=spec.param_count), np.empty(spec.param_count)
        step = _GradStep(spec, values, grad, 0.0)
        batches = [Batch(rng.normal(size=(32, 2)), rng.integers(0, 2, 32)) for _ in range(27)]
        step(batches[0])
        step(batches[1])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for batch in batches[2:]:
                step(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One (32, 64) float64 array is 16 KiB; the former step made six or
        # more per call and peaked at 68.7 KiB (84.8 KiB with three hidden
        # layers) above the start.
        assert peak - start < 24 * 1024
