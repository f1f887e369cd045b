import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfge.errors import ConfigurationError, InvalidArgumentError, ShapeError
from pfge.nn import (
    Batch,
    LayerSpec,
    ModelWeights,
    _softmax_inplace,
    _Workspace,
    forward,
    init_model,
    linear_combine,
    loss_and_grad,
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
