import itertools

import numpy as np
import pytest

from pfge.connectivity import (
    CurveSpec,
    bernstein,
    curve_point,
    initial_curve,
    mc_value,
    profile_curve,
    train_curve,
)
from pfge.data import gen_two_spirals
from pfge.errors import ConfigurationError, InvalidArgumentError, NumericError, ShapeError
from pfge.nn import Batch, LayerSpec, LossValue, ModelWeights, init_model, loss_and_grad, mean_loss
from pfge.rng import STREAM_CURVE, stream_rng

TINY_SPEC = LayerSpec((1, 1))


def tiny(value: float) -> ModelWeights:
    return ModelWeights(TINY_SPEC, np.full(2, value))


def spiral_batch_stream():
    ds = gen_two_spirals(10, noise_sd=0.05, seed=0)
    return itertools.repeat(Batch(ds.inputs, ds.labels))


class TestBernstein:
    def test_endpoint_degeneracy(self):
        for k in (1, 2, 5):
            at0 = bernstein(k, 0.0)
            at1 = bernstein(k, 1.0)
            expected0 = np.zeros(k + 1)
            expected0[0] = 1.0
            assert np.array_equal(at0, expected0)
            assert np.array_equal(at1, expected0[::-1])

    def test_symmetric_quadratic(self):
        assert np.allclose(bernstein(2, 0.5), [0.25, 0.5, 0.25], atol=1e-15)

    def test_cubic_quarter_point(self):
        # C(3,j) * 0.75^(3-j) * 0.25^j evaluated by hand; all dyadic, exact.
        expected = np.array([0.421875, 0.421875, 0.140625, 0.015625])
        assert np.array_equal(bernstein(3, 0.25), expected)

    def test_partition_of_unity_and_nonnegativity(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            k = int(rng.integers(1, 13))
            t = float(rng.uniform())
            coeffs = bernstein(k, t)
            assert np.all(coeffs >= 0.0)
            assert abs(coeffs.sum() - 1.0) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            bernstein(2, -0.1)
        with pytest.raises(InvalidArgumentError):
            bernstein(2, 1.1)

    def test_overflowing_coefficients_are_rejected(self):
        # C(1029, 514) is the largest central coefficient below float64's limit.
        assert bernstein(1029, 0.5).sum() == pytest.approx(1.0)
        with pytest.raises(InvalidArgumentError, match="k=1030"):
            bernstein(1030, 0.5)


class TestCurvePoint:
    def test_constant_controls(self):
        v = init_model(LayerSpec((2, 3)), 4)
        curve = CurveSpec((v, v, v))
        for t in (0.0, 0.3, 0.5, 0.99, 1.0):
            point = curve_point(curve, t)
            assert np.allclose(point.values, v.values, rtol=1e-15, atol=0)

    def test_linear_midpoint(self):
        a, b = tiny(0.0), tiny(4.0)
        mid = curve_point(CurveSpec((a, b)), 0.5)
        assert np.array_equal(mid.values, np.full(2, 2.0))

    def test_quadratic_hand_value(self):
        curve = CurveSpec((tiny(0.0), tiny(6.0), tiny(0.0)))
        # 0.25 * 0 + 0.5 * 6 + 0.25 * 0 = 3.
        assert np.array_equal(curve_point(curve, 0.5).values, np.full(2, 3.0))

    def test_endpoints_bit_identical(self):
        a = init_model(LayerSpec((2, 4, 2)), 0)
        b = init_model(LayerSpec((2, 4, 2)), 1)
        curve = initial_curve(a, b, k=3)
        assert curve_point(curve, 0.0) is a
        assert curve_point(curve, 1.0) is b

    @pytest.mark.parametrize("t", [-0.1, 1.5, float("nan")])
    def test_t_outside_the_unit_interval_rejected(self, t):
        curve = initial_curve(tiny(0.0), tiny(1.0), k=3)
        with pytest.raises(InvalidArgumentError, match=r"t must lie in \[0, 1\]"):
            curve_point(curve, t)


class TestInitialCurve:
    def test_straight_segment(self):
        a, b = tiny(0.0), tiny(3.0)
        curve = initial_curve(a, b, k=3)
        assert np.array_equal(curve.controls[1].values, np.full(2, 1.0))
        assert np.array_equal(curve.controls[2].values, np.full(2, 2.0))


class TestTrainCurve:
    def test_zero_gradient_keeps_initialization(self):
        a = init_model(LayerSpec((2, 4, 2)), 1)
        b = init_model(LayerSpec((2, 4, 2)), 2)

        def zero(w, batch):
            return LossValue(0.0, 0.0), np.zeros_like(w.values)

        curve = train_curve(a, b, k=2, iters=5, stream=spiral_batch_stream(),
                            lr=0.1, seed=0, loss_grad_fn=zero)
        start = initial_curve(a, b, k=2)
        assert np.array_equal(curve.controls[1].values, start.controls[1].values)

    def test_one_step_matches_hand_unrolled(self):
        a = init_model(LayerSpec((2, 3, 2)), 5)
        b = init_model(LayerSpec((2, 3, 2)), 6)
        seed = 17
        ds = gen_two_spirals(8, noise_sd=0.05, seed=3)
        stream = itertools.repeat(Batch(ds.inputs, ds.labels))
        lr = 0.05
        curve = train_curve(a, b, k=2, iters=1, stream=stream, lr=lr, seed=seed)
        # Replay the single iteration by hand.
        t = float(stream_rng(seed, STREAM_CURVE).uniform())
        coeffs = bernstein(2, t)
        start = initial_curve(a, b, k=2)
        point = curve_point(start, t)
        _, grad = loss_and_grad(point, Batch(ds.inputs, ds.labels), 0.0)
        expected = start.controls[1].values - lr * coeffs[1] * grad
        assert np.max(np.abs(curve.controls[1].values - expected)) < 1e-12

    def test_a_stream_that_runs_out_names_the_iteration(self):
        w0 = init_model(LayerSpec((2, 4, 2)), 1)
        b = Batch(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(InvalidArgumentError, match="ran out at iteration 2"):
            train_curve(w0, w0, 2, 5, [b], 0.1, 1)

    def test_endpoints_untouched_after_training(self):
        a = init_model(LayerSpec((2, 4, 2)), 7)
        b = init_model(LayerSpec((2, 4, 2)), 8)
        curve = train_curve(a, b, k=3, iters=25, stream=spiral_batch_stream(),
                            lr=0.05, seed=4)
        assert curve.controls[0] is a
        assert curve.controls[-1] is b

    def test_training_reduces_curve_loss(self):
        ds = gen_two_spirals(20, noise_sd=0.1, seed=5)
        batch = Batch(ds.inputs, ds.labels)
        a = init_model(LayerSpec((2, 8, 2)), 9)
        b = init_model(LayerSpec((2, 8, 2)), 10)
        start = initial_curve(a, b, k=2)
        trained = train_curve(a, b, k=2, iters=300, stream=itertools.repeat(batch),
                              lr=0.2, seed=6)

        def mid_loss(curve):
            return mean_loss(curve_point(curve, 0.5), ds.inputs, ds.labels).total

        assert mid_loss(trained) < mid_loss(start)

    def test_control_gradient_matches_finite_differences(self):
        ds = gen_two_spirals(10, noise_sd=0.05, seed=11)
        a = init_model(LayerSpec((2, 4, 2)), 12)
        b = init_model(LayerSpec((2, 4, 2)), 13)
        curve = initial_curve(a, b, k=2)
        t = 0.37
        coeffs = bernstein(2, t)
        point = curve_point(curve, t)
        _, grad_at_point = loss_and_grad(point, Batch(ds.inputs, ds.labels), 0.0)
        analytic = coeffs[1] * grad_at_point

        control = curve.controls[1].values
        h = 1e-5
        fd = np.empty_like(control)
        for i in range(control.size):
            for sign, out in ((+1, "plus"), (-1, "minus")):
                shifted = control.copy()
                shifted[i] += sign * h
                perturbed = CurveSpec((a, ModelWeights(a.spec, shifted), b))
                value = mean_loss(
                    curve_point(perturbed, t), ds.inputs, ds.labels
                ).total
                if sign > 0:
                    plus = value
                else:
                    minus = value
            fd[i] = (plus - minus) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-5)
        assert np.max(rel) < 1e-4

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("l2_coeff", [0.0, 1e-3])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_allocating_reference_bit_for_bit(self, k, l2_coeff, activation):
        spec = LayerSpec((2, 6, 5, 2), activation)
        a, b = init_model(spec, 21), init_model(spec, 22)
        ds = gen_two_spirals(15, noise_sd=0.1, seed=23)
        stream = [Batch(ds.inputs[i:i + 8], ds.labels[i:i + 8]) for i in range(0, 30, 8)]

        # The loop before its buffers were hoisted: a fresh point, gradient
        # and update temporary on every iteration.
        interior = [c.values.copy() for c in initial_curve(a, b, k).controls[1:-1]]
        rng = stream_rng(9, STREAM_CURVE)
        for i in range(12):
            coeffs = bernstein(k, float(rng.uniform()))
            point = a.values.copy()
            for coeff, control in zip(coeffs[1:], [*interior, b.values]):
                point += coeff * (control - a.values)
            _, grad = loss_and_grad(ModelWeights(spec, point), stream[i % 4], l2_coeff)
            for j, control in enumerate(interior):
                control -= 0.3 * coeffs[j + 1] * grad

        curve = train_curve(a, b, k, 12, itertools.cycle(stream), 0.3, 9, l2_coeff=l2_coeff)
        assert [c.values.tobytes() for c in curve.controls[1:-1]] == [
            c.tobytes() for c in interior]

    @pytest.mark.parametrize("supplied", [False, True])
    def test_non_finite_point_is_numeric_error(self, supplied):
        spec = LayerSpec((2, 4, 2))
        a, b = ModelWeights(spec, np.full(spec.param_count, 1e308)), ModelWeights(
            spec, np.full(spec.param_count, -1e308))
        fn = (lambda w, batch: loss_and_grad(w, batch)) if supplied else None
        with pytest.raises(NumericError, match="curve point at iteration 1"):
            train_curve(a, b, k=2, iters=3, stream=spiral_batch_stream(), lr=0.1, seed=0,
                        loss_grad_fn=fn)

    @pytest.mark.parametrize("loss, grad, match", [
        (float("nan"), 0.0, "curve loss at iteration 1"),
        (0.0, 1e308, "control point at iteration 1"),
    ])
    def test_non_finite_loss_or_control_is_numeric_error(self, loss, grad, match):
        a = init_model(LayerSpec((2, 4, 2)), 1)
        b = init_model(LayerSpec((2, 4, 2)), 2)

        def scripted(w, batch):
            return LossValue(loss, 0.0), np.full_like(w.values, grad)

        with pytest.raises(NumericError, match=match):
            train_curve(a, b, k=3, iters=3, stream=spiral_batch_stream(), lr=1e10, seed=0,
                        loss_grad_fn=scripted)

    @pytest.mark.parametrize("l2_coeff", [0.0, 1e-3])
    def test_supplied_loss_grad_matches_default_bytes(self, l2_coeff):
        spec = LayerSpec((2, 6, 5, 2))
        a, b = init_model(spec, 31), init_model(spec, 32)
        ds = gen_two_spirals(15, noise_sd=0.1, seed=33)
        stream = [Batch(ds.inputs[i:i + 8], ds.labels[i:i + 8]) for i in range(0, 30, 8)]
        default = train_curve(a, b, 3, 12, itertools.cycle(stream), 0.3, 9, l2_coeff=l2_coeff)
        supplied = train_curve(a, b, 3, 12, itertools.cycle(stream), 0.3, 9,
                               loss_grad_fn=lambda w, batch: loss_and_grad(w, batch, l2_coeff))
        assert [c.values.tobytes() for c in supplied.controls] == [
            c.values.tobytes() for c in default.controls]

    @pytest.mark.parametrize("extra", [None, 1])
    def test_supplied_gradient_of_wrong_shape_is_shape_error(self, extra):
        spec = LayerSpec((2, 4, 2))
        a, b = init_model(spec, 1), init_model(spec, 2)
        n = 1 if extra is None else spec.param_count + extra

        def wrong_shape(w, batch):
            return LossValue(0.0, 0.0), np.zeros(n)

        with pytest.raises(ShapeError,
                           match=rf"gradient shape \({n},\) != weights \({spec.param_count},\)"):
            train_curve(a, b, k=2, iters=2, stream=spiral_batch_stream(), lr=0.1, seed=0,
                        loss_grad_fn=wrong_shape)

    def test_rejects_small_k(self):
        a, b = tiny(0.0), tiny(1.0)
        with pytest.raises(ConfigurationError):
            train_curve(a, b, k=1, iters=1, stream=spiral_batch_stream(), lr=0.1, seed=0)


class TestProfileCurve:
    def test_constant_curve_constant_loss(self):
        ds = gen_two_spirals(12, noise_sd=0.05, seed=14)
        v = init_model(LayerSpec((2, 4, 2)), 15)
        profile = profile_curve(CurveSpec((v, v, v)), 7, ds, ds)
        assert np.max(profile.train_loss) - np.min(profile.train_loss) < 1e-12

    def test_grid_endpoints_match_direct_evaluation(self):
        train = gen_two_spirals(12, noise_sd=0.05, seed=16)
        test = gen_two_spirals(15, noise_sd=0.05, seed=17)
        a = init_model(LayerSpec((2, 4, 2)), 18)
        b = init_model(LayerSpec((2, 4, 2)), 19)
        profile = profile_curve(initial_curve(a, b, 2), 5, train, test)
        assert profile.grid[0] == 0.0 and profile.grid[-1] == 1.0
        for idx, w in ((0, a), (-1, b)):
            direct = mean_loss(w, train.inputs, train.labels).total
            assert abs(profile.train_loss[idx] - direct) < 1e-12

    def test_summaries_match_recomputation(self):
        train = gen_two_spirals(12, noise_sd=0.05, seed=20)
        test = gen_two_spirals(15, noise_sd=0.05, seed=21)
        a = init_model(LayerSpec((2, 4, 2)), 22)
        b = init_model(LayerSpec((2, 4, 2)), 23)
        profile = profile_curve(initial_curve(a, b, 2), 9, train, test)
        for series, summary in (
            (profile.train_loss, profile.train_loss_summary),
            (profile.test_error, profile.test_error_summary),
        ):
            assert summary["max"] == max(series)
            assert summary["min"] == min(series)
            assert summary["mean"] == pytest.approx(sum(series) / len(series), abs=1e-15)

    def test_csv_row_count(self, tmp_path):
        train = gen_two_spirals(10, noise_sd=0.05, seed=24)
        a = init_model(LayerSpec((2, 3, 2)), 25)
        b = init_model(LayerSpec((2, 3, 2)), 26)
        profile = profile_curve(initial_curve(a, b, 2), 61, train, train)
        path = tmp_path / "profile.csv"
        profile.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,train_loss,test_error"
        assert len(lines) == 62

    def test_rejects_tiny_grid(self):
        train = gen_two_spirals(10, noise_sd=0.05, seed=27)
        v = init_model(LayerSpec((2, 3, 2)), 28)
        with pytest.raises(InvalidArgumentError):
            profile_curve(CurveSpec((v, v)), 1, train, train)


class TestMcValue:
    def test_constant_loss_curve(self):
        v = tiny(0.5)
        curve = CurveSpec((v, v, v))
        mc, t_star = mc_value(curve, 11, loss_fn=lambda w: 1.25)
        assert mc == 0.0
        assert t_star == 0.0  # ties resolve to the smallest grid point

    def test_degenerate_pair(self):
        ds = gen_two_spirals(10, noise_sd=0.05, seed=29)
        v = init_model(LayerSpec((2, 3, 2)), 30)
        mc, _ = mc_value(CurveSpec((v, v, v)), 11, ds)
        assert mc == 0.0

    def test_quadratic_dip_fixture(self):
        # gamma(t) = t on a one-dimensional weight line; the loss
        # 3w^2 - 3w + 1 equals 1 at both endpoints and dips to 0.25 at 0.5.
        controls = (tiny(0.0), tiny(0.5), tiny(1.0))
        curve = CurveSpec(controls)

        def quadratic(w):
            v = w.values[0]
            return 3.0 * v * v - 3.0 * v + 1.0

        mc, t_star = mc_value(curve, 61, loss_fn=quadratic)
        assert mc == pytest.approx(0.75, abs=1e-12)
        assert t_star == pytest.approx(0.5, abs=1e-12)

    def test_bound_attained_at_t_star(self):
        ds = gen_two_spirals(12, noise_sd=0.1, seed=31)
        a = init_model(LayerSpec((2, 4, 2)), 32)
        b = init_model(LayerSpec((2, 4, 2)), 33)
        curve = initial_curve(a, b, 3)
        grid_size = 21
        mc, t_star = mc_value(curve, grid_size, ds)
        grid = np.linspace(0.0, 1.0, grid_size)
        losses = [mean_loss(curve_point(curve, float(t)), ds.inputs, ds.labels).total for t in grid]
        ref = 0.5 * (losses[0] + losses[-1])
        f = np.abs(ref - np.array(losses))
        assert abs(mc) == pytest.approx(np.max(f), abs=1e-15)
        assert ref - losses[int(np.argmax(f))] == pytest.approx(mc, abs=1e-15)
        assert t_star == grid[int(np.argmax(f))]

    def test_reversal_symmetry(self):
        ds = gen_two_spirals(12, noise_sd=0.1, seed=34)
        a = init_model(LayerSpec((2, 4, 2)), 35)
        b = init_model(LayerSpec((2, 4, 2)), 36)
        controls = initial_curve(a, b, 3).controls
        forward_mc, forward_t = mc_value(CurveSpec(controls), 21, ds)
        reversed_mc, reversed_t = mc_value(CurveSpec(tuple(reversed(controls))), 21, ds)
        assert forward_mc == pytest.approx(reversed_mc, abs=1e-10)
        assert forward_t == pytest.approx(1.0 - reversed_t, abs=1e-12)

    def test_needs_loss_source(self):
        v = tiny(0.0)
        with pytest.raises(InvalidArgumentError):
            mc_value(CurveSpec((v, v)), 5)
