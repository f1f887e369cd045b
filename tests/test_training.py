import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfge.data import gen_two_spirals, batches
from pfge.errors import ConfigurationError, InvalidArgumentError, NumericError, ShapeError
from pfge.nn import Batch, LayerSpec, LossValue, ModelWeights, forward, init_model, softmax
from pfge.schedule import BudgetSpec, LrSchedule, lr_at
from pfge.training import (
    EnsembleSet,
    MomentumState,
    _collection_rule,
    _drive,
    _fold,
    ensemble_predict,
    run_fge,
    run_pfge,
    run_swa,
    running_average_update,
    sgd_step,
)

TINY_SPEC = LayerSpec((1, 1))  # two parameters: one weight, one bias


def tiny_weights(value: float) -> ModelWeights:
    return ModelWeights(TINY_SPEC, np.full(2, value))


def dummy_stream():
    """Minimal batch supply for scripted loss functions that ignore the data."""
    return itertools.repeat(Batch(np.zeros((1, 1)), np.zeros(1, dtype=int)))


def zero_loss_grad(w, batch):
    return LossValue(0.0, 0.0), np.zeros_like(w.values)


def plain_state(w, momentum=0.0, weight_decay=0.0):
    return MomentumState(np.zeros_like(w.values), momentum, weight_decay)


class TestSgdStep:
    def test_plain_update(self):
        spec = LayerSpec((1, 1))
        w = ModelWeights(spec, np.array([1.0, 1.0]))
        state = plain_state(w)
        out, _ = sgd_step(w, np.array([1.0, 2.0]), 0.1, state)
        assert np.allclose(out.values, [0.9, 0.8], atol=1e-15)

    def test_zero_gradient_fixed_point(self):
        w = init_model(LayerSpec((2, 3)), 0)
        out, state = sgd_step(w, np.zeros_like(w.values), 0.5, plain_state(w))
        assert np.array_equal(out.values, w.values)
        assert np.all(state.velocity == 0.0)

    def test_momentum_matches_hand_unrolled(self):
        w = tiny_weights(1.0)
        g1 = np.array([0.5, -0.3])
        g2 = np.array([-0.2, 0.4])
        mu, alpha = 0.9, 0.1
        state = plain_state(w, momentum=mu)
        w1, state = sgd_step(w, g1, alpha, state)
        w2, _ = sgd_step(w1, g2, alpha, state)
        # Hand recurrence: v1 = g1; v2 = mu*g1 + g2.
        v1 = g1
        v2 = mu * v1 + g2
        expected = w.values - alpha * v1 - alpha * v2
        assert np.max(np.abs(w2.values - expected)) < 1e-12

    def test_weight_decay_enters_velocity(self):
        w = tiny_weights(2.0)
        state = plain_state(w, weight_decay=0.5)
        out, new_state = sgd_step(w, np.zeros(2), 0.1, state)
        assert np.allclose(new_state.velocity, 0.5 * w.values, atol=1e-15)
        assert np.allclose(out.values, w.values - 0.1 * 0.5 * w.values, atol=1e-15)

    def test_length_mismatch(self):
        w = tiny_weights(0.0)
        with pytest.raises(ShapeError):
            sgd_step(w, np.zeros(3), 0.1, plain_state(w))

    def test_nonfinite_result_rejected(self):
        w = tiny_weights(1.0)
        with pytest.raises(NumericError):
            sgd_step(w, np.array([1e308, 0.0]), 1e10, plain_state(w))

    def test_blocked_update_matches_reference_bitwise(self):
        # 105350 parameters span several in-place update blocks.
        spec = LayerSpec((300, 350))
        rng = np.random.default_rng(8)
        w = ModelWeights(spec, rng.normal(size=spec.param_count))
        grad = rng.normal(size=spec.param_count)
        state = MomentumState(rng.normal(size=spec.param_count), 0.9, 5e-4)
        out, new_state = sgd_step(w, grad, 0.037, state)
        velocity = 0.9 * state.velocity + (grad + 5e-4 * w.values)
        assert new_state.velocity.tobytes() == velocity.tobytes()
        assert out.values.tobytes() == (w.values - 0.037 * velocity).tobytes()

    @pytest.mark.parametrize("where", [0, -1])
    def test_nonfinite_in_any_block_rejected(self, where):
        spec = LayerSpec((300, 350))
        w = ModelWeights(spec, np.zeros(spec.param_count))
        grad = np.zeros(spec.param_count)
        grad[where] = np.inf
        with pytest.raises(NumericError):
            sgd_step(w, grad, 0.1, plain_state(w))


class TestRunningAverage:
    def test_mean_of_equal_values(self):
        w = init_model(LayerSpec((2, 4)), 1)
        assert np.array_equal(running_average_update(w, 3, w).values, w.values)

    def test_hand_arithmetic(self):
        out = running_average_update(tiny_weights(2.0), 1, tiny_weights(4.0))
        assert np.array_equal(out.values, np.full(2, 3.0))

    def test_fold_matches_mean(self):
        spec = LayerSpec((3, 3))
        rng = np.random.default_rng(5)
        ws = [ModelWeights(spec, rng.normal(size=spec.param_count)) for _ in range(3)]
        avg = ws[0]
        for count, w in enumerate(ws[1:], start=1):
            avg = running_average_update(avg, count, w)
        expected = np.mean([w.values for w in ws], axis=0)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(avg.values - expected)) <= 1e-12 * scale


def scripted_targets_fn(sched, cycle_targets):
    """Loss function whose gradient steers each cycle to a scripted endpoint.

    With zero momentum, ``grad = (w - target) / alpha`` lands the update on
    the target exactly (up to roundoff), so cycle-end iterates are forced.
    """
    counter = itertools.count(1)

    def fn(w, batch):
        i = next(counter)
        cycle = (i - 1) // sched.cycle_len
        target = cycle_targets[min(cycle, len(cycle_targets) - 1)]
        grad = (w.values - target) / lr_at(sched, i)
        return LossValue(0.0, 0.0), grad

    return fn



def vector_stacks():
    """1 to 12 vectors of one length, 1 to 6, with normal finite entries."""
    entries = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=False)
    return st.integers(1, 6).flatmap(lambda d: st.lists(
        st.lists(entries, min_size=d, max_size=d), min_size=1, max_size=12))


class TestFold:
    @given(stack=vector_stacks())
    def test_running_mean_matches_numpy_mean(self, stack):
        stack = np.array(stack)
        avg = stack[0].copy()
        for n_models, w in enumerate(stack[1:], start=1):
            _fold(avg, n_models, w)
        # Each fold rounds a few times at the scale of the largest input, and
        # the running mean damps earlier errors, so the error grows at most
        # linearly in the number of folds.
        bound = 4 * len(stack) * np.finfo(np.float64).eps * np.max(np.abs(stack))
        assert np.all(np.abs(avg - np.mean(stack, axis=0)) <= bound)

class TestCollectionRule:
    @pytest.mark.parametrize("algorithm,rule", [
        ("sgd", (False, 12)),
        ("swa", (True, 12)),
        ("fge", (False, 2)),
        ("pfge", (True, 4)),
    ])
    def test_rule_per_algorithm(self, algorithm, rule):
        assert _collection_rule(algorithm, LrSchedule(1.0, 0.5, 2), BudgetSpec(12, 4)) == rule

    def test_budget_checked(self):
        with pytest.raises(ConfigurationError, match="record_period"):
            _collection_rule("pfge", LrSchedule(1.0, 0.5, 3), BudgetSpec(12, 4))

    def test_sgd_keeps_the_last_iterate_and_traces_cycle_ends(self):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 2)
        average, period = _collection_rule("sgd", sched, BudgetSpec(6))
        fn = scripted_targets_fn(sched, [np.full(2, 2.0), np.full(2, 4.0), np.full(2, 6.0)])
        ensemble, trace = _drive(w0, plain_state(w0), dummy_stream(), 6,
                                 partial(lr_at, sched), sched.cycle_len, period, average,
                                 loss_grad_fn=fn)
        assert ensemble.recorded_at == (6,)
        assert np.allclose(ensemble.members[0].values, 6.0, atol=1e-9)
        assert trace.cycle_end_iters == (2, 4, 6)


class TestRunSwa:
    def test_zero_gradient_returns_start(self):
        w0 = init_model(LayerSpec((2, 3, 2)), 3)
        sched = LrSchedule(0.1, 0.01, 4)
        # n = c: a single fold of two equal vectors is exact.
        avg, trace = run_swa(w0, sched, 4, dummy_stream(), plain_state(w0),
                             loss_grad_fn=zero_loss_grad)
        assert np.array_equal(avg.values, w0.values)
        assert trace.lrs.size == 4
        # Longer stationary runs agree up to running-average roundoff.
        avg8, _ = run_swa(w0, sched, 8, dummy_stream(), plain_state(w0),
                          loss_grad_fn=zero_loss_grad)
        assert np.allclose(avg8.values, w0.values, rtol=1e-14, atol=0)

    def test_scripted_cycle_ends_average(self):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 2)
        fn = scripted_targets_fn(sched, [np.full(2, 2.0), np.full(2, 4.0)])
        avg, trace = run_swa(w0, sched, 4, dummy_stream(), plain_state(w0), loss_grad_fn=fn)
        # Mean of {0, 2, 4} per coordinate.
        assert np.allclose(avg.values, 2.0, atol=1e-9)
        assert trace.cycle_end_iters == (2, 4)

    def test_trace_replay_mean(self):
        ds = gen_two_spirals(20, noise_sd=0.1, seed=1)
        w0 = init_model(LayerSpec((2, 8, 2)), 1)
        sched = LrSchedule(0.1, 0.005, 5)
        avg, _ = run_swa(w0, sched, 30, batches(ds, 10, seed=1), MomentumState.initial(w0),
                         l2_coeff=1e-4)
        # fge walks the same trajectory and keeps its cycle-end iterates.
        iterates, _ = run_fge(w0, sched, 30, batches(ds, 10, seed=1), MomentumState.initial(w0),
                              l2_coeff=1e-4)
        stacked = np.vstack([w0.values, *(m.values for m in iterates.members)])
        expected = stacked.mean(axis=0)
        rel = np.abs(avg.values - expected) / np.maximum(np.abs(expected), 1e-12)
        assert np.max(rel) < 1e-10

    def test_budget_must_divide(self):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 4)
        with pytest.raises(ConfigurationError):
            run_swa(w0, sched, 6, dummy_stream(), plain_state(w0), loss_grad_fn=zero_loss_grad)

    def test_nonfinite_loss_names_iteration(self):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 2)

        def bad(w, batch):
            return LossValue(np.inf, 0.0), np.zeros(2)

        with pytest.raises(NumericError, match="iteration 1"):
            run_swa(w0, sched, 2, dummy_stream(), plain_state(w0), loss_grad_fn=bad)


    def test_nonfinite_weights_name_iteration(self):
        w0 = tiny_weights(1.0)

        def huge(w, batch):
            return LossValue(0.0, 0.0), np.array([1e308, 0.0])

        with pytest.raises(NumericError, match=r"weights .*\(iteration 1\)"):
            run_swa(w0, LrSchedule(1e10, 1.0, 2), 2, dummy_stream(), plain_state(w0),
                    loss_grad_fn=huge)


class TestRunFge:
    def test_member_count(self):
        w0 = init_model(LayerSpec((2, 4, 2)), 2)
        sched = LrSchedule(0.1, 0.01, 3)
        ensemble, _ = run_fge(w0, sched, 9, dummy_stream(), plain_state(w0),
                              loss_grad_fn=zero_loss_grad)
        assert len(ensemble) == 3
        assert ensemble.recorded_at == (3, 6, 9)

    def test_zero_gradient_members_equal_start(self):
        w0 = init_model(LayerSpec((2, 4, 2)), 2)
        sched = LrSchedule(0.1, 0.01, 3)
        ensemble, _ = run_fge(w0, sched, 6, dummy_stream(), plain_state(w0),
                              loss_grad_fn=zero_loss_grad)
        for member in ensemble.members:
            assert np.array_equal(member.values, w0.values)

    def test_wrong_gradient_shape_rejected(self):
        w0 = tiny_weights(0.0)

        def wrong_shape(w, batch):
            return LossValue(0.0, 0.0), np.zeros(3)

        with pytest.raises(ShapeError):
            run_fge(w0, LrSchedule(1.0, 0.5, 2), 2, dummy_stream(), plain_state(w0),
                    loss_grad_fn=wrong_shape)

    def test_members_match_trace_bitwise(self):
        ds = gen_two_spirals(16, noise_sd=0.1, seed=4)
        w0 = init_model(LayerSpec((2, 6, 2)), 4)
        sched = LrSchedule(0.08, 0.004, 4)
        ensemble, trace = run_fge(w0, sched, 16, batches(ds, 8, seed=4), MomentumState.initial(w0))
        assert trace.cycle_end_iters == ensemble.recorded_at


class TestRunPfge:
    def test_member_count_four_periods(self):
        # n = 40 epochs, P = 10 epochs, c = 2 epochs at 3 iterations/epoch.
        e = 3
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 2 * e)
        ensemble, _ = run_pfge(w0, sched, 40 * e, 10 * e, dummy_stream(), plain_state(w0),
                               loss_grad_fn=zero_loss_grad)
        assert len(ensemble) == 4
        assert ensemble.recorded_at == (30, 60, 90, 120)

    def test_zero_gradient_members_equal_start(self):
        w0 = init_model(LayerSpec((2, 3, 2)), 6)
        sched = LrSchedule(0.1, 0.01, 2)
        ensemble, _ = run_pfge(w0, sched, 8, 4, dummy_stream(), plain_state(w0),
                               loss_grad_fn=zero_loss_grad)
        for member in ensemble.members:
            assert np.array_equal(member.values, w0.values)

    def test_single_period_reduces_to_swa(self):
        ds = gen_two_spirals(16, noise_sd=0.1, seed=8)
        w0 = init_model(LayerSpec((2, 6, 2)), 8)
        sched = LrSchedule(0.08, 0.004, 4)
        n = 16
        swa_avg, _ = run_swa(w0, sched, n, batches(ds, 8, seed=8), MomentumState.initial(w0))
        ensemble, _ = run_pfge(w0, sched, n, n, batches(ds, 8, seed=8), MomentumState.initial(w0))
        assert len(ensemble) == 1
        assert np.array_equal(ensemble.members[0].values, swa_avg.values)

    def test_period_members_are_period_means(self):
        # At zero momentum the scripted gradient lands every cycle end on its
        # target whatever the period start, so each member is the mean of the
        # previous member (w0 first) and its period's targets.
        w0 = tiny_weights(1.0)
        sched = LrSchedule(1.0, 0.5, 2)
        n, period = 12, 4
        targets = [np.array([2.0, -3.0]), np.array([4.0, 5.0]), np.array([-1.0, 6.0]),
                   np.array([3.0, 1.0]), np.array([7.0, -2.0]), np.array([0.5, 8.0])]
        fn = scripted_targets_fn(sched, targets)
        ensemble, trace = run_pfge(w0, sched, n, period, dummy_stream(), plain_state(w0),
                                   loss_grad_fn=fn)
        assert trace.cycle_end_iters == (2, 4, 6, 8, 10, 12)
        assert ensemble.recorded_at == (4, 8, 12)
        period_start = w0.values
        for k, member in enumerate(ensemble.members):
            expected = np.mean(np.vstack([period_start, *targets[2 * k:2 * k + 2]]), axis=0)
            rel = np.abs(member.values - expected) / np.maximum(np.abs(expected), 1e-12)
            assert np.max(rel) < 1e-10
            period_start = member.values

    def test_first_period_member_is_mean_of_fge_members(self):
        ds = gen_two_spirals(20, noise_sd=0.1, seed=9)
        w0 = init_model(LayerSpec((2, 6, 2)), 9)
        sched = LrSchedule(0.08, 0.004, 2)
        n, period = 24, 8
        ensemble, _ = run_pfge(w0, sched, n, period, batches(ds, 10, seed=9),
                               MomentumState.initial(w0))
        # The first period is the first ``period`` iterations of fge's trajectory.
        iterates, _ = run_fge(w0, sched, period, batches(ds, 10, seed=9),
                              MomentumState.initial(w0))
        assert len(iterates) == period // sched.cycle_len
        expected = np.mean(np.vstack([w0.values, *(m.values for m in iterates.members)]), axis=0)
        rel = np.abs(ensemble.members[0].values - expected) / np.maximum(np.abs(expected), 1e-12)
        assert np.max(rel) < 1e-10

    def test_determinism_bitwise(self):
        ds = gen_two_spirals(12, noise_sd=0.1, seed=2)
        w0 = init_model(LayerSpec((2, 4, 2)), 2)
        sched = LrSchedule(0.08, 0.004, 2)
        runs = []
        for _ in range(2):
            ensemble, trace = run_pfge(w0, sched, 12, 6, batches(ds, 6, seed=2),
                                       MomentumState.initial(w0))
            runs.append((ensemble, trace))
        for a, b in zip(runs[0][0].members, runs[1][0].members):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(runs[0][1].losses, runs[1][1].losses)

    def test_budget_constraints(self):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, 3)
        with pytest.raises(ConfigurationError):
            run_pfge(w0, sched, 30, 10, dummy_stream(), plain_state(w0),
                     loss_grad_fn=zero_loss_grad)

    @pytest.mark.parametrize("c,period,n", [(2, 2, 8), (2, 4, 16), (3, 6, 36), (5, 20, 40)])
    def test_cardinalities_across_budgets(self, c, period, n):
        w0 = tiny_weights(0.0)
        sched = LrSchedule(1.0, 0.5, c)
        fge, _ = run_fge(w0, sched, n, dummy_stream(), plain_state(w0),
                         loss_grad_fn=zero_loss_grad)
        pfge, _ = run_pfge(w0, sched, n, period, dummy_stream(), plain_state(w0),
                           loss_grad_fn=zero_loss_grad)
        assert len(fge) == n // c
        assert len(pfge) == n // period
        assert fge.recorded_at == tuple(range(c, n + 1, c))
        assert pfge.recorded_at == tuple(range(period, n + 1, period))


class TestEnsemblePredict:
    def test_identical_members_equal_single(self):
        w = init_model(LayerSpec((2, 5, 3)), 12)
        x = np.random.default_rng(0).normal(size=(6, 2))
        single = softmax(forward(w, x))
        # Two copies: (p + p) / 2 is exact.
        avg2, labels2 = ensemble_predict(EnsembleSet((w, w), (1, 2)), x)
        assert np.array_equal(avg2, single)
        assert np.array_equal(labels2, np.argmax(single, axis=1))
        avg3, labels3 = ensemble_predict(EnsembleSet((w, w, w), (1, 2, 3)), x)
        assert np.allclose(avg3, single, rtol=1e-14, atol=0)
        assert np.array_equal(labels3, np.argmax(single, axis=1))

    def test_tie_breaks_to_lowest_class(self):
        spec = LayerSpec((1, 2))
        # Logit gaps of +-40 saturate softmax to one-hot within float precision.
        up = ModelWeights(spec, np.array([0.0, 0.0, 40.0, 0.0]))
        down = ModelWeights(spec, np.array([0.0, 0.0, 0.0, 40.0]))
        avg, labels = ensemble_predict(EnsembleSet((up, down), (1, 2)), np.array([[1.0]]))
        assert np.allclose(avg, [[0.5, 0.5]], atol=1e-15)
        assert labels[0] == 0

    def test_last_k_equals_subset(self):
        ws = [init_model(LayerSpec((2, 4, 2)), seed) for seed in range(3)]
        x = np.random.default_rng(1).normal(size=(5, 2))
        full = EnsembleSet(tuple(ws), (1, 2, 3))
        subset = EnsembleSet(tuple(ws[1:]), (2, 3))
        avg_k, labels_k = ensemble_predict(full, x, last_k=2)
        avg_s, labels_s = ensemble_predict(subset, x)
        assert np.array_equal(avg_k, avg_s)
        assert np.array_equal(labels_k, labels_s)

    def test_last_k_full_equals_default(self):
        ws = [init_model(LayerSpec((2, 4, 2)), seed) for seed in range(3)]
        x = np.random.default_rng(2).normal(size=(4, 2))
        ensemble = EnsembleSet(tuple(ws), (1, 2, 3))
        assert np.array_equal(
            ensemble_predict(ensemble, x, last_k=3)[0], ensemble_predict(ensemble, x)[0]
        )

    def test_rows_sum_to_one(self):
        ws = [init_model(LayerSpec((3, 4, 4)), seed) for seed in range(4)]
        x = np.random.default_rng(3).normal(size=(10, 3))
        avg, _ = ensemble_predict(EnsembleSet(tuple(ws), (1, 2, 3, 4)), x)
        assert np.max(np.abs(avg.sum(axis=1) - 1.0)) < 1e-12

    def test_last_k_out_of_range(self):
        ensemble = EnsembleSet((init_model(LayerSpec((2, 2)), 0),), (1,))
        with pytest.raises(InvalidArgumentError):
            ensemble_predict(ensemble, np.zeros((1, 2)), last_k=2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(InvalidArgumentError):
            EnsembleSet((), ())


class TestEnsembleSet:
    def test_recorded_at_strictly_increasing(self):
        w = init_model(LayerSpec((2, 2)), 0)
        with pytest.raises(InvalidArgumentError):
            EnsembleSet((w, w), (3, 3))

    def test_spec_mismatch(self):
        with pytest.raises(ShapeError):
            EnsembleSet((init_model(LayerSpec((2, 2)), 0), init_model(LayerSpec((2, 3)), 0)), (1, 2))
