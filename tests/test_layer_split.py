"""A loop handed a helper thread splits the work of each wide layer with it:
a forward computes a layer's right columns there, and a training step also
its weight gradients. A loop gets a helper only where OpenBLAS runs on one
thread, and there logits, gradients, members and traces must equal the
unsplit ones bit for bit; at the BLAS thread count in effect, whatever it
is, a loop's members must equal a whole loop's. An error in the helper's
half must reach the caller unchanged with no thread left behind, and
forwards that already run on a background thread (the run's member scorer,
the curve's endpoint scorer) never split."""

import itertools
import json
import threading
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blas_threads
from pfge import harness, nn, training
from pfge.config import config_from_dict
from pfge.schedule import BudgetSpec, LrSchedule, lr_at
from pfge.training import EnsembleSet, MomentumState, ensemble_predict
from test_golden import CURVE_VARIANTS, golden_doc


class Injected(Exception):
    pass


@contextmanager
def dense_calls(fail_on_helper=False):
    """Record ``(thread name, output width, live threads)`` for every
    ``nn._dense`` call; with ``fail_on_helper``, the helper's half raises."""
    calls, original = [], nn._dense

    def recording(h, W, *args):
        thread = threading.current_thread()
        calls.append((thread.name, W.shape[1], threading.active_count()))
        if fail_on_helper and thread.name == "pfge-layer-half":
            raise Injected("the right half failed")
        return original(h, W, *args)

    with mock.patch.object(nn, "_dense", recording):
        yield calls


def splits(calls) -> int:
    return sum(name == "pfge-layer-half" for name, _, _ in calls)


@st.composite
def wide_forwards(draw):
    """Two layers whose first is on either side of the split's size bound:
    ``rows * fan_in * fan_out`` within a few rows of 2**23, odd widths and
    widths that are not multiples of 8 included."""
    fan_in = draw(st.integers(64, 300))
    # Half the widths are multiples of 8, which split above the bound.
    fan_out = draw(st.one_of(st.integers(32, 65).map(lambda n: 8 * n), st.integers(256, 520)))
    classes = draw(st.sampled_from([2, 10, 256, 264]))
    threshold = -(-nn._SPLIT_MULTIPLY_ADDS // (fan_in * fan_out))
    rows = threshold + draw(st.integers(-3, 3))
    activation = draw(st.sampled_from(nn.ACTIVATIONS))
    seed = draw(st.integers(0, 2**32 - 1))
    return nn.LayerSpec((fan_in, fan_out, classes), activation), rows, seed


def expected_splits(spec: nn.LayerSpec, rows: int) -> int:
    return sum(fan_out >= nn._SPLIT_COLUMNS and fan_out % 8 == 0
               and rows * fan_in * fan_out >= nn._SPLIT_MULTIPLY_ADDS
               for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]))


@settings(max_examples=40)
@given(case=wide_forwards())
def test_split_forward_equals_unsplit_bit_for_bit(case):
    spec, rows, seed = case
    rng = np.random.default_rng(seed)
    weights = nn.ModelWeights(spec, rng.normal(0.0, 0.1, spec.param_count))
    x = rng.normal(size=(rows, spec.sizes[0]))
    layers = nn.unpack(weights)
    workspace = nn._Workspace(spec, rows)
    with blas_threads(1), dense_calls() as calls, \
            nn._BackgroundThread("pfge-layer-half") as helper:
        split = nn._forward(layers, x, spec.activation, workspace=workspace, helper=helper)
        whole = nn._forward(layers, x, spec.activation)
    assert splits(calls) == expected_splits(spec, rows)
    assert split.tobytes() == whole.tobytes()
    # Without a helper a forward never splits, in a workspace or not.
    with dense_calls() as calls:
        nn._forward(layers, x, spec.activation, workspace=workspace)
    assert splits(calls) == 0


@st.composite
def wide_steps(draw):
    """A model whose hidden widths are 256-520, half of them not multiples
    of 8, behind a 784-wide input, and a batch of 1-300 rows: a few rows
    often, where halves of a 784-input layer would take OpenBLAS's
    small-matrix path and must not split, and up to a stream's full or
    short last batch."""
    widths = st.one_of(st.integers(32, 65).map(lambda n: 8 * n), st.integers(256, 520))
    hidden = (draw(widths), draw(widths))
    classes = draw(st.sampled_from([2, 10, 256]))
    activation = draw(st.sampled_from(nn.ACTIVATIONS))
    rows = draw(st.one_of(st.integers(1, 16), st.integers(1, 300)))
    l2_coeff = draw(st.sampled_from([0.0, 1e-3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return nn.LayerSpec((784, *hidden, classes), activation), rows, l2_coeff, seed


@settings(max_examples=40, deadline=None)
@given(case=wide_steps())
def test_split_step_equals_unsplit_bit_for_bit(case):
    spec, rows, l2_coeff, seed = case
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.05, spec.param_count)
    batch = nn.Batch(rng.normal(size=(rows, 784)), rng.integers(0, spec.n_classes, rows))
    whole, split = np.empty(spec.param_count), np.empty(spec.param_count)
    with blas_threads(1):
        expected = nn._GradStep(spec, values, whole, l2_coeff)(batch)
        with dense_calls() as calls, nn._BackgroundThread("pfge-layer-half") as helper:
            got = nn._GradStep(spec, values, split, l2_coeff)(batch, helper)
    assert splits(calls) == expected_splits(spec, rows)
    assert got == expected
    assert split.tobytes() == whole.tobytes()


# Both hidden layers split at 128 rows and the output layer stays whole. The
# stream's third batch is a short one of 44 rows, at which only the first
# layer splits.
WIDE_SPEC = nn.LayerSpec((300, 256, 264, 10))


def wide_stream(seed: int):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(300, 300)), rng.integers(0, 10, 300)
    return itertools.cycle([nn.Batch(x[lo:lo + 128], y[lo:lo + 128]) for lo in (0, 128, 256)])


@pytest.mark.parametrize("threads", [1, None])
@pytest.mark.parametrize("algorithm", ["sgd", "swa", "fge", "pfge"])
def test_split_drive_equals_unsplit_bit_for_bit(algorithm, threads):
    # With one BLAS thread the loop splits; with the count in effect, it
    # splits only if that count is one.
    sched = LrSchedule(0.05, 0.005, 2)
    average, period = training._collection_rule(algorithm, sched, BudgetSpec(8, 4))
    w0 = nn.init_model(WIDE_SPEC, 3)
    opt = MomentumState.initial(w0, 0.9, 5e-4)

    def drive():
        return training._drive(w0, opt, wide_stream(3), 8, lambda i: lr_at(sched, i),
                               sched.cycle_len, period, average, l2_coeff=1e-3)

    with blas_threads(threads) if threads else nullcontext(), dense_calls() as calls:
        ensemble, trace = drive()
        assert (splits(calls) > 0) is nn._splits_exactly()
        with mock.patch.object(training, "_split_helper", lambda spec: nullcontext()), \
                dense_calls() as calls:
            whole, whole_trace = drive()
    assert splits(calls) == 0
    assert ensemble.recorded_at == whole.recorded_at
    assert [m.values.tobytes() for m in ensemble.members] == [
        m.values.tobytes() for m in whole.members]
    assert trace.lrs.tobytes() == whole_trace.lrs.tobytes()
    assert trace.losses.tobytes() == whole_trace.losses.tobytes()
    assert trace.cycle_end_iters == whole_trace.cycle_end_iters


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """An fge run of the "wide" golden model: a 256x256 layer on 1,024 test
    rows, which a full-split forward on the main thread splits."""
    doc = golden_doc(tmp_path_factory.mktemp("wide"), "wide", "fge")
    doc.update(json.loads(json.dumps(CURVE_VARIANTS["wide"])))
    cfg = config_from_dict(doc)
    w0 = harness.pretrain(cfg)
    with dense_calls() as calls:
        harness.run(cfg, w0)
    return cfg, calls


def test_member_scorer_never_splits(wide_run):
    cfg, calls = wide_run
    width = cfg.model_spec.sizes[1:]
    # Beside the main thread's training steps, four members of three layers
    # each, all on the scorer's thread, whole.
    assert [(name, fan_out) for name, fan_out, _ in calls if name != "MainThread"] == [
        ("pfge-member-scorer", fan_out) for _ in range(4) for fan_out in width]


def test_evaluate_and_connectivity_split_and_join(wide_run):
    cfg, _ = wide_run
    threads = threading.active_count()
    with blas_threads(1), dense_calls() as calls:
        harness.evaluate(cfg)
    # Three members; only the 256x256 layer reaches 2**23 multiply-adds.
    assert splits(calls) == 3
    assert max(live for _, _, live in calls) == threads + 1
    assert threading.active_count() == threads
    with blas_threads(1), dense_calls() as calls:
        harness.connectivity_run(cfg)
    by_thread = {}
    for name, fan_out, _ in calls:
        by_thread.setdefault(name, []).append(fan_out)
    # The endpoint thread runs each endpoint's train and test forwards whole;
    # the main thread splits the three interior points' test forwards.
    assert by_thread["pfge-endpoint-scorer"] == [256, 256, 2] * 4
    assert splits(calls) == 3
    assert max(live for _, _, live in calls) == threads + 1
    assert threading.active_count() == threads


def test_helper_error_reaches_the_caller_unchanged(wide_run):
    cfg, _ = wide_run
    test = harness.load_split(cfg, "test", harness.load_checkpoint(cfg.w0_path).standardization)
    member = harness.load_checkpoint(harness.member_checkpoint_paths(cfg.run_dir)[0]).weights
    threads = threading.active_count()
    with blas_threads(1), dense_calls(fail_on_helper=True), pytest.raises(Injected) as caught:
        ensemble_predict(EnsembleSet((member,), (1,)), test.inputs)
    assert type(caught.value) is Injected
    assert str(caught.value) == "the right half failed"
    assert threading.active_count() == threads


@pytest.mark.parametrize("verb", [harness.evaluate, harness.connectivity_run])
def test_a_failed_half_leaves_no_thread(wide_run, verb):
    cfg, _ = wide_run
    threads = threading.active_count()
    with blas_threads(1), dense_calls(fail_on_helper=True), pytest.raises(Injected):
        verb(cfg)
    assert threading.active_count() == threads
