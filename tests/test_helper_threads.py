"""A training loop on a model with a wide layer opens one helper thread for
its whole run where OpenBLAS runs on one thread; however the loop ends, the
helper is joined, and an error in the helper's half reaches the caller with
its type and message. A loop on a narrower model, or under a BLAS setting
whose column halves may differ from the whole gemm, starts no thread at
all, and whether ``run`` splits its steps does not depend on how long its
member scorer takes."""

import itertools
import threading
import time
from unittest import mock

import numpy as np
import pytest

from conftest import blas_threads
from pfge import harness, nn, training
from pfge.config import config_from_dict
from pfge.errors import InvalidArgumentError, NumericError
from pfge.training import MomentumState

WIDE = nn.LayerSpec((300, 256, 264, 10))


class Injected(Exception):
    pass


@pytest.fixture(autouse=True)
def one_blas_thread():
    with blas_threads(1):
        yield


def stream(spec: nn.LayerSpec, rows: int = 128, batches: int = 2):
    rng = np.random.default_rng(0)
    return itertools.cycle([
        nn.Batch(rng.normal(size=(rows, spec.sizes[0])), rng.integers(0, spec.n_classes, rows))
        for _ in range(batches)])


def drive(spec: nn.LayerSpec, lr: float = 0.05, on_member=None, batch_stream=None, split=True):
    w0 = nn.init_model(spec, 1)
    return training._drive(w0, MomentumState.initial(w0), batch_stream or stream(spec), 4,
                           lambda i: lr, 2, 2, on_member=on_member, split=split)


def fail_on_helper(owner, name: str):
    """Patch ``owner.name`` to raise ``Injected`` when the helper calls it."""
    original = getattr(owner, name)

    def failing(*args):
        if threading.current_thread().name == "pfge-layer-half":
            raise Injected(f"{name} failed on the helper")
        return original(*args)

    return mock.patch.object(owner, name, failing)


def test_a_numeric_error_joins_the_helper():
    threads = threading.active_count()
    with pytest.raises(NumericError, match="non-finite"):
        drive(WIDE, lr=1e50)
    assert threading.active_count() == threads


def test_a_raising_on_member_joins_the_helper():
    threads = threading.active_count()

    def on_member(member, recorded_at):
        raise Injected("the hook failed")

    with pytest.raises(Injected, match="the hook failed"):
        drive(WIDE, on_member=on_member)
    assert threading.active_count() == threads


def test_a_stream_that_runs_out_joins_the_helper():
    threads = threading.active_count()
    with pytest.raises(InvalidArgumentError, match="ran out at iteration 3"):
        drive(WIDE, batch_stream=iter(list(itertools.islice(stream(WIDE), 2))))
    assert threading.active_count() == threads


@pytest.mark.parametrize("owner, name", [(nn, "_dense"), (nn, "_param_grad")])
def test_a_helper_error_reaches_the_caller(owner, name):
    threads = threading.active_count()
    with fail_on_helper(owner, name), pytest.raises(Injected) as caught:
        drive(WIDE)
    assert type(caught.value) is Injected
    assert str(caught.value) == f"{name} failed on the helper"
    assert threading.active_count() == threads


@pytest.mark.parametrize("spec, split, helpers", [
    (nn.LayerSpec((2, 64, 64, 2)), True, 0), (nn.LayerSpec((32, 128, 128, 8)), True, 0),
    (WIDE, False, 0), (WIDE, True, 1)])
def test_only_a_wide_model_trains_with_a_helper(spec, split, helpers):
    threads, seen = threading.active_count(), []
    ensemble, _ = drive(spec, split=split,
                        on_member=lambda member, recorded_at: seen.append(threading.active_count()))
    assert seen == [threads + helpers] * 2
    assert threading.active_count() == threads
    assert [m.values.tobytes() for m in ensemble.members] == [
        m.values.tobytes() for m in drive(spec, split=not split)[0].members]


def test_no_helper_where_column_halves_may_differ():
    # With two BLAS threads, OpenBLAS's Haswell kernel gives column halves
    # other bits than the whole gemm; no loop splits under such a setting.
    threads, seen = threading.active_count(), []
    with blas_threads(2):
        assert not nn._splits_exactly()
        drive(WIDE, on_member=lambda member, recorded_at: seen.append(threading.active_count()))
        with nn._split_helper(WIDE) as helper:
            assert helper is None
    assert seen == [threads] * 2


def test_a_caller_gradient_trains_without_a_helper():
    threads, seen = threading.active_count(), []
    w0 = nn.init_model(WIDE, 1)
    training._drive(w0, MomentumState.initial(w0), stream(WIDE), 2, lambda i: 0.05, 2, 2,
                    loss_grad_fn=nn.loss_and_grad,
                    on_member=lambda member, recorded_at: seen.append(threading.active_count()))
    assert seen == [threads]


def run_doc(outdir, algorithm: str) -> dict:
    """A (2,256,256,2) model trained on batches of 128 rows, at which its
    256x256 layer splits, with a 512-row test split: fge collects a member
    every 2 steps, pfge every 4."""
    return {
        "seed": 3, "output_dir": str(outdir), "algorithm": algorithm,
        "dataset": {"kind": "two_spirals", "n_per_class": 128, "noise_sd": 0.1,
                    "test_n_per_class": 256},
        "model": {"sizes": [2, 256, 256, 2]}, "batch_size": 128,
        "pretrain": {"epochs": 1, "lr": 0.05},
        "schedule": {"alpha1": 0.05, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 4, "record_epochs": 2},
    }


@pytest.mark.parametrize("algorithm, splits", [("pfge", True), ("fge", False)])
def test_run_splits_by_its_collection_period_not_by_scorer_timing(tmp_path, algorithm, splits):
    # A member's scoring takes about 512 / (3 * 4 * 128) of a pfge period
    # and 512 / (3 * 2 * 128) of an fge one: only pfge's leaves the second
    # core idle for most of the period.
    cfg = config_from_dict(run_doc(tmp_path, algorithm))
    w0 = harness.pretrain(cfg)
    score, param_grad = harness._MemberScorer.score, nn._param_grad

    def run(scorer_seconds: float):
        names = []

        def slow_score(self, member):
            time.sleep(scorer_seconds)
            score(self, member)

        def recording(*args):
            names.append(threading.current_thread().name)
            param_grad(*args)

        with mock.patch.object(harness._MemberScorer, "score", slow_score), \
                mock.patch.object(nn, "_param_grad", recording):
            ensemble, _ = harness.run(cfg, w0)
        return names.count("pfge-layer-half"), [m.values.tobytes() for m in ensemble.members]

    quick, slow = run(0.0), run(0.2)
    # One 256x256 weight gradient per step on the helper, or none.
    assert quick[0] == (8 if splits else 0)
    assert slow == quick


def test_helper_calls_keep_the_callers_numpy_error_state():
    # A loop ignores numpy warnings; so must its helper's halves.
    with pytest.raises(FloatingPointError), np.errstate(over="raise"), \
            nn._BackgroundThread("pfge-layer-half") as helper:
        helper.submit(np.multiply, np.array([1e308]), 10.0)
        helper.wait()
