"""Only the harness verbs start threads, and each verb has at most one
background thread alive at a time. Every training loop runs on the main
thread, however it ends, and starts no thread; it puts no work on a helper
its caller holds open, and its error leaves the helper joined by its
owner. ``pretrain`` opens a helper
only after its loop, for the row tiles of its train-accuracy forward, and
only where that forward tiles; an error in the helper's tiles reaches the
caller with its type and message. ``run`` trains whole beside its member
scorer whatever the scorer's timing, and a run that takes its trajectory
from the record of an earlier one scores on the main thread, or beside pfge's
training. ``nn._BackgroundThread`` replies in
submission order, keeps each caller's numpy error state, and passes a
failed call's error to its successors and to a clean exit."""

import itertools
import json
import shutil
import threading
import time
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest

from conftest import blas_threads
from pfge import harness, nn, training
from pfge.cli import main
from pfge.config import config_from_dict
from pfge.errors import InvalidArgumentError, NumericError
from pfge.training import MomentumState
from test_golden import CURVE_VARIANTS, golden_doc

WIDE = nn.LayerSpec((300, 256, 264, 10))


class Injected(Exception):
    pass


def raising(message: str):
    """A call that raises ``Injected(message)``."""
    def call():
        raise Injected(message)
    return call


@pytest.fixture(autouse=True)
def one_blas_thread():
    with blas_threads(1):
        yield


def stream(spec: nn.LayerSpec, rows: int = 128, batches: int = 2):
    rng = np.random.default_rng(0)
    return itertools.cycle([
        nn.Batch(rng.normal(size=(rows, spec.sizes[0])), rng.integers(0, spec.n_classes, rows))
        for _ in range(batches)])


def drive(spec: nn.LayerSpec, lr: float = 0.05, on_member=None, batch_stream=None,
          helper_open=True):
    """A four-step loop on ``spec`` that collects a member every two steps,
    run, if ``helper_open``, while its caller holds a helper thread open, as
    ``pretrain`` holds one around its train-accuracy forward."""
    w0 = nn.init_model(spec, 1)
    with nn._BackgroundThread("pfge-layer-half") if helper_open else nullcontext():
        return training._drive(w0, MomentumState.initial(w0), batch_stream or stream(spec), 4,
                               lambda i: lr, 2, 2, on_member=on_member)


def fail_on_helper(owner, name: str):
    """Patch ``owner.name`` to raise ``Injected`` when the helper calls it."""
    original = getattr(owner, name)

    def failing(*args):
        if threading.current_thread().name == "pfge-layer-half":
            raise Injected(f"{name} failed on the helper")
        return original(*args)

    return mock.patch.object(owner, name, failing)


@contextmanager
def layer_calls():
    """Record ``(thread name, live threads)`` at every ``nn._dense`` and
    ``nn._param_grad`` call, the layer work any thread does."""
    calls = []

    def recording(original):
        def call(*args):
            calls.append((threading.current_thread().name, threading.active_count()))
            return original(*args)
        return call

    with mock.patch.object(nn, "_dense", recording(nn._dense)), \
            mock.patch.object(nn, "_param_grad", recording(nn._param_grad)):
        yield calls


def test_a_numeric_error_joins_the_helper():
    # The loop puts no work on the helper its caller holds open, and its
    # error passes through the helper's owner, which joins the helper.
    threads = threading.active_count()
    with layer_calls() as calls, pytest.raises(NumericError, match="non-finite"):
        drive(WIDE, lr=1e50)
    assert calls and {name for name, _ in calls} == {"MainThread"}
    assert threading.active_count() == threads


def test_a_raising_on_member_joins_the_helper():
    threads = threading.active_count()

    def on_member(member, recorded_at):
        raise Injected("the hook failed")

    with layer_calls() as calls, pytest.raises(Injected, match="the hook failed"):
        drive(WIDE, on_member=on_member)
    assert calls and {name for name, _ in calls} == {"MainThread"}
    assert threading.active_count() == threads


def test_a_stream_that_runs_out_joins_the_helper():
    threads = threading.active_count()
    with layer_calls() as calls, \
            pytest.raises(InvalidArgumentError, match="ran out at iteration 3"):
        drive(WIDE, batch_stream=iter(list(itertools.islice(stream(WIDE), 2))))
    assert calls and {name for name, _ in calls} == {"MainThread"}
    assert threading.active_count() == threads


@pytest.mark.parametrize("spec, helper_open, helper_calls", [
    (nn.LayerSpec((2, 64, 64, 2)), True, 0), (nn.LayerSpec((32, 128, 128, 8)), True, 0),
    (WIDE, False, 0)])
def test_only_a_wide_model_trains_with_a_helper(spec, helper_open, helper_calls):
    # No model does any more: whether or not its caller holds a helper open,
    # a loop does all its layer work on the main thread, to the same bits.
    threads, seen = threading.active_count(), []
    with layer_calls() as calls:
        ensemble, _ = drive(spec, helper_open=helper_open, on_member=lambda member, recorded_at:
                            seen.append(threading.active_count()))
    assert seen == [threads + helper_open] * 2
    assert calls and sum(name != "MainThread" for name, _ in calls) == helper_calls
    assert threading.active_count() == threads
    assert [m.values.tobytes() for m in ensemble.members] == [
        m.values.tobytes() for m in drive(spec, helper_open=not helper_open)[0].members]


def test_drive_without_a_helper_starts_no_thread():
    # On any model, every layer call runs on the main thread with no other
    # thread alive.
    threads = threading.active_count()
    for spec in (nn.LayerSpec((2, 64, 64, 2)), nn.LayerSpec((32, 128, 128, 8)), WIDE):
        with layer_calls() as calls:
            drive(spec, helper_open=False)
        assert calls and calls == [("MainThread", threads)] * len(calls)


def test_no_helper_where_column_halves_may_differ():
    # With two BLAS threads, OpenBLAS's Haswell kernel gives column halves
    # other bits than the whole gemm; under such a setting no forward tiles,
    # no helper opens and a loop starts no thread.
    threads, seen = threading.active_count(), []
    with blas_threads(2):
        assert not nn._splits_exactly()
        drive(WIDE, helper_open=False,
              on_member=lambda member, recorded_at: seen.append(threading.active_count()))
        with nn._split_helper(WIDE, 4096) as helper:
            assert helper is None
    assert seen == [threads] * 2


def test_a_caller_gradient_trains_without_a_helper():
    # With a helper open beside it, a loop with a caller's ``loss_grad_fn``
    # puts no work on it.
    w0 = nn.init_model(WIDE, 1)

    def train(helper_open):
        with nn._BackgroundThread("pfge-layer-half") if helper_open else nullcontext():
            return training._drive(w0, MomentumState.initial(w0), stream(WIDE), 2,
                                   lambda i: 0.05, 2, 2, loss_grad_fn=nn.loss_and_grad)[0]

    with layer_calls() as calls:
        handed = train(True)
    assert calls and {name for name, _ in calls} == {"MainThread"}
    assert handed.members[0].values.tobytes() == train(False).members[0].values.tobytes()


def run_doc(outdir, algorithm: str) -> dict:
    """A (2,256,256,2) model trained on batches of 128 rows, with 256 train
    and 512 test rows, too few to tile: fge collects a member every 2 steps,
    pfge every 4."""
    return {
        "seed": 3, "output_dir": str(outdir), "algorithm": algorithm,
        "dataset": {"kind": "two_spirals", "n_per_class": 128, "noise_sd": 0.1,
                    "test_n_per_class": 256},
        "model": {"sizes": [2, 256, 256, 2]}, "batch_size": 128,
        "pretrain": {"epochs": 1, "lr": 0.05},
        "schedule": {"alpha1": 0.05, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 4, "record_epochs": 2},
        "connectivity": {"iters": 4, "grid_size": 5},
    }


def timed_runs(cfg, w0):
    """``run(scorer_seconds, cold)``: ``harness.run`` of ``cfg`` from ``w0``
    with a scorer that sleeps ``scorer_seconds`` before each member, from no
    trajectory record if ``cold``; returns the names of the threads that
    ran a layer and the member payloads."""
    score = harness._MemberScorer.score

    def run(scorer_seconds: float, cold: bool = True):
        def slow_score(self, member):
            time.sleep(scorer_seconds)
            score(self, member)

        if cold:
            shutil.rmtree(cfg.output_dir / harness._TRAJECTORY_CACHE_DIR, ignore_errors=True)
        with mock.patch.object(harness._MemberScorer, "score", slow_score), \
                layer_calls() as calls:
            ensemble, _ = harness.run(cfg, w0)
        return {name for name, _ in calls}, [m.values.tobytes() for m in ensemble.members]
    return run


@pytest.mark.parametrize("algorithm", ["pfge", "fge"])
def test_run_trains_whole_whatever_its_scorer_takes(tmp_path, algorithm):
    # The second core is the member scorer's alone.
    cfg = config_from_dict(run_doc(tmp_path, algorithm))
    run = timed_runs(cfg, harness.pretrain(cfg))
    quick, slow = run(0.0), run(0.2)
    assert quick[0] == {"MainThread", "pfge-member-scorer"}
    assert slow == quick


@pytest.mark.parametrize("algorithm", ["pfge", "fge"])
def test_a_recorded_run_scores_on_the_main_thread(tmp_path, algorithm):
    # fge's trajectory is recorded by the cold run: the warm one trains
    # nothing and scores each member on the main thread. pfge takes its
    # first member from an fge run's record and trains on beside its scorer.
    cfg = config_from_dict(run_doc(tmp_path, algorithm))
    w0 = harness.pretrain(cfg)
    cold = timed_runs(cfg, w0)(0.0)
    harness.run(config_from_dict(run_doc(tmp_path, "fge")), w0)
    warm, slow = timed_runs(cfg, w0)(0.0, cold=False), timed_runs(cfg, w0)(0.2, cold=False)
    assert warm[0] == ({"MainThread"} if algorithm == "fge"
                       else {"MainThread", "pfge-member-scorer"})
    assert warm[1] == slow[1] == cold[1]


def tiling_doc(outdir) -> dict:
    """A (32,128,128,8) model, every width a multiple of 8, on 1,024 train
    and 1,200 test rows: the forwards over a whole split run in row
    tiles."""
    centers = (3.0 * np.random.default_rng(0).normal(size=(8, 32))).tolist()
    return {
        "seed": 3, "output_dir": str(outdir), "algorithm": "fge",
        "dataset": {"kind": "blobs", "centers": centers, "n_per_class": 128, "sd": 1.0,
                    "test_n_per_class": 150},
        "model": {"sizes": [32, 128, 128, 8]}, "batch_size": 128,
        "pretrain": {"epochs": 1, "lr": 0.05},
        "schedule": {"alpha1": 0.05, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 2},
        "connectivity": {"iters": 4, "grid_size": 5},
    }


def verb_docs(outdir) -> dict:
    """The golden "wide" variant, of 48 train and 1,024 test rows in batches
    of 10, ``run_doc``'s batches of 128 rows, and ``tiling_doc``."""
    golden = golden_doc(outdir / "golden", "wide", "fge")
    golden.update(json.loads(json.dumps(CURVE_VARIANTS["wide"])))
    return {"golden-wide": golden, "batches-of-128": run_doc(outdir / "batches", "pfge"),
            "tiling": tiling_doc(outdir / "tiling")}


@pytest.mark.parametrize("name", ["golden-wide", "batches-of-128", "tiling"])
def test_no_verb_has_more_than_one_background_thread(tmp_path, name, capsys):
    doc = verb_docs(tmp_path)[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = config_from_dict(doc)
    threads = threading.active_count()

    def verb(*argv, code=0):
        with layer_calls() as calls:
            assert main([*argv[:1], str(path), *argv[1:]]) == code
        assert max(live for _, live in calls) <= threads + 1, argv
        assert threading.active_count() == threads, argv
        return calls

    # Pretraining opens a helper exactly where its train-accuracy forward
    # tiles: for "tiling" alone.
    tiles = nn._tiled_layers(cfg.model_spec, len(harness.load_split(cfg, "train")))
    assert max(live for _, live in verb("pretrain")) == threads + bool(tiles)
    assert bool(tiles) is (name == "tiling")
    verb("pretrain", "pretrain.lr=1e50", "pretrain.epochs=6", code=4)
    verb("pretrain")
    calls = verb("run")
    assert {name for name, _ in calls} == {"MainThread", "pfge-member-scorer"}
    verb("run", "schedule.alpha1=1e50", "schedule.alpha2=1.0", code=4)

    def failing_score(self, member):
        raise Injected("the scorer failed")

    with mock.patch.object(harness._MemberScorer, "score", failing_score), \
            pytest.raises(Injected, match="the scorer failed"):
        verb("run")
    assert threading.active_count() == threads
    verb("run")
    # Only "batches-of-128" has too few test rows to tile.
    helped = "pfge-layer-half" in {thread for thread, _ in verb("evaluate")}
    assert helped is (name != "batches-of-128")
    verb("connectivity")
    verb("connectivity", "connectivity.lr=1e50", code=4)
    capsys.readouterr()


def test_pretrain_saves_no_weights_whose_train_forward_overflows(tmp_path, capsys):
    # At this lr the two steps leave the loss and weights finite, but the
    # train-accuracy forward overflows in its matmul.
    doc = run_doc(tmp_path, "pfge")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    threads = threading.active_count()
    assert main(["pretrain", str(path), "pretrain.lr=1e50"]) == 4
    assert "non-finite outputs on the train split" in capsys.readouterr().err
    assert not config_from_dict(doc).w0_path.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", ["golden-wide", "batches-of-128", "tiling"])
def test_pretrain_trains_on_the_main_thread_alone(tmp_path, name):
    # Every layer call of the training loop runs on the main thread with no
    # other thread alive; the helper, where there is one, is handed only the
    # row tiles of the train-accuracy forward.
    cfg = config_from_dict(verb_docs(tmp_path)[name])
    threads, loop_calls, submitted = threading.active_count(), [], []
    drive_loop, submit = harness._drive, nn._BackgroundThread.submit

    def recording_drive(*args, **kwargs):
        with layer_calls() as calls:
            result = drive_loop(*args, **kwargs)
        loop_calls.extend(calls)
        return result

    def recording_submit(self, call, *args):
        submitted.append((self._thread.name, getattr(call, "func", call)))
        return submit(self, call, *args)

    with mock.patch.object(harness, "_drive", recording_drive), \
            mock.patch.object(nn._BackgroundThread, "submit", recording_submit):
        harness.pretrain(cfg)
    assert loop_calls and loop_calls == [("MainThread", threads)] * len(loop_calls)
    assert set(submitted) <= {("pfge-layer-half", nn._forward_tiles)}
    assert bool(submitted) is (name == "tiling")
    assert threading.active_count() == threads


@pytest.mark.parametrize("owner, name", [(nn, "_dense"), (nn, "_forward_tiles")])
def test_a_helper_error_reaches_the_caller(tmp_path, owner, name):
    # An error in the helper's tiles of pretraining's train-accuracy forward
    # reaches the caller unchanged, with no thread left and no checkpoint
    # written.
    cfg = config_from_dict(tiling_doc(tmp_path))
    threads = threading.active_count()
    with fail_on_helper(owner, name), pytest.raises(Injected) as caught:
        harness.pretrain(cfg)
    assert type(caught.value) is Injected
    assert str(caught.value) == f"{name} failed on the helper"
    assert not cfg.w0_path.exists()
    assert threading.active_count() == threads


def test_helper_calls_keep_the_callers_numpy_error_state():
    # Pretraining's train-accuracy forward ignores numpy warnings; so must
    # its helper's tiles.
    with pytest.raises(FloatingPointError), np.errstate(over="raise"), \
            nn._BackgroundThread("pfge-layer-half") as helper:
        helper.submit(np.multiply, np.array([1e308]), 10.0)
        helper.result()


def test_each_call_runs_under_the_error_state_it_was_submitted_in():
    # A thread outlives its callers' ``np.errstate`` blocks, so each call
    # carries the state it was submitted in.
    with nn._BackgroundThread("pfge-layer-half") as helper:
        with np.errstate(over="ignore"):
            helper.submit(np.multiply, np.array([1e308]), 10.0)
        with np.errstate(over="raise"):
            helper.submit(np.multiply, np.array([1e308]), 10.0)
        assert helper.result()[0] == np.inf
        with pytest.raises(FloatingPointError):
            helper.result()


def test_replies_come_back_in_submission_order():
    with nn._BackgroundThread("pfge-test") as thread:
        for value in range(5):
            thread.submit(lambda v: (time.sleep(0.001 * (5 - v)), v)[1], value)
        assert [thread.result() for _ in range(5)] == list(range(5))
        thread.submit(int, "7")
        assert thread.result() == 7


def test_a_failed_call_fails_its_successors_without_running_them():
    ran = []
    with nn._BackgroundThread("pfge-test") as thread:
        thread.submit(ran.append, 1)
        thread.submit(raising("the second call failed"))
        thread.submit(ran.append, 3)
        assert thread.result() is None
        for _ in range(2):
            with pytest.raises(Injected, match="the second call failed"):
                thread.result()
    assert ran == [1]


def test_an_untaken_error_is_raised_on_exit():
    threads = threading.active_count()
    with pytest.raises(Injected, match="nobody took me"):
        with nn._BackgroundThread("pfge-test") as thread:
            thread.submit(int, "1")
            thread.submit(raising("nobody took me"))
            assert thread.result() == 1
    assert threading.active_count() == threads
    # An error already taken is not raised again.
    with nn._BackgroundThread("pfge-test") as thread:
        thread.submit(raising("taken"))
        with pytest.raises(Injected, match="taken"):
            thread.result()


def test_an_error_in_the_block_cancels_the_queued_calls():
    ran, started = [], threading.Event()

    def first():
        # Runs on until the block's exception reaches ``__exit__``.
        started.set()
        deadline = time.monotonic() + 5.0
        while not thread._cancelled and time.monotonic() < deadline:
            time.sleep(0.001)
        ran.append(1)

    threads = threading.active_count()
    with pytest.raises(Injected, match="the block failed"):
        with nn._BackgroundThread("pfge-test") as thread:
            thread.submit(first)
            thread.submit(ran.append, 2)
            thread.submit(raising("a queued call failed"))
            assert started.wait(5.0)
            raise Injected("the block failed")
    assert ran == [1]
    assert threading.active_count() == threads
