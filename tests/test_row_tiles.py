"""A forward over at least ``2 * nn._TILE_ROWS`` rows runs its leading
layers whose widths are multiples of 8 in row tiles, where OpenBLAS runs one
thread on a kernel checked for it; handed a helper, it splits the rows into
halves and the helper runs the second half's tiles. ``forward``,
``mean_loss`` and ``ensemble_predict`` must then give the bytes of the whole
forward, with a helper and without one, and at two BLAS threads nothing may
tile. The workspace keeps no full-row hidden buffer a tiled forward does not
read, and an error in a helper's tile reaches the caller unchanged with no
thread left behind. In the verbs, ``evaluate`` and the curve's interior
points hand their tiles' second halves to a helper, while forwards that
already run on a background thread (the run's member scorer, the curve's
endpoint scorer) tile on that thread alone."""

import json
import threading
from contextlib import contextmanager, nullcontext
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import blas_threads
from pfge import connectivity, harness, nn
from pfge.config import config_from_dict
from pfge.training import EnsembleSet, ensemble_predict
from test_golden import CURVE_VARIANTS, golden_doc

TILE = nn._TILE_ROWS

# Row counts just past the tile and half boundaries: two tiles are the least
# that tiles, and a helper's halves of four tiles' rows (a multiple of 8 near
# the middle) each hold two.
BOUNDARIES = sorted({rows + d for rows in (2 * TILE, 3 * TILE, 4 * TILE, 5 * TILE)
                     for d in (-9, -8, -1, 0, 1, 7, 8, 9, 16, 17)})


class Injected(Exception):
    pass


@st.composite
def tiled_forwards(draw):
    """A model of one or two hidden layers, widths multiples of 8 and not,
    on 1-3,000 rows, boundary row counts included."""
    fan_in = draw(st.sampled_from([1, 2, 3, 32, 784]))
    widths = st.one_of(st.integers(1, 40).map(lambda n: 8 * n), st.integers(1, 300))
    hidden = draw(st.lists(widths, min_size=1, max_size=2))
    classes = draw(st.sampled_from([2, 3, 8, 10, 16]))
    activation = draw(st.sampled_from(nn.ACTIVATIONS))
    rows = draw(st.one_of(st.integers(1, 3000), st.sampled_from(BOUNDARIES)))
    seed = draw(st.integers(0, 2**32 - 1))
    return nn.LayerSpec((fan_in, *hidden, classes), activation), rows, seed


def model_and_data(spec: nn.LayerSpec, rows: int, seed: int):
    rng = np.random.default_rng(seed)
    members = tuple(nn.ModelWeights(spec, rng.normal(0.0, 0.3, spec.param_count))
                    for _ in range(2))
    return members, rng.normal(size=(rows, spec.sizes[0])), rng.integers(0, spec.n_classes, rows)


def outputs(members, x, labels, helper=None) -> tuple:
    """The bytes of ``forward``, ``mean_loss`` and ``ensemble_predict``."""
    logits = nn.forward(members[0], x, helper=helper)
    loss = nn.mean_loss(members[0], x, labels, 1e-3, helper=helper)
    probs, preds = ensemble_predict(EnsembleSet(members, (1, 2)), x, helper=helper)
    return logits.tobytes(), loss, probs.tobytes(), preds.tobytes()


def whole_outputs(members, x, labels) -> tuple:
    with mock.patch.object(nn, "_tiled_layers", lambda spec, rows: 0):
        return outputs(members, x, labels)


def tile_calls():
    """Patch ``nn._forward_tiles`` to record ``(thread name, start, stop)``."""
    calls, original = [], nn._forward_tiles

    def recording(*args):
        calls.append((threading.current_thread().name, *args[-2:]))
        return original(*args)

    return calls, mock.patch.object(nn, "_forward_tiles", recording)


@settings(max_examples=60)
@given(case=tiled_forwards())
# A 1-row remainder left as its own tile gives other bits for these.
@example(case=(nn.LayerSpec((3, 392, 5)), 2 * TILE + 1, 0))
@example(case=(nn.LayerSpec((32, 128, 128, 8), "tanh"), 4 * TILE + 1, 0))
def test_tiled_forwards_equal_the_whole_forward(case):
    spec, rows, seed = case
    members, x, labels = model_and_data(spec, rows, seed)
    layers = nn.unpack(members[0])
    with blas_threads(1):
        whole = whole_outputs(members, x, labels)
        assert whole[0] == nn._forward(layers, x, spec.activation).tobytes()
        count = nn._tiled_layers(spec, rows)
        assert count == (0 if rows < 2 * TILE else next(
            (idx for idx, width in enumerate(spec.sizes[1:]) if width % 8), spec.n_layers))
        for helper_context in (nullcontext(), nn._BackgroundThread("pfge-layer-half")):
            calls, recording = tile_calls()
            with recording, helper_context as helper:
                assert outputs(members, x, labels, helper) == whole
            # Four forwards: one for ``forward``, one for ``mean_loss`` and
            # one per member; with a helper each splits at a multiple of 8.
            half = rows // 16 * 8
            expected = [("MainThread", 0, rows)] if helper is None else [
                ("MainThread", 0, half), ("pfge-layer-half", half, rows)]
            assert sorted(calls) == sorted(expected * 4 if count else [])


@settings(max_examples=20)
@given(case=tiled_forwards())
def test_nothing_tiles_at_two_blas_threads(case):
    spec, rows, seed = case
    members, x, labels = model_and_data(spec, rows, seed)
    with blas_threads(2):
        assert nn._tiled_layers(spec, rows) == 0
        with nn._split_helper(spec, rows) as helper:
            assert helper is None
        calls, recording = tile_calls()
        with recording:
            assert outputs(members, x, labels) == whole_outputs(members, x, labels)
    assert calls == []


@pytest.mark.parametrize("rows", [2 * TILE - 1, 2 * TILE, 6000])
def test_tiles_keep_no_full_row_hidden_buffer(rows):
    # The benchmark's csv-analysis model, all of whose widths are multiples
    # of 8: its test forward with a helper keeps four tile buffers and the
    # logits, under 5 MB at 6,000 rows, where a whole forward kept 12.7 MB.
    spec = nn.LayerSpec((32, 128, 128, 8))
    (member, _), x, _ = model_and_data(spec, rows, 0)
    with blas_threads(1), nn._BackgroundThread("pfge-layer-half") as helper:
        workspace = nn._Workspace(spec, rows)
        nn.forward(member, x, workspace=workspace, helper=helper)
    tile_rows = min(rows, 2 * TILE - 1)
    assert {key: buf.size for key, buf in workspace._buffers.items()} == (
        {"logits": rows * 8, **{(thread, k): tile_rows * 128 for thread in (0, 1) for k in (0, 1)}}
        if rows >= 2 * TILE else {"logits": rows * 8, (0, 0): rows * 128, (0, 1): rows * 128})
    if rows == 6000:
        assert sum(buf.nbytes for buf in workspace._buffers.values()) < 5e6


def test_a_whole_layer_after_the_tiles_reads_one_full_row_buffer():
    # The 2-wide output layer runs whole, on the main thread, over the
    # second hidden layer's full rows.
    spec = nn.LayerSpec((2, 64, 64, 2))
    rows = 3 * TILE
    (member, _), x, _ = model_and_data(spec, rows, 1)
    with blas_threads(1), nn._BackgroundThread("pfge-layer-half") as helper:
        workspace = nn._Workspace(spec, rows)
        nn.forward(member, x, workspace=workspace, helper=helper)
    assert set(workspace._buffers) == {"logits", 1, (0, 0), (1, 0)}
    assert workspace._buffers[1].size == rows * 64


@pytest.mark.parametrize("rows", [TILE, 3 * TILE])
def test_a_one_thread_forward_writes_only_buffers_made_with_the_workspace(rows):
    # ``run``'s scorer and the curve's endpoint thread forward in a
    # workspace made on the main thread, so their buffers are freed where the
    # main thread's later allocations reuse them.
    spec = nn.LayerSpec((2, 64, 64, 2))
    (member, _), x, _ = model_and_data(spec, rows, 3)
    with blas_threads(1), nn._BackgroundThread("pfge-member-scorer") as scorer:
        workspace = nn._Workspace(spec, rows)
        made = dict(workspace._buffers)
        scorer.submit(partial(nn.forward, workspace=workspace), member, x)
        scorer.result()
    assert workspace._buffers.keys() == made.keys()
    assert all(workspace._buffers[key] is buf for key, buf in made.items())


@pytest.mark.parametrize("call", ["forward", "mean_loss", "ensemble_predict"])
def test_a_helper_tile_error_reaches_the_caller_unchanged(call):
    spec = nn.LayerSpec((32, 128, 128, 8))
    members, x, labels = model_and_data(spec, 4 * TILE, 2)
    original = nn._dense

    def failing(*args):
        if threading.current_thread().name == "pfge-layer-half":
            raise Injected("a helper tile failed")
        return original(*args)

    calls = {
        "forward": lambda helper: nn.forward(members[0], x, helper=helper),
        "mean_loss": lambda helper: nn.mean_loss(members[0], x, labels, helper=helper),
        "ensemble_predict": lambda helper: ensemble_predict(
            EnsembleSet(members, (1, 2)), x, helper=helper),
    }
    threads = threading.active_count()
    with blas_threads(1), mock.patch.object(nn, "_dense", failing), \
            pytest.raises(Injected) as caught, \
            nn._split_helper(spec, len(x)) as helper:
        assert helper is not None
        calls[call](helper)
    assert type(caught.value) is Injected
    assert str(caught.value) == "a helper tile failed"
    assert threading.active_count() == threads


@contextmanager
def dense_calls(fail_on_helper=False):
    """Record ``(thread name, output width, live threads)`` for every
    ``nn._dense`` call; with ``fail_on_helper``, the helper's tiles raise."""
    calls, original = [], nn._dense

    def recording(h, W, *args):
        thread = threading.current_thread()
        calls.append((thread.name, W.shape[1], threading.active_count()))
        if fail_on_helper and thread.name == "pfge-layer-half":
            raise Injected("the second half failed")
        return original(h, W, *args)

    with mock.patch.object(nn, "_dense", recording):
        yield calls


def splits(calls) -> int:
    return sum(name == "pfge-layer-half" for name, _, _ in calls)


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """An fge run of the "wide" golden model, at one BLAS thread: a 256x256
    layer on 1,024 test rows, two row tiles of 512, and 48 train rows,
    which no forward tiles."""
    doc = golden_doc(tmp_path_factory.mktemp("wide"), "wide", "fge")
    doc.update(json.loads(json.dumps(CURVE_VARIANTS["wide"])))
    cfg = config_from_dict(doc)
    with blas_threads(1):
        w0 = harness.pretrain(cfg)
        with dense_calls() as calls:
            harness.run(cfg, w0)
    return cfg, calls


def by_thread(calls) -> dict:
    """The output widths of each thread's ``nn._dense`` calls, in order."""
    widths = {}
    for name, fan_out, _ in calls:
        widths.setdefault(name, []).append(fan_out)
    return widths


# A test forward of the "wide" model: the two 256-wide layers tile by tile,
# then the 2-wide output layer whole. Halved, each half is one tile.
TWO_TILES = [256, 256, 256, 256, 2]


def test_member_scorer_never_splits(wide_run):
    cfg, calls = wide_run
    # Beside the main thread's training steps, four members' test forwards,
    # all on the scorer's thread, in tiles there.
    assert set(by_thread(calls)) == {"MainThread", "pfge-member-scorer"}
    assert by_thread(calls)["pfge-member-scorer"] == TWO_TILES * 4


def test_evaluate_and_connectivity_split_and_join(wide_run):
    cfg, _ = wide_run
    threads = threading.active_count()
    with blas_threads(1), dense_calls() as calls:
        harness.evaluate(cfg)
    # Three members: the helper takes the second tile, the main thread the
    # first and then the output layer.
    assert by_thread(calls) == {"MainThread": [256, 256, 2] * 3,
                                "pfge-layer-half": [256, 256] * 3}
    assert max(live for _, _, live in calls) == threads + 1
    assert threading.active_count() == threads
    with blas_threads(1), dense_calls() as calls:
        harness.connectivity_run(cfg)
    # The endpoint thread runs each endpoint's train forward whole and its
    # test forward in tiles on its own; the helper takes the second tile of
    # the three interior points' test forwards.
    assert by_thread(calls)["pfge-endpoint-scorer"] == ([256, 256, 2] + TWO_TILES) * 2
    assert by_thread(calls)["pfge-layer-half"] == [256, 256] * 3
    assert max(live for _, _, live in calls) == threads + 1
    assert threading.active_count() == threads


def test_helper_error_reaches_the_caller_unchanged(wide_run):
    cfg, _ = wide_run
    test = harness.load_split(cfg, "test", harness.load_checkpoint(cfg.w0_path).standardization)
    member = harness.load_checkpoint(harness.member_checkpoint_paths(cfg.run_dir)[0]).weights
    threads = threading.active_count()
    with blas_threads(1), dense_calls(fail_on_helper=True), pytest.raises(Injected) as caught, \
            nn._split_helper(member.spec, len(test)) as helper:
        ensemble_predict(EnsembleSet((member,), (1,)), test.inputs, helper=helper)
    assert type(caught.value) is Injected
    assert str(caught.value) == "the second half failed"
    assert threading.active_count() == threads


@pytest.mark.parametrize("verb", [harness.evaluate, harness.connectivity_run])
def test_a_failed_half_leaves_no_thread(wide_run, verb):
    cfg, _ = wide_run
    threads = threading.active_count()
    with blas_threads(1), dense_calls(fail_on_helper=True), pytest.raises(Injected):
        verb(cfg)
    assert threading.active_count() == threads


def test_public_calls_stay_on_the_callers_thread(wide_run):
    # ``ensemble_predict`` and ``profile_curve`` share their tiles only with
    # a helper their caller hands them, and on one thread they give the same
    # bits.
    cfg, _ = wide_run
    stats = harness.load_checkpoint(cfg.w0_path).standardization
    train, test = harness.load_split(cfg, "train", stats), harness.load_split(cfg, "test", stats)
    members = tuple(harness.load_checkpoint(p).weights
                    for p in harness.member_checkpoint_paths(cfg.run_dir))
    ensemble = EnsembleSet(members, tuple(range(1, len(members) + 1)))
    curve = connectivity.initial_curve(members[0], members[1], 2)
    grid = np.linspace(0.0, 1.0, 5)
    workspace = connectivity._profile_workspace(cfg.model_spec, train, test)
    threads = threading.active_count()
    with blas_threads(1):
        with dense_calls() as calls:
            probs = ensemble_predict(ensemble, test.inputs)[0]
            profile = connectivity.profile_curve(curve, len(grid), train, test)
        assert {(name, live) for name, _, live in calls} == {("MainThread", threads)}
        with dense_calls() as calls, nn._split_helper(cfg.model_spec, len(test)) as helper:
            split_probs = ensemble_predict(ensemble, test.inputs, helper=helper)[0]
            split_scores = connectivity._sweep(curve, grid, train, test, 0.0, workspace, helper)
    # Each test forward puts its second tile of both hidden layers there.
    assert splits(calls) == 2 * (len(members) + len(grid))
    assert probs.tobytes() == split_probs.tobytes()
    assert profile.train_loss.tobytes() == np.array([s[0] for s in split_scores]).tobytes()
    assert profile.test_error.tobytes() == np.array([s[1] for s in split_scores]).tobytes()
