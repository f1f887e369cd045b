"""``harness.run`` records the cyclical trajectory that sgd, swa and fge share
in ``{output_dir}/trajectory-cache/``, and pfge forks from it. Whatever
order the algorithms run in, every file of every run directory has the
bytes of a cold run's. A damaged or mismatched record, or one of another
trajectory, is a miss that retrains, never an error; a record that cannot
be written fails no run; a run that fails leaves none; and the work a warm
run skips is counted in training steps and batch gathers. The fork rests on
two identities checked on their own: a batch stream after k batches is its
tail, and ``_drive`` resumed at a period end continues the run it left."""

import errno
import io
import itertools
import shutil
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blas_threads
from pfge import files, harness, nn, training
from pfge.checkpoint import Checkpoint
from pfge.config import config_from_dict
from pfge.data import batches, gen_blobs, gen_two_spirals, save_csv
from pfge.errors import NumericError
from pfge.training import MomentumState
from test_golden import golden_doc
from test_helper_threads import tiling_doc
from test_serial_twin import TIMESTAMPS

ALGORITHMS = ("sgd", "swa", "fge", "pfge")


def variant_doc(root: Path, variant: str, algorithm: str, **updates) -> dict:
    """A golden variant, or ``tiling_doc``'s model with pfge's one period
    the whole budget, writing its runs to ``root/runs`` from the w0 at
    ``root/w0.ckpt``. "relu" and "wide" train 20 iterations in cycles of 5,
    pfge recording every 10; "tiling" 16 in cycles of 8."""
    if variant == "tiling":
        doc = dict(tiling_doc(root / "runs"), algorithm=algorithm,
                   budget={"total_epochs": 2, "record_epochs": 2})
    else:
        doc = golden_doc(root / "runs", variant, algorithm)
    doc["w0_checkpoint"] = str(root / "w0.ckpt")
    doc.update(updates)
    return doc


def run_files(cfg) -> dict:
    """Every file of ``cfg``'s run directory by name, timestamps blanked."""
    return {path.name: TIMESTAMPS.sub(b"", path.read_bytes())
            for path in sorted(cfg.run_dir.iterdir()) if path.is_file()}


def record_files(cfg) -> list:
    """The names of the files in ``cfg``'s trajectory record directory."""
    directory = cfg.output_dir / harness._TRAJECTORY_CACHE_DIR
    return sorted(path.name for path in directory.iterdir()) if directory.is_dir() else []


@contextmanager
def work_counts():
    """Count the training steps (``nn._GradStep`` calls) and the batch
    gathers (``data.Batch._take`` calls) made in the block."""
    counts = {"steps": 0, "gathers": 0}
    step, take = nn._GradStep.__call__, nn.Batch._take.__func__

    def counted_step(self, batch):
        counts["steps"] += 1
        return step(self, batch)

    def counted_take(cls, *args):
        counts["gathers"] += 1
        return take(cls, *args)

    with mock.patch.object(nn._GradStep, "__call__", counted_step), \
            mock.patch.object(nn.Batch, "_take", classmethod(counted_take)):
        yield counts


class Variants:
    """Each variant's w0, pretrained once, and its cold runs' files."""

    def __init__(self, root: Path):
        self.root, self._w0, self._cold = root, {}, {}

    def config(self, variant: str, algorithm: str, **updates):
        return config_from_dict(variant_doc(self.root / variant, variant, algorithm, **updates))

    def w0(self, variant: str) -> Checkpoint:
        if variant not in self._w0:
            self._w0[variant] = harness.pretrain(self.config(variant, "fge"))
        return self._w0[variant]

    def fresh(self, variant: str) -> None:
        shutil.rmtree(self.root / variant / "runs", ignore_errors=True)

    def cold(self, variant: str, algorithm: str, w0=None, **updates) -> dict:
        """The files of a run of ``algorithm`` in a fresh output_dir."""
        self.fresh(variant)
        cfg = self.config(variant, algorithm, **updates)
        harness.run(cfg, w0 or self.w0(variant))
        files_written = run_files(cfg)
        self.fresh(variant)
        return files_written

    def cold_runs(self, variant: str) -> dict:
        if variant not in self._cold:
            self._cold[variant] = {algorithm: self.cold(variant, algorithm)
                                   for algorithm in ALGORITHMS}
        return self._cold[variant]


@pytest.fixture(scope="module")
def variants(tmp_path_factory):
    return Variants(tmp_path_factory.mktemp("record"))


@pytest.fixture(autouse=True)
def one_blas_thread():
    with blas_threads(1):
        yield


# Iterations of "relu" and "wide" (n) and pfge's recording period (P).
N, P = 20, 10


@settings(max_examples=12)
@given(variant=st.sampled_from(["relu", "wide", "tiling"]), order=st.permutations(ALGORITHMS))
def test_outputs_do_not_depend_on_the_record(variants, variant, order):
    cold, w0 = variants.cold_runs(variant), variants.w0(variant)
    n = 16 if variant == "tiling" else N
    period = n if variant == "tiling" else P
    variants.fresh(variant)
    with work_counts() as counts:
        for algorithm in order:
            harness.run(variants.config(variant, algorithm), w0)
    for algorithm in ALGORITHMS:
        assert run_files(variants.config(variant, algorithm)) == cold[algorithm], algorithm
    # The first of sgd, swa and fge trains and records; pfge forks from the
    # record if one came before it.
    recorder = min(order.index(algorithm) for algorithm in ("sgd", "swa", "fge"))
    assert counts["steps"] == n + (n - period if order.index("pfge") > recorder else n)


def warm(variants, variant: str = "relu"):
    """A fresh ``variant`` output_dir holding the record of an fge run;
    returns that run's config."""
    variants.fresh(variant)
    cfg = variants.config(variant, "fge")
    harness.run(cfg, variants.w0(variant))
    key = harness._trajectory_key(cfg, variants.w0(variant), cfg.resolve_schedule(5), N)
    assert record_files(cfg) == [f"{key}.f64", f"{key}.json"]
    return cfg


def record_paths(cfg) -> tuple:
    (payload,) = (cfg.output_dir / harness._TRAJECTORY_CACHE_DIR).glob("*.f64")
    return payload, payload.with_suffix(".json")


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def truncate(payload: Path, sidecar: Path) -> None:
    payload.write_bytes(payload.read_bytes()[:-8])


def flip_in_a_row(payload: Path, sidecar: Path) -> None:
    # A byte of the third of four rows' velocity, which no run uses but to
    # check it.
    flip_byte(payload, payload.stat().st_size // 4 * 3 - 3)


def edit_train_digest(payload: Path, sidecar: Path) -> None:
    text = sidecar.read_text()
    digest = files._parse_json(text)["train"]
    sidecar.write_text(text.replace(digest, digest[::-1]))


def edit_row_digest(payload: Path, sidecar: Path) -> None:
    text = sidecar.read_text()
    rows = files._parse_json(text)["rows"]
    sidecar.write_text(text.replace(rows[1], rows[2]))


def garble_sidecar(payload: Path, sidecar: Path) -> None:
    sidecar.write_bytes(b"\xff{")


def delete_sidecar(payload: Path, sidecar: Path) -> None:
    sidecar.unlink()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("damage", [truncate, flip_in_a_row, edit_train_digest, edit_row_digest,
                                    garble_sidecar, delete_sidecar])
def test_a_damaged_record_is_a_miss(variants, damage, algorithm):
    cold = variants.cold_runs("relu")[algorithm]
    cfg = warm(variants)
    damage(*record_paths(cfg))
    cfg = variants.config("relu", algorithm)
    with work_counts() as counts:
        harness.run(cfg, variants.w0("relu"))
    assert counts["steps"] == N
    assert run_files(cfg) == cold
    # A miss of sgd, swa or fge writes the record again; pfge writes none.
    with work_counts() as counts:
        harness.run(variants.config("relu", "fge"), variants.w0("relu"))
    assert counts["steps"] == (N if algorithm == "pfge" else 0)


@pytest.mark.parametrize("algorithm", ["fge", "pfge"])
@pytest.mark.parametrize("updates, steps", [
    # The same train split: the generated one would otherwise follow the seed.
    ({"seed": 12, "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                              "test_n_per_class": 30, "seed": 11}}, N),
    # Four iterations per epoch.
    ({"batch_size": 12}, 16),
    ({"schedule": {"alpha1": 0.09, "alpha2": 0.005, "cycle_epochs": 1}}, N)],
    ids=["seed", "batch_size", "alpha1"])
def test_another_trajectory_is_a_miss(variants, updates, steps, algorithm):
    cold = variants.cold("relu", algorithm, **updates)
    warm(variants)
    cfg = variants.config("relu", algorithm, **updates)
    with work_counts() as counts:
        harness.run(cfg, variants.w0("relu"))
    assert counts["steps"] == steps
    assert run_files(cfg) == cold


@pytest.mark.parametrize("algorithm", ["fge", "pfge"])
def test_another_w0_is_a_miss(variants, algorithm):
    w0 = variants.w0("relu")
    other = Checkpoint(nn.ModelWeights(w0.spec, w0.weights.values * 0.5), w0.standardization)
    cold = variants.cold("relu", algorithm, w0=other)
    warm(variants)
    cfg = variants.config("relu", algorithm)
    with work_counts() as counts:
        harness.run(cfg, other)
    assert counts["steps"] == N
    assert run_files(cfg) == cold


@pytest.mark.parametrize("algorithm", ["fge", "pfge"])
def test_another_blas_thread_count_is_a_miss(variants, algorithm):
    with blas_threads(2):
        cold = variants.cold("relu", algorithm)
    warm(variants)
    cfg = variants.config("relu", algorithm)
    with blas_threads(2), work_counts() as counts:
        harness.run(cfg, variants.w0("relu"))
    assert counts["steps"] == N
    assert run_files(cfg) == cold


def test_another_train_split_is_a_miss(tmp_path):
    # The same config and w0 over changed train CSV bytes: the sidecar's
    # digest of the standardized split no longer matches.
    centers = [[0.0, 1.0], [2.0, -1.0]]
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(gen_blobs(centers, 24, 1.0, seed=1), train)
    save_csv(gen_blobs(centers, 15, 1.0, seed=2), test)
    doc = dict(variant_doc(tmp_path, "relu", "fge"),
               dataset={"kind": "csv", "train_path": str(train), "test_path": str(test)})
    cfg = config_from_dict(doc)
    w0 = harness.pretrain(cfg)
    harness.run(cfg, w0)
    save_csv(gen_blobs(centers, 24, 1.0, seed=3), train)
    with work_counts() as counts:
        harness.run(cfg, w0)
    changed = run_files(cfg)
    assert counts["steps"] == N
    shutil.rmtree(cfg.output_dir)
    harness.run(cfg, w0)
    assert run_files(cfg) == changed


@contextmanager
def failing_opens(directory: Path, fail):
    """Files opened for writing in ``directory`` go through ``fail(path,
    file)``, which may raise or return a stand-in for the file."""
    real_open = open

    def opening(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if "w" in mode and Path(path).parent == directory:
            return fail(path, handle)
        return handle

    with mock.patch.object(files, "open", opening, create=True):
        yield


def denied(path, handle):
    handle.close()
    Path(path).unlink()
    raise PermissionError(errno.EACCES, "Permission denied", str(path))


class FullDisk(io.RawIOBase):
    """A file whose third write fails as a full disk's does."""

    def __init__(self, handle):
        self.handle, self.count = handle, 0

    def write(self, data):
        self.count += 1
        if self.count > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(data)

    def close(self):
        self.handle.close()
        super().close()


@pytest.mark.parametrize("fail", ["read-only", "not a directory", "full disk"])
def test_a_record_that_cannot_be_written_fails_no_run(variants, fail):
    cold = variants.cold_runs("relu")["fge"]
    variants.fresh("relu")
    cfg = variants.config("relu", "fge")
    directory = cfg.output_dir / harness._TRAJECTORY_CACHE_DIR
    directory.parent.mkdir(parents=True)
    if fail == "not a directory":
        directory.write_bytes(b"")
        stand_in = denied
    else:
        directory.mkdir()
        # Permission bits bind no root process, so its opens fail here too.
        directory.chmod(0o555)
        stand_in = denied if fail == "read-only" else lambda path, handle: FullDisk(handle)
    try:
        for _ in range(2):
            with failing_opens(directory, stand_in), work_counts() as counts:
                harness.run(cfg, variants.w0("relu"))
            assert counts["steps"] == N
            assert run_files(cfg) == cold
            assert record_files(cfg) == []
    finally:
        if directory.is_dir():
            directory.chmod(0o755)


def test_a_failed_run_leaves_no_record(variants):
    variants.fresh("relu")
    cfg = variants.config("relu", "fge", schedule={"alpha1": 1e50, "alpha2": 1.0,
                                                   "cycle_epochs": 1})
    with pytest.raises(NumericError):
        harness.run(cfg, variants.w0("relu"))
    assert record_files(cfg) == []


def test_pfge_writes_no_record(variants):
    variants.fresh("relu")
    cfg = variants.config("relu", "pfge")
    harness.run(cfg, variants.w0("relu"))
    assert record_files(cfg) == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_warm_run_counts_its_work(variants, algorithm):
    # A cold run makes n steps from n gathers; a warm sgd, swa or fge none,
    # and a warm pfge the n - P after its fork.
    variants.fresh("relu")
    w0 = variants.w0("relu")
    with work_counts() as cold:
        harness.run(variants.config("relu", algorithm), w0)
    assert cold == {"steps": N, "gathers": N}
    warm(variants)
    threads = threading.active_count()
    with work_counts() as counts:
        harness.run(variants.config("relu", algorithm), w0)
    expected = N - P if algorithm == "pfge" else 0
    assert counts == {"steps": expected, "gathers": expected}
    assert threading.active_count() == threads


@pytest.mark.parametrize("variant", ["wide", "tiling"])
def test_a_hit_leaves_no_thread_behind(variants, variant):
    # Where the test split's forwards tile, a hit scores with a helper.
    variants.fresh(variant)
    w0 = variants.w0(variant)
    harness.run(variants.config(variant, "fge"), w0)
    threads = threading.active_count()
    for algorithm in ("sgd", "swa", "fge"):
        with work_counts() as counts:
            harness.run(variants.config(variant, algorithm), w0)
        assert counts["steps"] == 0
        assert threading.active_count() == threads


def test_the_record_holds_every_cycle_end(variants):
    # Row k is the iterate and then the velocity at iteration 5(k + 1): the
    # iterates are fge's members.
    cfg = warm(variants)
    payload, _ = record_paths(cfg)
    rows = np.fromfile(payload).reshape(N // 5, 2, cfg.model_spec.param_count)
    members = harness.member_checkpoint_paths(cfg.run_dir)
    assert [row[0].tobytes() for row in rows] == [path.read_bytes() for path in members]


@given(batch_size=st.integers(1, 48), skipped=st.integers(0, 30))
def test_a_stream_after_some_batches_is_its_tail(batch_size, skipped):
    stream = batches(gen_two_spirals(24, 0.1, 3), batch_size, 5)
    full = list(itertools.islice(stream, skipped + 12))
    with work_counts() as counts:
        tail = list(itertools.islice(stream._after(skipped), 12))
    assert counts["gathers"] == 12
    assert [(b.inputs.tobytes(), b.labels.tobytes()) for b in tail] == [
        (b.inputs.tobytes(), b.labels.tobytes()) for b in full[skipped:]]


@given(cycle_len=st.integers(2, 4), cycles=st.integers(1, 3), periods=st.integers(2, 3),
       batch_size=st.integers(7, 20))
def test_a_drive_resumed_at_a_period_end_is_the_same_run(cycle_len, cycles, periods,
                                                         batch_size):
    # pfge's fork, whatever the period's place in an epoch: the weights and
    # velocity at the first period end and the stream after it give the
    # later members of an uninterrupted run.
    period, ds = cycle_len * cycles, gen_two_spirals(24, 0.1, 3)
    n, w0 = period * periods, nn.init_model(nn.LayerSpec((2, 8, 2)), 3)
    stream = batches(ds, batch_size, 5)
    velocities = []
    whole, _ = training._drive(w0, MomentumState.initial(w0), stream, n, lambda i: 0.05 / i,
                               cycle_len, period, True,
                               on_cycle_end=lambda w, v: velocities.append(v.copy()))
    first = whole.members[0]
    resumed, trace = training._drive(
        first, MomentumState(velocities[cycles - 1], 0.9, 5e-4), stream._after(period), n,
        lambda i: 0.05 / i, cycle_len, period, True, start=period)
    assert resumed.recorded_at == whole.recorded_at[1:]
    assert [m.values.tobytes() for m in resumed.members] == [
        m.values.tobytes() for m in whole.members[1:]]
    assert trace.iterations.tolist() == list(range(period + 1, n + 1))
