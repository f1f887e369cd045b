"""Experiment orchestration: pretraining, algorithm runs, evaluation,
connectivity analysis, and report emission.

Each CLI verb is one call here on its config: ``pretrain``, ``run``,
``evaluate``, ``connectivity_run`` and ``load_report``. Every verb gets its
data from ``load_split``, one split at a time, checked against the model and
standardized there with the checkpoint's statistics, in the array the loader
returned, so no verb holds a raw split next to its standardized copy.

The verbs are the only code that starts a thread, and each has at most one
background thread alive at a time: ``run`` its member scorer,
``connectivity_run`` its endpoint scorer and then a helper for the curve's
interior points, ``pretrain`` a helper for its train-accuracy forward after
training, and ``evaluate`` a helper for its forwards (see
``nn._split_helper``). Every training loop runs on the main thread. A
forward over enough rows runs in row tiles, half of them on the verb's
helper, or all on the scorer's own thread (see ``nn.forward``).

Directory layout per run: ``{output_dir}/{run_id}/member-{idx}.ckpt`` plus
``report.json`` and CSV side-files; parsed CSV splits are cached in
``{output_dir}/split-cache/``, and ``run``'s cyclical trajectories in
``{output_dir}/trajectory-cache/``: ``{key}.f64`` holds the iterate and the
velocity of every cycle end as raw float64 rows, and ``{key}.json`` the
SHA-256 of the standardized train split and of each row (see
``_trajectory_key``). Every file is written and read through ``files``.
"""

import ctypes
import hashlib
import os
import re
import shutil
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import metrics, nn
from .checkpoint import Checkpoint, header_path, load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    _schema_violation,
    iterations_per_epoch,
    validate_against_schema,
)
from .connectivity import (  # noqa: F401
    CurveProfile,
    _point_scores,
    _profile_workspace,
    _sweep,
    initial_curve,
    mc_value,
    profile_curve,
    train_curve,
)
from .data import (  # noqa: F401
    Dataset,
    _standardize_in_place,
    apply_standardization,
    batches,
    feature_stats,
    gen_blobs,
    gen_two_spirals,
    load_csv,
    load_idx,
)
from .errors import ConfigurationError, DataFormatError, InvalidArgumentError, NumericError
from .files import json_text, read_json, replacing, write_csv, write_json
# ``apply_standardization``, ``ece``, ``loss_and_grad``, ``sgd_step``,
# ``mc_value``, ``profile_curve``, ``run_swa``, ``run_fge`` and ``run_pfge``
# are not called here, but stay importable from this module for callers (and
# perfbench's tracer) that look them up here.
from .metrics import PredictionBatch, accuracy, ece, nll, reliability  # noqa: F401
from .nn import LayerSpec, ModelWeights, _BackgroundThread, init_model, loss_and_grad  # noqa: F401
from .rng import STREAM_CURVE, stream_rng
from .schedule import LrSchedule, lr_at
from .training import (  # noqa: F401
    EnsembleSet,
    MomentumState,
    _accumulate,
    _collection_rule,
    _drive,
    _fold,
    ensemble_predict,
    run_fge,
    run_pfge,
    run_swa,
    sgd_step,
)


# What ``evaluate`` and ``connectivity_run`` write into a run directory.
# Both describe that run's members, so ``run`` deletes them.
EVALUATION_JSON = "evaluation.json"
EVALUATION_RELIABILITY_CSV = "evaluation_reliability.csv"
CONNECTIVITY_DIR = "connectivity"
# Parsed CSV splits, under ``output_dir``, shared by every verb and run there.
# IDX and generated splits are not cached: converting IDX bytes costs less
# than reading back a float64 copy, and the generators take microseconds.
SPLIT_CACHE_DIR = "split-cache"
# The cycle ends of ``run``'s trajectories, under ``output_dir``: sgd, swa and
# fge follow one trajectory, and pfge follows it up to its first period end.
_TRAJECTORY_CACHE_DIR = "trajectory-cache"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def load_split(cfg: ExperimentConfig, split: str,
               standardization: Optional[dict] = None) -> Dataset:
    """Materialize one split (``"train"`` or ``"test"``) named by the config
    and check it against the model's input width and class count, so a
    mismatched file fails before any training. Given a checkpoint's
    ``standardization`` statistics, return only the standardized split.
    CSV splits go through the parsed-split cache in ``SPLIT_CACHE_DIR``."""
    if split not in ("train", "test"):
        raise InvalidArgumentError(f"split must be 'train' or 'test', got {split!r}")
    ds = cfg.dataset
    kind = ds["kind"]
    # Generated splits differ only in size and seed: ``n_per_class``/``seed``
    # for train, ``test_n_per_class``/``test_seed`` for test.
    tag = "" if split == "train" else "test_"
    if kind == "two_spirals":
        data = gen_two_spirals(ds[f"{tag}n_per_class"], ds["noise_sd"], ds[f"{tag}seed"])
    elif kind == "blobs":
        data = gen_blobs(ds["centers"], ds[f"{tag}n_per_class"], ds["sd"], ds[f"{tag}seed"])
    elif kind == "csv":
        data = load_csv(ds[f"{split}_path"], cfg.output_dir / SPLIT_CACHE_DIR)
    else:
        data = load_idx(ds[f"{split}_images"], ds[f"{split}_labels"])
    spec = cfg.model_spec
    if data.n_features != spec.sizes[0]:
        raise ConfigurationError(
            f"{split} split {data.name}: dataset has {data.n_features} features but "
            f"the model expects {spec.sizes[0]} inputs"
        )
    if data.classes > spec.n_classes:
        raise ConfigurationError(
            f"{split} split {data.name}: dataset has {data.classes} classes but the "
            f"model has {spec.n_classes} outputs"
        )
    if standardization is None:
        return data
    return _standardize_in_place(data, standardization["mean"], standardization["std"])


def _pretrain_lr_factor(progress: float) -> float:
    # Constant, then linear decay between 50% and 90% of the budget, then
    # constant at 1% of the base rate.
    if progress < 0.5:
        return 1.0
    if progress < 0.9:
        return 1.0 - 0.99 * (progress - 0.5) / 0.4
    return 0.01


def pretrain(cfg: ExperimentConfig) -> Checkpoint:
    """Train the shared starting point with decaying-LR SGD and save it.

    Feature standardization statistics are computed on the training split
    here and stored in the checkpoint; every later phase reuses them. The
    training loop runs on the main thread; the train-accuracy forward after
    it shares its row tiles with a helper thread where they tile. Weights
    whose train-accuracy forward is not finite raise ``NumericError``, and
    no checkpoint is written.
    """
    train = load_split(cfg, "train")
    mean, std = feature_stats(train)
    train = _standardize_in_place(train, mean, std)
    settings = cfg.pretrain
    e = iterations_per_epoch(len(train), cfg.batch_size)
    total = cfg.resolve_pretrain(e)
    w_init = init_model(cfg.model_spec, cfg.seed)
    opt = MomentumState.initial(w_init, settings["momentum"], settings["weight_decay"])
    final, _ = _drive(w_init, opt, batches(train, cfg.batch_size, cfg.seed), total,
                      lambda i: settings["lr"] * _pretrain_lr_factor((i - 1) / total),
                      total, total, l2_coeff=settings["l2_coeff"])
    # Finite weights can still overflow in a forward over the whole split.
    with np.errstate(all="ignore"), nn._split_helper(cfg.model_spec, len(train)) as helper:
        train_probs, train_preds = ensemble_predict(final, train.inputs, helper=helper)
    if not np.all(np.isfinite(train_probs)):
        raise NumericError("the pretrained weights give non-finite outputs on the train split")
    ckpt = Checkpoint(
        weights=final.members[0],
        standardization={"mean": mean.tolist(), "std": std.tolist()},
        meta={
            "role": "w0",
            "seed": cfg.seed,
            "epochs": settings["epochs"],
            "final_train_accuracy": float(np.mean(train_preds == train.labels)),
            "created_at": _now(),
        },
    )
    save_checkpoint(cfg.w0_path, ckpt)
    return ckpt


def _metrics_record(probs: np.ndarray, labels: np.ndarray, ece_bins: int,
                    reliability_csv=None, metric_fns=None) -> dict:
    """Accuracy, NLL and ECE of ``probs``; the reliability bins behind the ECE
    are written to ``reliability_csv`` when one is given. ``metric_fns`` is the
    ``(accuracy, nll, reliability)`` to call, by default this module's."""
    accuracy_of, nll_of, reliability_of = metric_fns or (accuracy, nll, reliability)
    p = PredictionBatch(probs, labels)
    bins = reliability_of(p, ece_bins)
    if reliability_csv is not None:
        bins.write_csv(reliability_csv)
    raw_nll = nll_of(p)
    return {
        "accuracy": accuracy_of(p),
        "nll": raw_nll,
        "nll_pct": 100.0 * raw_nll,
        "ece": bins.ece_value(),
    }


class _MemberScorer:
    """Scores a run's members on the test split, one ``score`` call per
    member in collection order. For each member it records the member's
    metrics and those of the ensemble of the members so far, and it sums the
    softmax outputs of the last ``cfg.last_k`` members (all, if unset) into
    ``ensemble_sum``. The sums keep ``ensemble_predict``'s order
    ``p_a + p_{a+1} + ...`` then ``/ n``, so every number matches it bit for
    bit. It reads only the frozen members and the test split and calls
    ``nn`` and ``metrics`` directly, so it may run on a ``_BackgroundThread``."""

    def __init__(self, cfg: ExperimentConfig, test: Dataset, n_members: int):
        self._inputs, self._first = test.inputs, n_members - (cfg.last_k or n_members)
        self._record = partial(_metrics_record, labels=test.labels, ece_bins=cfg.ece_bins,
                               metric_fns=(metrics.accuracy, metrics.nll, metrics.reliability))
        self._workspace = nn._Workspace(cfg.model_spec, len(test))
        self.members, self.series = [], []
        self.ensemble_sum = self._prob_sum = None
        # A helper thread to share each forward's row tiles with, for a
        # scorer that runs on the main thread.
        self.helper = None

    def score(self, member: ModelWeights) -> None:
        probs = nn._softmax_inplace(nn.forward(member, self._inputs, workspace=self._workspace,
                                               helper=self.helper))
        self.members.append(self._record(probs))
        self._prob_sum = _accumulate(self._prob_sum, probs)
        self.series.append(self._record(self._prob_sum / len(self.members)))
        if self._first == 0:
            self.ensemble_sum = self._prob_sum
        elif len(self.members) > self._first:
            self.ensemble_sum = _accumulate(self.ensemble_sum, probs)


def _trajectory_key(cfg: ExperimentConfig, w0: Checkpoint, sched: LrSchedule,
                    total_iters: int) -> str:
    """The SHA-256 (hex) of what ``run``'s trajectory depends on besides its
    train split: the w0 payload and standardization, the schedule, budget,
    batch size, seed, optimizer and model, numpy's version and OpenBLAS's
    kernel and thread count. A recording period is not part of it."""
    core, threads = nn._openblas("get_corename", ctypes.c_char_p), nn._openblas("get_num_threads")
    spec = cfg.model_spec
    digest = hashlib.sha256(json_text({
        "standardization": w0.standardization,
        "schedule": [sched.alpha1, sched.alpha2, sched.cycle_len],
        "total_iters": total_iters,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "optimizer": cfg.optimizer,
        "model": [list(spec.sizes), spec.activation],
        "numpy": np.__version__,
        "blas": [core and core().decode(), threads and threads()],
    }).encode())
    digest.update(w0.weights.values)
    return digest.hexdigest()


def _split_digest(split: Dataset) -> str:
    """The SHA-256 (hex) of a split's shape, inputs and labels, hashed in place."""
    digest = hashlib.sha256(repr(split.inputs.shape).encode())
    digest.update(np.ascontiguousarray(split.inputs))
    digest.update(np.ascontiguousarray(split.labels))
    return digest.hexdigest()


def _recorded_trajectory(entry: Path, train: Dataset, spec: LayerSpec, n_rows: int,
                         velocity_row: int):
    """The ``n_rows`` cycle-end iterates recorded at ``entry`` and the velocity
    of row ``velocity_row``, or None where the record is missing or
    unreadable, was trained on another split, or any row differs from its
    SHA-256. The split is hashed only once the sidecar has been read."""
    size = spec.param_count
    row = np.empty(2 * size)
    iterates, velocity = [], None
    try:
        sidecar = read_json(entry.with_suffix(".json"), ValueError, "trajectory record")
        rows = sidecar["rows"] if isinstance(sidecar, dict) else None
        if not (isinstance(rows, list) and len(rows) == n_rows and len(sidecar) == 2
                and sidecar["train"] == _split_digest(train)):
            return None
        with open(entry.with_suffix(".f64"), "rb") as fh:
            if os.fstat(fh.fileno()).st_size != n_rows * row.nbytes:
                return None
            for idx, expected in enumerate(rows):
                if fh.readinto(row) != row.nbytes or hashlib.sha256(row).hexdigest() != expected:
                    return None
                iterates.append(ModelWeights(spec, row[:size]))
                if idx == velocity_row:
                    velocity = row[size:].copy()
    except (OSError, ValueError, KeyError):
        return None
    return iterates, velocity


class _RowWriter:
    """``_drive``'s ``on_cycle_end`` for a run that records its trajectory:
    writes each cycle end's iterate and velocity to ``fh`` as one raw float64
    row and keeps the row's SHA-256, hashing both in place. A failed write
    is kept in ``error``, and nothing more is written."""

    def __init__(self, fh):
        self.fh, self.rows, self.error = fh, [], None

    def __call__(self, w: np.ndarray, velocity: np.ndarray) -> None:
        if self.error is not None:
            return
        try:
            self.fh.write(w)
            self.fh.write(velocity)
        except OSError as exc:
            self.error = exc
            return
        digest = hashlib.sha256(w)
        digest.update(velocity)
        self.rows.append(digest.hexdigest())


def _recording(entry: Path, train: Dataset, drive):
    """``drive(on_cycle_end=...)``'s result. A ``_RowWriter`` streams the
    rows of the record at ``entry`` into a ``replacing`` temp file; only if
    the loop ends without error is the file renamed into place and its
    sidecar written. A record that cannot be written is dropped, and the
    run goes on."""
    writer = result = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with replacing(entry.with_suffix(".f64")) as fh:
            writer = _RowWriter(fh)
            result = drive(on_cycle_end=writer)
            if writer.error is not None:
                raise writer.error
        write_json(entry.with_suffix(".json"),
                   {"train": _split_digest(train), "rows": writer.rows})
    except OSError:
        if writer is None:
            return drive()
        if result is None:
            raise
    return result


def _replayed(algo: str, w0: ModelWeights, iterates: list, cycle_len: int, period: int):
    """``algo``'s members and their iterations, taken from the cycle-end
    ``iterates`` of the trajectory from ``w0``: sgd's is the last, swa's the
    average of ``w0`` and all of them, fge's each of them, and pfge's first
    member the average of ``w0`` and those up to ``period``."""
    if algo == "fge":
        return iterates, [cycle_len * (idx + 1) for idx in range(len(iterates))]
    if algo == "sgd":
        return iterates[-1:], [cycle_len * len(iterates)]
    avg = w0.values.copy()
    for n_models, iterate in enumerate(iterates[:period // cycle_len], start=1):
        _fold(avg, n_models, iterate.values)
    return [ModelWeights(w0.spec, avg)], [period]


def run(cfg: ExperimentConfig, w0: Checkpoint):
    """Train the configured algorithm, persist members, write the report.
    Each member is scored on the test split by a ``_MemberScorer`` on a
    ``_BackgroundThread`` as soon as it is collected, while training goes on
    whole on the main thread: the second core is the scorer's alone, and the
    scorer's forwards run in row tiles there where they tile.

    sgd, swa and fge follow one cyclical trajectory, which a run of one of
    them records under ``_TRAJECTORY_CACHE_DIR`` (see ``_recording``). Given
    such a record of the same trajectory (``_trajectory_key``) and train
    split, they train nothing: their members come from its iterates and are
    scored on the main thread, sharing their row tiles with a helper. pfge
    takes its first member from the record and trains on from there, with
    the velocity recorded at that iteration. A missing, damaged or
    mismatched record is retrained; the outputs are the same bytes either
    way.

    Returns ``(EnsembleSet, report dict)``.
    """
    started = _now()
    stats = _shared_standardization([w0], "starting checkpoint", cfg.model_spec)
    train = load_split(cfg, "train", stats)
    test = load_split(cfg, "test", stats)
    e = iterations_per_epoch(len(train), cfg.batch_size)
    sched = cfg.resolve_schedule(e)
    budget = cfg.resolve_budget(e)
    opt_cfg = cfg.optimizer
    opt = MomentumState.initial(w0.weights, opt_cfg["momentum"], opt_cfg["weight_decay"])

    algo = cfg.algorithm
    average, period = _collection_rule(algo, sched, budget)
    n_members = budget.total_iters // period
    last_k = cfg.last_k
    if last_k is not None and last_k > n_members:
        raise ConfigurationError(
            f"last_k must be in [1, {n_members}] for {algo} with this budget, got {last_k}"
        )
    scorer = _MemberScorer(cfg, test, n_members)
    n, c = budget.total_iters, sched.cycle_len
    entry = cfg.output_dir / _TRAJECTORY_CACHE_DIR / _trajectory_key(cfg, w0, sched, n)
    recorded = _recorded_trajectory(entry, train, cfg.model_spec, n // c, period // c - 1)
    if recorded is not None and algo != "pfge":
        ensemble = EnsembleSet(*_replayed(algo, w0.weights, recorded[0], c, period))
        with nn._split_helper(cfg.model_spec, len(test)) as scorer.helper:
            for member in ensemble.members:
                scorer.score(member)
    else:
        stream = batches(train, cfg.batch_size, cfg.seed)
        with _BackgroundThread("pfge-member-scorer") as thread:
            def score(member, _):
                thread.submit(scorer.score, member)

            drive = partial(_drive, lr=partial(lr_at, sched), cycle_len=c, period=period,
                            average=average, l2_coeff=opt_cfg["l2_coeff"], on_member=score)
            if recorded is None:
                drive = partial(drive, w0.weights, opt, stream, n)
                ensemble, _ = drive() if algo == "pfge" else _recording(entry, train, drive)
            else:
                (first,), _ = _replayed(algo, w0.weights, recorded[0], c, period)
                score(first, period)
                members, recorded_at = [first], [period]
                if period < n:
                    resumed, _ = drive(first, MomentumState(recorded[1], opt.momentum,
                                                            opt.weight_decay),
                                       stream._after(period), n, start=period)
                    members += resumed.members
                    recorded_at += resumed.recorded_at
                ensemble = EnsembleSet(members, recorded_at)

    run_dir = cfg.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    member_files = _save_indexed(run_dir, "member", (
        Checkpoint(
            weights=member,
            standardization=w0.standardization,
            meta={
                "role": "member",
                "index": idx,
                "recorded_at": recorded_at,
                "algorithm": algo,
                "seed": cfg.seed,
                "run_id": cfg.run_id,
                "created_at": _now(),
            },
        )
        for idx, (member, recorded_at) in enumerate(zip(ensemble.members, ensemble.recorded_at))
    ))
    # The outputs of ``evaluate`` and ``connectivity`` describe members this
    # run has replaced, so they may not outlive a rerun either.
    for name in (EVALUATION_JSON, EVALUATION_RELIABILITY_CSV):
        (run_dir / name).unlink(missing_ok=True)
    if (run_dir / CONNECTIVITY_DIR).is_dir():
        shutil.rmtree(run_dir / CONNECTIVITY_DIR)

    member_metrics = [{"index": idx, "recorded_at": at, "checkpoint": name, "metrics": record}
                      for idx, (at, name, record) in enumerate(zip(
                          ensemble.recorded_at, member_files, scorer.members, strict=True))]
    series = [{"n_members": idx + 1, "metrics": record}
              for idx, record in enumerate(scorer.series)]
    full_probs = scorer.ensemble_sum / (last_k or n_members)
    full_metrics = _metrics_record(full_probs, test.labels, cfg.ece_bins,
                                   run_dir / "reliability.csv")
    columns = ("accuracy", "nll", "nll_pct", "ece")
    write_csv(run_dir / "ensemble_series.csv", ("n_members", *columns),
              ([entry["n_members"], *(entry["metrics"][c] for c in columns)] for entry in series))

    report = {
        "format_version": 1,
        "run_id": cfg.run_id,
        "algorithm": algo,
        "seed": cfg.seed,
        "resolved": {
            "alpha1": sched.alpha1,
            "alpha2": sched.alpha2,
            "cycle_len": sched.cycle_len,
            "total_iters": budget.total_iters,
            "record_period": budget.record_period,
            "iterations_per_epoch": e,
        },
        "members": member_metrics,
        "ensemble_series": series,
        "ensemble": {
            "last_k": last_k,
            "metrics": full_metrics,
        },
        "config": cfg.document,
        "timing": {"started_at": started, "finished_at": _now()},
        "files": {
            "reliability_csv": "reliability.csv",
            "ensemble_series_csv": "ensemble_series.csv",
        },
    }
    validate_against_schema(report, "report.schema.json")
    write_json(run_dir / "report.json", report)
    return ensemble, report


def _indexed_checkpoints(directory, prefix: str) -> list:
    """Every ``{prefix}-{index}.ckpt`` in ``directory``, ordered by index."""
    found = []
    for path in Path(directory).glob(f"{prefix}-*.ckpt"):
        match = re.fullmatch(rf"{prefix}-(\d+)\.ckpt", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def _save_indexed(directory, prefix: str, checkpoints) -> list:
    """Save ``checkpoints`` in order as ``{prefix}-0.ckpt``, ``{prefix}-1.ckpt``,
    ... in ``directory``, then delete, with its sidecar, every other
    ``{prefix}-<digits>.ckpt`` there, so a rerun that writes fewer leaves none
    of the previous run's behind. Returns the names written."""
    names = []
    for idx, ckpt in enumerate(checkpoints):
        names.append(f"{prefix}-{idx}.ckpt")
        save_checkpoint(Path(directory) / names[-1], ckpt)
    for path in _indexed_checkpoints(directory, prefix):
        if path.name not in names:
            path.unlink()
            header_path(path).unlink(missing_ok=True)
    return names


def member_checkpoint_paths(run_dir) -> list:
    """Member checkpoints in a run directory, ordered by index."""
    return _indexed_checkpoints(run_dir, "member")


def evaluate(cfg: ExperimentConfig) -> dict:
    """Ensemble metrics of the run directory's members on the test split.

    The members must agree on spec and standardization; their statistics
    standardize the split. Writes ``EVALUATION_JSON`` and the reliability
    bins to ``EVALUATION_RELIABILITY_CSV`` in the run directory and returns
    the record.
    """
    run_dir = cfg.run_dir
    paths = member_checkpoint_paths(run_dir)
    if not paths:
        raise ConfigurationError(f"no member checkpoints found in {run_dir}")
    members = [load_checkpoint(p) for p in paths]
    stats = _shared_standardization(members, "member checkpoints", cfg.model_spec)
    test = load_split(cfg, "test", stats)
    ensemble = EnsembleSet(
        tuple(c.weights for c in members), tuple(range(1, len(members) + 1))
    )
    with nn._split_helper(cfg.model_spec, len(test)) as helper:
        probs, _ = ensemble_predict(ensemble, test.inputs, cfg.last_k, helper=helper)
    reliability_csv = run_dir / EVALUATION_RELIABILITY_CSV
    record = {
        "n_members": len(members),
        "last_k": cfg.last_k,
        "metrics": _metrics_record(probs, test.labels, cfg.ece_bins, reliability_csv),
        "reliability_csv": str(reliability_csv),
    }
    write_json(run_dir / EVALUATION_JSON, record)
    return record


def _architecture(spec: LayerSpec) -> str:
    return f"{list(spec.sizes)} ({spec.activation})"


def _shared_standardization(checkpoints, what: str, spec: LayerSpec) -> Optional[dict]:
    """The standardization statistics ``checkpoints`` share, after checking
    that they share the config's architecture ``spec`` too; ``what`` names
    them in errors."""
    first = checkpoints[0]
    for ckpt in checkpoints[1:]:
        if ckpt.spec != first.spec:
            raise ConfigurationError(
                f"{what} have mismatched architectures {_architecture(first.spec)} "
                f"and {_architecture(ckpt.spec)}")
        if ckpt.standardization != first.standardization:
            raise ConfigurationError(f"{what} have mismatched standardization")
    if first.spec != spec:
        raise ConfigurationError(
            f"{what} architecture {_architecture(first.spec)} does not match "
            f"config model {_architecture(spec)}")
    return first.standardization


def _select_pair(cfg: ExperimentConfig):
    paths = member_checkpoint_paths(cfg.run_dir)
    if len(paths) < 2:
        raise ConfigurationError(
            f"need at least 2 member checkpoints in {cfg.run_dir} to connect"
        )
    if cfg.connectivity["pair"] == "last":
        return paths[-2], paths[-1]
    rng = stream_rng(cfg.seed, STREAM_CURVE, index=1)
    start = int(rng.integers(0, len(paths) - 1))
    return paths[start], paths[start + 1]


def connectivity_run(cfg: ExperimentConfig) -> dict:
    """Train a curve between two members, profile it, and compute the
    mode-connectivity gap. The endpoints are ``connectivity.member_a`` and
    ``member_b``, or, with neither given, the pair ``connectivity.pair``
    picks. Artifacts land in ``{run_dir}/connectivity/``.

    The profile's endpoints are the two checkpoints themselves, so a
    ``_BackgroundThread`` scores them while the curve trains and its controls
    are saved, each forward in row tiles on that thread where it tiles; the
    interior points are scored after it, in the same workspace, with a helper
    thread that takes half of each forward's tiles. The numbers are
    ``profile_curve``'s."""
    settings = cfg.connectivity
    member_a, member_b = settings.get("member_a"), settings.get("member_b")
    if (member_a is None) != (member_b is None):
        raise ConfigurationError(
            "connectivity: give both member_a and member_b, or neither to pick a pair"
        )
    if member_a is None:
        member_a, member_b = _select_pair(cfg)
    ckpt_a = load_checkpoint(member_a)
    ckpt_b = load_checkpoint(member_b)
    stats = _shared_standardization([ckpt_a, ckpt_b], "curve endpoints", cfg.model_spec)
    train = load_split(cfg, "train", stats)
    test = load_split(cfg, "test", stats)
    k = settings["k"]
    iters = settings["iters"]
    l2_coeff = cfg.optimizer["l2_coeff"]
    grid = np.linspace(0.0, 1.0, settings["grid_size"])
    workspace = _profile_workspace(cfg.model_spec, train, test)
    outdir = cfg.run_dir / CONNECTIVITY_DIR
    with _BackgroundThread("pfge-endpoint-scorer") as endpoints:
        for weights in (ckpt_a.weights, ckpt_b.weights):
            endpoints.submit(_point_scores, weights, train, test, l2_coeff, workspace,
                             (nn.mean_loss, nn.forward))
        if iters == 0:
            curve = initial_curve(ckpt_a.weights, ckpt_b.weights, k)
        else:
            stream = batches(train, cfg.batch_size, cfg.seed)
            curve = train_curve(ckpt_a.weights, ckpt_b.weights, k, iters, stream,
                                settings["lr"], cfg.seed, l2_coeff=l2_coeff)
        outdir.mkdir(parents=True, exist_ok=True)
        # The record and profile describe the controls, so they go first:
        # a failure from here on leaves neither beside other controls.
        for name in ("connectivity.json", "curve_profile.csv"):
            (outdir / name).unlink(missing_ok=True)
        _save_indexed(outdir, "curve-control", (
            Checkpoint(
                weights=control,
                standardization=stats,
                meta={"role": "curve-control", "index": j, "created_at": _now()},
            )
            for j, control in enumerate(curve.controls)
        ))
        first, last = endpoints.result(), endpoints.result()
    with nn._split_helper(cfg.model_spec, workspace.rows) as helper:
        interior = _sweep(curve, grid[1:-1], train, test, l2_coeff, workspace, helper)
    profile = CurveProfile._of(grid, [first, *interior, last])
    mc, t_star = profile.mc
    profile.write_csv(outdir / "curve_profile.csv")
    record = {
        "mc": mc,
        "mc_abs": abs(mc),
        "t_star": t_star,
        "k": k,
        "iters": iters,
        "lr": settings["lr"],
        "grid_size": len(grid),
        "member_a": str(member_a),
        "member_b": str(member_b),
        "train_loss_summary": profile.train_loss_summary,
        "test_error_summary": profile.test_error_summary,
        "files": {"profile_csv": "curve_profile.csv"},
    }
    write_json(outdir / "connectivity.json", record)
    return record


def load_report(run_dir) -> dict:
    path = Path(run_dir) / "report.json"
    report = read_json(path, DataFormatError, "report")
    violation = _schema_violation(report, "report.schema.json")
    if violation:
        raise DataFormatError(f"{path}: report does not match its schema {violation}")
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of a run report."""
    lines = []
    resolved = report["resolved"]
    lines.append(
        f"run {report['run_id']}  algorithm={report['algorithm']}  seed={report['seed']}"
    )
    lines.append(
        "  schedule: alpha1={alpha1} alpha2={alpha2} cycle_len={cycle_len} "
        "total_iters={total_iters} record_period={record_period}".format(**resolved)
    )
    lines.append("  snapshots:")
    lines.append("    idx  iter  accuracy    nll       ece")
    for member in report["members"]:
        m = member["metrics"]
        lines.append(
            f"    {member['index']:>3}  {member['recorded_at']:>4}  "
            f"{m['accuracy']:.4f}    {m['nll']:.4f}    {m['ece']:.4f}"
        )
    lines.append("  ensemble vs. member count:")
    lines.append("    m    accuracy    nll       ece")
    for entry in report["ensemble_series"]:
        m = entry["metrics"]
        lines.append(
            f"    {entry['n_members']:>3}  {m['accuracy']:.4f}    {m['nll']:.4f}    {m['ece']:.4f}"
        )
    full = report["ensemble"]["metrics"]
    lines.append(
        f"  final ensemble (last_k={report['ensemble']['last_k']}): "
        f"accuracy={full['accuracy']:.4f} nll={full['nll']:.4f} "
        f"nll_pct={full['nll_pct']:.2f} ece={full['ece']:.4f}"
    )
    return "\n".join(lines)
