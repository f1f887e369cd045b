"""Experiment orchestration: pretraining, algorithm runs, evaluation,
connectivity analysis, and report emission.

Every verb gets its data from ``load_split``, one split at a time, checked
against the model and standardized there with the checkpoint's statistics, so
no verb holds a raw split next to its standardized copy.

Directory layout per run: ``{output_dir}/{run_id}/member-{idx}.ckpt`` plus
``report.json`` and CSV side-files. All JSON is written with sorted keys so
that repeated runs with one (config, seed) pair produce byte-identical
artifacts apart from creation timestamps.
"""

import csv
import json
import re
import shutil
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .checkpoint import Checkpoint, header_path, load_checkpoint, save_checkpoint
from .config import (
    ExperimentConfig,
    _schema_violation,
    iterations_per_epoch,
    validate_against_schema,
)
from .connectivity import initial_curve, mc_value, profile_curve, train_curve  # noqa: F401
from .data import (
    Dataset,
    apply_standardization,
    batches,
    feature_stats,
    gen_blobs,
    gen_two_spirals,
    load_csv,
    load_idx,
)
from .errors import ConfigurationError, DataFormatError, InvalidArgumentError
# ``ece``, ``loss_and_grad``, ``sgd_step``, ``mc_value``, ``run_swa``,
# ``run_fge`` and ``run_pfge`` are not called here, but stay importable from
# this module for callers (and perfbench's tracer) that look them up here.
from .metrics import PredictionBatch, accuracy, ece, nll, reliability  # noqa: F401
from .nn import init_model, loss_and_grad  # noqa: F401
from .rng import STREAM_CURVE, stream_rng
from .schedule import lr_at
from .training import (  # noqa: F401
    EnsembleSet,
    MomentumState,
    _accumulate,
    _collection_rule,
    _drive,
    _member_probs,
    ensemble_predict,
    run_fge,
    run_pfge,
    run_swa,
    sgd_step,
)


# What ``evaluate`` (the CLI verb) and ``connectivity_run`` write into a run
# directory. Both describe that run's members, so ``run`` deletes them.
EVALUATION_JSON = "evaluation.json"
EVALUATION_RELIABILITY_CSV = "evaluation_reliability.csv"
CONNECTIVITY_DIR = "connectivity"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_split(cfg: ExperimentConfig, split: str,
               standardization: Optional[dict] = None) -> Dataset:
    """Materialize one split (``"train"`` or ``"test"``) named by the config
    and check it against the model's input width and class count, so a
    mismatched file fails before any training. Given a checkpoint's
    ``standardization`` statistics, return only the standardized split."""
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
        data = load_csv(ds[f"{split}_path"])
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
    return apply_standardization(data, standardization["mean"], standardization["std"])


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
    here and stored in the checkpoint; every later phase reuses them.
    """
    train = load_split(cfg, "train")
    mean, std = feature_stats(train)
    train = apply_standardization(train, mean, std)
    settings = cfg.pretrain
    e = iterations_per_epoch(len(train), cfg.batch_size)
    total = settings["epochs"] * e
    w_init = init_model(cfg.model_spec, cfg.seed)
    opt = MomentumState.initial(w_init, settings["momentum"], settings["weight_decay"])
    final, _ = _drive(w_init, opt, batches(train, cfg.batch_size, cfg.seed), total,
                      lambda i: settings["lr"] * _pretrain_lr_factor((i - 1) / total),
                      l2_coeff=settings["l2_coeff"])
    train_preds = np.argmax(ensemble_predict(final, train.inputs)[0], axis=1)
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
                    reliability_csv=None) -> dict:
    """Accuracy, NLL and ECE of ``probs``; the reliability bins behind the ECE
    are written to ``reliability_csv`` when one is given."""
    p = PredictionBatch(probs, labels)
    bins = reliability(p, ece_bins)
    if reliability_csv is not None:
        bins.write_csv(reliability_csv)
    raw_nll = nll(p)
    return {
        "accuracy": accuracy(p),
        "nll": raw_nll,
        "nll_pct": 100.0 * raw_nll,
        "ece": bins.ece_value(),
    }


def run(cfg: ExperimentConfig, w0: Checkpoint):
    """Train the configured algorithm, persist members, write the report.

    Returns ``(EnsembleSet, report dict)``.
    """
    started = _now()
    if w0.spec != cfg.model_spec:
        raise ConfigurationError(
            f"starting checkpoint architecture {w0.spec.sizes} does not match "
            f"config model {cfg.model_spec.sizes}"
        )
    train = load_split(cfg, "train", w0.standardization)
    test = load_split(cfg, "test", w0.standardization)
    e = iterations_per_epoch(len(train), cfg.batch_size)
    sched = cfg.resolve_schedule(e)
    budget = cfg.resolve_budget(e)
    opt_cfg = cfg.optimizer
    opt = MomentumState.initial(w0.weights, opt_cfg["momentum"], opt_cfg["weight_decay"])

    algo = cfg.algorithm
    keep, cycle_len, period, n_members = _collection_rule(algo, sched, budget)
    last_k = cfg.last_k
    if last_k is not None and last_k > n_members:
        raise ConfigurationError(
            f"last_k must be in [1, {n_members}] for {algo} with this budget, got {last_k}"
        )
    ensemble, _ = _drive(w0.weights, opt, batches(train, cfg.batch_size, cfg.seed),
                         budget.total_iters, partial(lr_at, sched), keep, cycle_len, period,
                         l2_coeff=opt_cfg["l2_coeff"])

    run_dir = cfg.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    member_files = []
    for idx, (member, recorded_at) in enumerate(zip(ensemble.members, ensemble.recorded_at)):
        name = f"member-{idx}.ckpt"
        save_checkpoint(
            run_dir / name,
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
            ),
        )
        member_files.append(name)
    # Neither the previous run's extra members, for ``evaluate`` and
    # ``connectivity`` to pick up, nor those verbs' outputs, which describe
    # members this run has replaced, may outlive a rerun.
    _remove_stale_checkpoints(run_dir, "member", len(member_files))
    for name in (EVALUATION_JSON, EVALUATION_RELIABILITY_CSV):
        (run_dir / name).unlink(missing_ok=True)
    if (run_dir / CONNECTIVITY_DIR).is_dir():
        shutil.rmtree(run_dir / CONNECTIVITY_DIR)

    # One test-split forward per member feeds the member metrics, the series
    # and the final ensemble of the last ``last_k`` members. The running sums
    # keep ensemble_predict's order ``p_a + p_{a+1} + ...`` then ``/ n``, so
    # every number matches a fresh ensemble_predict bit for bit.
    ece_bins = cfg.ece_bins
    first = n_members - (last_k or n_members)
    member_metrics = []
    series = []
    prob_sum = tail_sum = None
    for idx, probs in enumerate(_member_probs(ensemble.members, test.inputs)):
        member_metrics.append(
            {
                "index": idx,
                "recorded_at": ensemble.recorded_at[idx],
                "checkpoint": member_files[idx],
                "metrics": _metrics_record(probs, test.labels, ece_bins),
            }
        )
        prob_sum = _accumulate(prob_sum, probs)
        series.append(
            {
                "n_members": idx + 1,
                "metrics": _metrics_record(prob_sum / (idx + 1), test.labels, ece_bins),
            }
        )
        if 0 < first <= idx:
            tail_sum = _accumulate(tail_sum, probs)

    full_probs = (prob_sum if first == 0 else tail_sum) / (n_members - first)
    full_metrics = _metrics_record(full_probs, test.labels, ece_bins, run_dir / "reliability.csv")
    _write_series_csv(run_dir / "ensemble_series.csv", series)

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
    _write_json(run_dir / "report.json", report)
    return ensemble, report


def _write_series_csv(path: Path, series) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_members", "accuracy", "nll", "nll_pct", "ece"])
        for entry in series:
            m = entry["metrics"]
            writer.writerow(
                [
                    entry["n_members"],
                    repr(m["accuracy"]),
                    repr(m["nll"]),
                    repr(m["nll_pct"]),
                    repr(m["ece"]),
                ]
            )


def _indexed_checkpoints(directory, prefix: str) -> list:
    """Every ``{prefix}-{index}.ckpt`` in ``directory``, ordered by index."""
    found = []
    for path in Path(directory).glob(f"{prefix}-*.ckpt"):
        match = re.fullmatch(rf"{prefix}-(\d+)\.ckpt", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def _remove_stale_checkpoints(directory, prefix: str, count: int) -> None:
    """Delete, with its sidecar, every ``{prefix}-*.ckpt`` in ``directory``
    but the ``count`` just written, ``{prefix}-0.ckpt`` to
    ``{prefix}-{count - 1}.ckpt``, so a rerun that writes fewer leaves none
    of the previous run's behind."""
    written = {f"{prefix}-{j}.ckpt" for j in range(count)}
    for path in _indexed_checkpoints(directory, prefix):
        if path.name not in written:
            path.unlink()
            header_path(path).unlink(missing_ok=True)


def member_checkpoint_paths(run_dir) -> list:
    """Member checkpoints in a run directory, ordered by index."""
    return _indexed_checkpoints(run_dir, "member")


def evaluate(members, dataset: Dataset, last_k: Optional[int], ece_bins: int,
             reliability_csv=None) -> dict:
    """Ensemble metrics of a member list on a raw dataset.

    Standardization statistics stored with the members are applied to the
    dataset first; the members must agree on spec and standardization.
    """
    if not members:
        raise ConfigurationError("no member checkpoints to evaluate")
    stats = _shared_standardization(members, "member checkpoints")
    if stats is not None:
        dataset = apply_standardization(dataset, stats["mean"], stats["std"])
    ensemble = EnsembleSet(
        tuple(c.weights for c in members), tuple(range(1, len(members) + 1))
    )
    probs, _ = ensemble_predict(ensemble, dataset.inputs, last_k)
    record = {
        "n_members": len(members),
        "last_k": last_k,
        "metrics": _metrics_record(probs, dataset.labels, ece_bins, reliability_csv),
    }
    if reliability_csv is not None:
        record["reliability_csv"] = str(reliability_csv)
    return record


def _shared_standardization(checkpoints, what: str) -> Optional[dict]:
    """The standardization statistics ``checkpoints`` share, after checking
    that they share one architecture too; ``what`` names them in errors."""
    first = checkpoints[0]
    for ckpt in checkpoints[1:]:
        if ckpt.spec != first.spec:
            raise ConfigurationError(f"{what} have mismatched architectures")
        if ckpt.standardization != first.standardization:
            raise ConfigurationError(f"{what} have mismatched standardization")
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


def connectivity_run(cfg: ExperimentConfig, member_a=None, member_b=None) -> dict:
    """Train a curve between two members, profile it, and compute the
    mode-connectivity gap. Artifacts land in ``{run_dir}/connectivity/``."""
    settings = cfg.connectivity
    if (member_a is None) != (member_b is None):
        raise ConfigurationError(
            "connectivity: give both member_a and member_b, or neither to pick a pair"
        )
    if member_a is None:
        member_a, member_b = _select_pair(cfg)
    ckpt_a = load_checkpoint(member_a)
    ckpt_b = load_checkpoint(member_b)
    stats = _shared_standardization([ckpt_a, ckpt_b], "curve endpoints")
    train = load_split(cfg, "train", stats)
    test = load_split(cfg, "test", stats)
    k = settings["k"]
    iters = settings["iters"]
    if iters == 0:
        curve = initial_curve(ckpt_a.weights, ckpt_b.weights, k)
    else:
        stream = batches(train, cfg.batch_size, cfg.seed)
        curve = train_curve(
            ckpt_a.weights,
            ckpt_b.weights,
            k,
            iters,
            stream,
            settings["lr"],
            cfg.seed,
            l2_coeff=cfg.optimizer["l2_coeff"],
        )
    grid_size = settings["grid_size"]
    profile = profile_curve(curve, grid_size, train, test, cfg.optimizer["l2_coeff"])
    mc, t_star = profile.mc

    outdir = cfg.run_dir / CONNECTIVITY_DIR
    outdir.mkdir(parents=True, exist_ok=True)
    profile.write_csv(outdir / "curve_profile.csv")
    for j, control in enumerate(curve.controls):
        save_checkpoint(
            outdir / f"curve-control-{j}.ckpt",
            Checkpoint(
                weights=control,
                standardization=stats,
                meta={"role": "curve-control", "index": j, "created_at": _now()},
            ),
        )
    _remove_stale_checkpoints(outdir, "curve-control", len(curve.controls))
    record = {
        "mc": mc,
        "mc_abs": abs(mc),
        "t_star": t_star,
        "k": k,
        "iters": iters,
        "lr": settings["lr"],
        "grid_size": grid_size,
        "member_a": str(member_a),
        "member_b": str(member_b),
        "train_loss_summary": profile.train_loss_summary,
        "test_error_summary": profile.test_error_summary,
        "files": {"profile_csv": "curve_profile.csv"},
    }
    _write_json(outdir / "connectivity.json", record)
    return record


def load_report(run_dir) -> dict:
    path = Path(run_dir) / "report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable report: {exc}") from None
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
