"""Each verb evaluates each thing once and loads only the splits it uses, one
at a time, and the shared passes give exactly the numbers the one-off helpers
give."""

import json

import numpy as np
import pytest

from pfge import data, harness, nn
from pfge.checkpoint import load_checkpoint
from pfge.cli import main
from pfge.config import config_from_dict
from pfge.connectivity import CurveSpec, mc_value, profile_curve, train_curve
from pfge.data import apply_standardization, batches, gen_blobs, save_csv
from pfge.errors import InvalidArgumentError
from pfge.metrics import PredictionBatch, reliability
from pfge.nn import init_model
from pfge.training import EnsembleSet, ensemble_predict

N_MEMBERS = 4
GRID = 7


@pytest.fixture
def csv_doc(tmp_path):
    centers = [[-1.0, 0.0], [1.0, 0.5]]
    save_csv(gen_blobs(centers, 16, 0.8, 1), tmp_path / "train.csv")
    save_csv(gen_blobs(centers, 20, 0.8, 2), tmp_path / "test.csv")
    doc = {
        "seed": 5,
        "output_dir": str(tmp_path / "runs"),
        "dataset": {"kind": "csv", "train_path": str(tmp_path / "train.csv"),
                    "test_path": str(tmp_path / "test.csv")},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 8,
        "pretrain": {"epochs": 5, "lr": 0.1},
        "optimizer": {"l2_coeff": 1e-3},
        "algorithm": "fge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": N_MEMBERS},
        # A cubic curve trained with a large step peaks inside (0, 1) here.
        "connectivity": {"iters": 10, "grid_size": GRID, "k": 3, "lr": 0.3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return doc, path


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a pass-through that records its arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_each_verb_loads_only_its_splits(csv_doc, monkeypatch):
    doc, path = csv_doc
    train_path, test_path = doc["dataset"]["train_path"], doc["dataset"]["test_path"]
    loads = count_calls(monkeypatch, harness, "load_csv")
    for verb, expected in [("pretrain", [train_path]), ("run", [train_path, test_path]),
                           ("evaluate", [test_path]),
                           ("connectivity", [train_path, test_path])]:
        loads.clear()
        assert main([verb, str(path)]) == 0
        assert [args[0] for args in loads] == expected, verb


def test_each_split_is_standardized_before_the_next_loads(csv_doc, monkeypatch):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    w0 = harness.pretrain(cfg)
    events = []

    def recorder(kind, original):
        def recorded(*args):
            events.append((kind, str(args[0] if kind == "load" else args[0].name)))
            return original(*args)
        return recorded

    monkeypatch.setattr(harness, "load_csv", recorder("load", harness.load_csv))
    monkeypatch.setattr(harness, "_standardize_in_place",
                        recorder("standardize", harness._standardize_in_place))
    train_path, test_path = doc["dataset"]["train_path"], doc["dataset"]["test_path"]
    expected = [("load", train_path), ("standardize", train_path),
                ("load", test_path), ("standardize", test_path)]
    harness.run(cfg, w0)
    assert events == expected
    events.clear()
    harness.connectivity_run(cfg)
    assert events == expected


def test_warm_split_cache_writes_the_same_outputs(csv_doc, monkeypatch):
    doc, path = csv_doc
    cfg = config_from_dict(doc)
    monkeypatch.setattr(harness, "_now", lambda: "2000-01-01T00:00:00+00:00")

    def pipeline():
        for verb in ("pretrain", "run", "evaluate", "connectivity"):
            assert main([verb, str(path)]) == 0
        outputs = sorted(cfg.run_dir.glob("member-*")) + [
            cfg.run_dir / "report.json", cfg.run_dir / "connectivity" / "curve_profile.csv"]
        return {p.name: p.read_bytes() for p in outputs}

    cold = pipeline()
    assert len(list((cfg.output_dir / harness.SPLIT_CACHE_DIR).iterdir())) == 2

    def parse(csv_path):
        raise AssertionError(f"{csv_path} was parsed again")

    monkeypatch.setattr(data, "_parse_csv", parse)
    assert pipeline() == cold


def test_load_split_standardizes_like_apply_standardization(csv_doc):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    stats = harness.pretrain(cfg).standardization
    for split in ("train", "test"):
        got = harness.load_split(cfg, split, stats)
        want = apply_standardization(harness.load_split(cfg, split), stats["mean"], stats["std"])
        assert np.array_equal(got.inputs, want.inputs)
        assert np.array_equal(got.labels, want.labels)
        assert (got.classes, got.name) == (want.classes, want.name)


def test_run_forwards_each_member_once(csv_doc, monkeypatch):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    w0 = harness.pretrain(cfg)
    forwards = count_calls(monkeypatch, nn, "forward")
    ensemble, _ = harness.run(cfg, w0)
    assert len(ensemble) == N_MEMBERS
    test = harness.load_split(cfg, "test")
    assert [args[1].shape[0] for args in forwards] == [len(test)] * N_MEMBERS


def test_connectivity_sweeps_the_grid_once(csv_doc, monkeypatch):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    harness.run(cfg, harness.pretrain(cfg))
    train, test = harness.load_split(cfg, "train"), harness.load_split(cfg, "test")
    # Every forward, on either thread and through ``mean_loss`` too, runs
    # ``nn._forward``; curve training's own are on batches of 8 rows.
    forwards = count_calls(monkeypatch, nn, "_forward")
    harness.connectivity_run(cfg)
    rows = [args[1].shape[0] for args in forwards]
    assert rows.count(len(train)) == GRID
    assert rows.count(len(test)) == GRID
    assert len(rows) == 2 * GRID + doc["connectivity"]["iters"]


@pytest.mark.parametrize("last_k", [None, 1, N_MEMBERS - 1, N_MEMBERS])
def test_report_equals_ensemble_predict(csv_doc, last_k):
    doc, _ = csv_doc
    cfg = config_from_dict({**doc, "last_k": last_k})
    w0 = harness.pretrain(cfg)
    ensemble, report = harness.run(cfg, w0)
    stats = w0.standardization
    test = apply_standardization(harness.load_split(cfg, "test"), stats["mean"], stats["std"])

    def record(members, k=None):
        subset = EnsembleSet(tuple(members), tuple(range(1, len(members) + 1)))
        probs, _ = ensemble_predict(subset, test.inputs, k)
        return probs, harness._metrics_record(probs, test.labels, cfg.ece_bins)

    members = ensemble.members
    assert [m["metrics"] for m in report["members"]] == [record([w])[1] for w in members]
    assert [s["metrics"] for s in report["ensemble_series"]] == [
        record(members[:m])[1] for m in range(1, N_MEMBERS + 1)
    ]
    full_probs, full = record(members, last_k)
    assert report["ensemble"] == {"last_k": last_k, "metrics": full}
    expected_bins = cfg.run_dir / "expected_reliability.csv"
    reliability(PredictionBatch(full_probs, test.labels), cfg.ece_bins).write_csv(expected_bins)
    assert (cfg.run_dir / "reliability.csv").read_text() == expected_bins.read_text()


def test_connectivity_mc_equals_mc_value(csv_doc):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    harness.run(cfg, harness.pretrain(cfg))
    result = harness.connectivity_run(cfg)
    outdir = cfg.run_dir / "connectivity"
    controls = [load_checkpoint(outdir / f"curve-control-{j}.ckpt") for j in range(4)]
    curve = CurveSpec(tuple(c.weights for c in controls))
    stats = controls[0].standardization
    train = apply_standardization(harness.load_split(cfg, "train"), stats["mean"], stats["std"])
    mc, t_star = mc_value(curve, GRID, train, l2_coeff=doc["optimizer"]["l2_coeff"])
    assert 0.0 < t_star < 1.0
    assert (result["mc"], result["t_star"]) == (mc, t_star)


def test_profile_mc_equals_mc_value(csv_doc):
    doc, _ = csv_doc
    cfg = config_from_dict(doc)
    train, test = harness.load_split(cfg, "train"), harness.load_split(cfg, "test")
    w_a, w_b = init_model(cfg.model_spec, 1), init_model(cfg.model_spec, 2)
    curve = train_curve(w_a, w_b, 3, 20, batches(train, 8, 3), 0.05, 3)
    for grid_size in (3, 11):
        profile = profile_curve(curve, grid_size, train, test, 1e-3)
        assert profile.mc == mc_value(curve, grid_size, train, l2_coeff=1e-3)
    with pytest.raises(InvalidArgumentError, match="grid_size"):
        profile_curve(curve, 2, train, test).mc
