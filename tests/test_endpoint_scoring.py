"""``harness.connectivity_run`` trains the curve and saves its controls on
the main thread, then scores every grid point, the two endpoints included,
in one sweep. Its outputs must equal a serial ``profile_curve`` of the same
curve, an error in scoring or in training must reach the caller unchanged
with no thread left behind, and a failure must never leave a record or
profile beside other controls."""

import json
import threading

import pytest

from pfge import harness, nn
from pfge.checkpoint import load_checkpoint
from pfge.cli import main
from pfge.config import config_from_dict
from pfge.connectivity import initial_curve, profile_curve, train_curve
from pfge.data import batches
from pfge.errors import NumericError
from pfge.files import json_text

from conftest import blas_threads
from test_helper_threads import Injected, fail_on_helper, tiling_doc
from test_member_scorer import tiny_doc


def connectivity_doc(outdir, **settings):
    return tiny_doc(outdir, run_id="curve", connectivity={"iters": 6, "grid_size": 5, **settings})


@pytest.fixture(scope="module")
def members(tmp_path_factory):
    """A pretrained fge run with four members to connect."""
    outdir = tmp_path_factory.mktemp("endpoints")
    cfg = config_from_dict(connectivity_doc(outdir))
    harness.run(cfg, harness.pretrain(cfg))
    return outdir


def serial_outputs(cfg):
    """The connectivity record, profile CSV and control payloads, computed
    on the main thread alone with ``train_curve`` and ``profile_curve``."""
    settings = cfg.connectivity
    member_a, member_b = harness._select_pair(cfg)
    ckpt_a, ckpt_b = load_checkpoint(member_a), load_checkpoint(member_b)
    train = harness.load_split(cfg, "train", ckpt_a.standardization)
    test = harness.load_split(cfg, "test", ckpt_a.standardization)
    l2_coeff = cfg.optimizer["l2_coeff"]
    if settings["iters"] == 0:
        curve = initial_curve(ckpt_a.weights, ckpt_b.weights, settings["k"])
    else:
        curve = train_curve(ckpt_a.weights, ckpt_b.weights, settings["k"], settings["iters"],
                            batches(train, cfg.batch_size, cfg.seed), settings["lr"], cfg.seed,
                            l2_coeff=l2_coeff)
    profile = profile_curve(curve, settings["grid_size"], train, test, l2_coeff)
    mc, t_star = profile.mc
    record = {
        "mc": mc, "mc_abs": abs(mc), "t_star": t_star, "k": settings["k"],
        "iters": settings["iters"], "lr": settings["lr"], "grid_size": settings["grid_size"],
        "member_a": str(member_a), "member_b": str(member_b),
        "train_loss_summary": profile.train_loss_summary,
        "test_error_summary": profile.test_error_summary,
        "files": {"profile_csv": "curve_profile.csv"},
    }
    return record, profile, [c.values.tobytes() for c in curve.controls]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("iters", [0, 6])
@pytest.mark.parametrize("grid_size", [3, 5])
def test_outputs_equal_a_serial_profile(members, tmp_path, k, iters, grid_size):
    cfg = config_from_dict(connectivity_doc(members, k=k, iters=iters, grid_size=grid_size))
    result = harness.connectivity_run(cfg)
    record, profile, payloads = serial_outputs(cfg)
    outdir = cfg.run_dir / harness.CONNECTIVITY_DIR
    # JSON text tells -0.0 from 0.0 and prints every float exactly.
    assert (outdir / "connectivity.json").read_text() == json_text(record)
    assert json.dumps(result) == json.dumps(record)
    profile.write_csv(tmp_path / "serial.csv")
    assert (outdir / "curve_profile.csv").read_text() == (tmp_path / "serial.csv").read_text()
    saved = harness._indexed_checkpoints(outdir, "curve-control")
    assert [load_checkpoint(p).weights.values.tobytes() for p in saved] == payloads


def connectivity_outputs(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_diverging_curve_exits_4_and_leaves_the_previous_outputs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(connectivity_doc(tmp_path / "runs")))
    for verb in ("pretrain", "run", "connectivity"):
        assert main([verb, str(path)]) == 0
    outdir = tmp_path / "runs" / "curve" / harness.CONNECTIVITY_DIR
    before = connectivity_outputs(outdir)
    threads = threading.active_count()
    capsys.readouterr()
    assert main(["connectivity", str(path), "connectivity.lr=1e50"]) == 4
    assert "non-finite" in capsys.readouterr().err
    assert threading.active_count() == threads
    # Training failed before any control was written: the previous record
    # still describes the controls beside it.
    assert connectivity_outputs(outdir) == before


def test_failure_after_the_controls_are_saved_leaves_no_record(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(connectivity_doc(tmp_path / "runs")))
    for verb in ("pretrain", "run", "connectivity"):
        assert main([verb, str(path)]) == 0
    outdir = tmp_path / "runs" / "curve" / harness.CONNECTIVITY_DIR
    before = connectivity_outputs(outdir)

    def failing_forward(*args, **kwargs):
        raise NumericError("endpoint cannot be scored")

    # Scoring the first grid point, an endpoint, fails once the new controls
    # are on disk, so the previous record and profile must be gone.
    monkeypatch.setattr(nn, "forward", failing_forward)
    threads = threading.active_count()
    assert main(["connectivity", str(path), "connectivity.iters=9"]) == 4
    assert "endpoint cannot be scored" in capsys.readouterr().err
    assert threading.active_count() == threads
    after = connectivity_outputs(outdir)
    assert "connectivity.json" not in after and "curve_profile.csv" not in after
    assert sorted(after) == sorted(set(before) - {"connectivity.json", "curve_profile.csv"})
    assert after != {name: before[name] for name in after}


def test_endpoint_error_reaches_the_caller_unchanged(tmp_path):
    # On the "tiling" model both splits' forwards tile, so the helper's
    # first tiles are those of the first grid point, an endpoint, and fail.
    cfg = config_from_dict({**tiling_doc(tmp_path), "run_id": "curve"})
    with blas_threads(1):
        harness.run(cfg, harness.pretrain(cfg))
        threads = threading.active_count()
        with fail_on_helper(nn, "_forward_tiles"), pytest.raises(Injected) as caught:
            harness.connectivity_run(cfg)
    assert type(caught.value) is Injected
    assert str(caught.value) == "_forward_tiles failed on the helper"
    assert threading.active_count() == threads
    outdir = cfg.run_dir / harness.CONNECTIVITY_DIR
    assert not (outdir / "connectivity.json").exists()
    assert not (outdir / "curve_profile.csv").exists()


def test_a_training_error_comes_before_any_scoring(members, monkeypatch):
    cfg = config_from_dict(connectivity_doc(members, lr=1e50))
    swept = []
    monkeypatch.setattr(harness, "_sweep", lambda *args: swept.append(args))
    threads = threading.active_count()
    with pytest.raises(NumericError, match="non-finite"):
        harness.connectivity_run(cfg)
    assert swept == []
    assert threading.active_count() == threads
