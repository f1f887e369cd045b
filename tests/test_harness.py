import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfge import harness
from pfge.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from pfge.config import config_from_dict, validate_against_schema
from pfge.errors import ConfigurationError, InvalidArgumentError
from pfge.metrics import PredictionBatch, accuracy, nll
from pfge.nn import LayerSpec, init_model
from pfge.training import EnsembleSet, ensemble_predict


def mini_doc(outdir, **updates):
    doc = {
        "seed": 5,
        "output_dir": str(outdir),
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                    "test_n_per_class": 40},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 12,
        "pretrain": {"epochs": 5, "lr": 0.1},
        "algorithm": "pfge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 4, "record_epochs": 2},
    }
    doc.update(updates)
    return doc


def mini_config(outdir, **updates):
    return config_from_dict(mini_doc(outdir, **updates))


@pytest.fixture
def pretrained(tmp_path):
    cfg = mini_config(tmp_path / "runs")
    w0 = harness.pretrain(cfg)
    return cfg, w0


class TestPretrain:
    def test_deterministic_payloads(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            cfg = mini_config(tmp_path / name)
            harness.pretrain(cfg)
            paths.append(cfg.w0_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_separable_blobs_reach_high_accuracy(self, tmp_path):
        doc = mini_doc(
            tmp_path / "runs",
            seed=3,
            dataset={"kind": "blobs", "centers": [[-2.0, 0.0], [2.0, 0.0]],
                     "n_per_class": 20, "sd": 0.3, "test_n_per_class": 30},
            batch_size=10,
            pretrain={"epochs": 30, "lr": 0.1},
        )
        ckpt = harness.pretrain(config_from_dict(doc))
        assert ckpt.meta["final_train_accuracy"] >= 0.99

    def test_checkpoint_roundtrip(self, pretrained):
        cfg, w0 = pretrained
        loaded = load_checkpoint(cfg.w0_path)
        assert np.array_equal(loaded.weights.values, w0.weights.values)
        assert loaded.standardization == w0.standardization
        assert len(loaded.standardization["mean"]) == 2


class TestRun:
    def test_swa_persists_single_member(self, pretrained):
        cfg, w0 = pretrained
        cfg = mini_config(cfg.output_dir, algorithm="swa")
        ensemble, _ = harness.run(cfg, w0)
        assert len(ensemble) == 1
        assert len(harness.member_checkpoint_paths(cfg.run_dir)) == 1

    def test_sgd_persists_single_member(self, pretrained):
        cfg, w0 = pretrained
        cfg = mini_config(cfg.output_dir, algorithm="sgd")
        ensemble, _ = harness.run(cfg, w0)
        assert len(ensemble) == 1

    def test_member_counts_follow_budget(self, pretrained):
        cfg, w0 = pretrained
        _, report_pfge = harness.run(cfg, w0)
        assert len(report_pfge["members"]) == 2  # 4 epochs / 2-epoch period
        cfg_fge = mini_config(cfg.output_dir, algorithm="fge")
        _, report_fge = harness.run(cfg_fge, w0)
        assert len(report_fge["members"]) == 4  # 4 epochs / 1-epoch cycle

    def test_report_validates_and_series_matches_offline(self, pretrained):
        cfg, w0 = pretrained
        cfg = mini_config(cfg.output_dir, algorithm="fge")
        ensemble, report = harness.run(cfg, w0)
        validate_against_schema(report, "report.schema.json")
        saved = json.loads((cfg.run_dir / "report.json").read_text())
        assert saved["ensemble_series"] == report["ensemble_series"]
        assert len(report["ensemble_series"]) == len(ensemble)

        # Offline recomputation: first m members, fresh prediction pass.
        test = harness.load_split(cfg, "test")
        stats = w0.standardization
        from pfge.data import apply_standardization

        test_std = apply_standardization(test, stats["mean"], stats["std"])
        for entry in report["ensemble_series"]:
            m = entry["n_members"]
            subset = EnsembleSet(ensemble.members[:m], ensemble.recorded_at[:m])
            probs, _ = ensemble_predict(subset, test_std.inputs)
            p = PredictionBatch(probs, test_std.labels)
            assert entry["metrics"]["accuracy"] == pytest.approx(accuracy(p), abs=1e-12)
            assert entry["metrics"]["nll"] == pytest.approx(nll(p), abs=1e-12)

    def test_csv_sidefiles_written(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        assert (cfg.run_dir / "reliability.csv").exists()
        series = (cfg.run_dir / "ensemble_series.csv").read_text().strip().splitlines()
        assert series[0] == "n_members,accuracy,nll,nll_pct,ece"
        assert len(series) == 3

    def test_spec_mismatch_rejected(self, pretrained):
        cfg, w0 = pretrained
        bad_cfg = mini_config(cfg.output_dir, model={"sizes": [2, 6, 2]})
        with pytest.raises(ConfigurationError, match="architecture"):
            harness.run(bad_cfg, w0)

    def test_budget_violation_rejected(self, pretrained):
        cfg, w0 = pretrained
        bad = mini_config(cfg.output_dir, schedule={"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 2},
                          budget={"total_epochs": 4, "record_epochs": 3})
        with pytest.raises(ConfigurationError):
            harness.run(bad, w0)

    def test_run_deterministic_modulo_timestamps(self, tmp_path):
        artifacts = []
        for name in ("a", "b"):
            cfg = mini_config(tmp_path / name)
            w0 = harness.pretrain(cfg)
            harness.run(cfg, w0)
            members = [p.read_bytes() for p in harness.member_checkpoint_paths(cfg.run_dir)]
            report = json.loads((cfg.run_dir / "report.json").read_text())
            report.pop("timing")
            # Path fields legitimately differ between the two output roots.
            report["config"].pop("output_dir")
            report["config"].pop("w0_checkpoint")
            artifacts.append((members, report))
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]


def add_member(run_dir, ckpt):
    """Save ``ckpt`` as the run directory's next member file."""
    path = run_dir / f"member-{len(harness.member_checkpoint_paths(run_dir))}.ckpt"
    save_checkpoint(path, ckpt)
    return path


class TestEvaluate:
    def test_single_member_equals_direct(self, pretrained):
        cfg, w0 = pretrained
        cfg = mini_config(cfg.output_dir, algorithm="sgd")
        harness.run(cfg, w0)
        (path,) = harness.member_checkpoint_paths(cfg.run_dir)
        record = harness.evaluate(cfg)

        from pfge.data import apply_standardization

        member = load_checkpoint(path)
        stats = member.standardization
        test = harness.load_split(cfg, "test")
        test_std = apply_standardization(test, stats["mean"], stats["std"])
        probs, _ = ensemble_predict(
            EnsembleSet((member.weights,), (1,)), test_std.inputs
        )
        p = PredictionBatch(probs, test_std.labels)
        assert record["metrics"]["accuracy"] == accuracy(p)
        assert record["metrics"]["nll"] == pytest.approx(nll(p), abs=1e-15)
        assert record["metrics"]["nll_pct"] == pytest.approx(100 * nll(p), abs=1e-12)
        assert record["n_members"] == 1 and record["last_k"] is None
        assert json.loads((cfg.run_dir / harness.EVALUATION_JSON).read_text()) == record
        reliability_csv = cfg.run_dir / harness.EVALUATION_RELIABILITY_CSV
        assert record["reliability_csv"] == str(reliability_csv)
        assert reliability_csv.exists()

    def test_duplicated_members_match_single(self, pretrained):
        cfg, w0 = pretrained
        cfg = mini_config(cfg.output_dir, algorithm="sgd")
        harness.run(cfg, w0)
        single = harness.evaluate(cfg)
        (path,) = harness.member_checkpoint_paths(cfg.run_dir)
        add_member(cfg.run_dir, load_checkpoint(path))
        doubled = harness.evaluate(cfg)
        assert doubled["n_members"] == 2
        for key in ("accuracy", "nll", "ece"):
            assert doubled["metrics"][key] == pytest.approx(single["metrics"][key], abs=1e-12)

    def test_last_k_too_large(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        n_members = len(harness.member_checkpoint_paths(cfg.run_dir))
        with pytest.raises(InvalidArgumentError):
            harness.evaluate(mini_config(cfg.output_dir, last_k=n_members + 1))

    def test_mismatched_specs_rejected(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        member = load_checkpoint(harness.member_checkpoint_paths(cfg.run_dir)[0])
        add_member(cfg.run_dir,
                   Checkpoint(init_model(LayerSpec((2, 6, 2)), 0), member.standardization, {}))
        with pytest.raises(ConfigurationError, match="architecture"):
            harness.evaluate(cfg)

    def test_mismatched_standardization_rejected(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        member = load_checkpoint(harness.member_checkpoint_paths(cfg.run_dir)[0])
        stats = {"mean": [0.0, 0.0], "std": [1.0, 1.0]}
        add_member(cfg.run_dir, Checkpoint(member.weights, stats, {}))
        with pytest.raises(ConfigurationError,
                           match="member checkpoints have mismatched standardization"):
            harness.evaluate(cfg)


class TestConnectivityRun:
    def test_degenerate_pair_zero_iters(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        path = str(harness.member_checkpoint_paths(cfg.run_dir)[0])
        cfg0 = mini_config(cfg.output_dir, connectivity={
            "iters": 0, "grid_size": 11, "member_a": path, "member_b": path})
        record = harness.connectivity_run(cfg0)
        assert record["mc"] == 0.0
        assert record["member_a"] == record["member_b"] == path

    def test_profile_csv_rows_match_grid(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        cfg_small = mini_config(cfg.output_dir, connectivity={"iters": 10, "grid_size": 13})
        harness.connectivity_run(cfg_small)
        lines = (cfg.run_dir / "connectivity" / "curve_profile.csv").read_text().strip().splitlines()
        assert len(lines) == 14

    def test_rerun_identical(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        cfg_small = mini_config(cfg.output_dir, connectivity={"iters": 10, "grid_size": 13})
        first = harness.connectivity_run(cfg_small)
        second = harness.connectivity_run(cfg_small)
        assert abs(first["mc"] - second["mc"]) < 1e-12
        assert first["t_star"] == second["t_star"]

    def test_smaller_k_removes_stale_controls(self, pretrained):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        for k in (4, 2):
            harness.connectivity_run(
                mini_config(cfg.output_dir, connectivity={"k": k, "iters": 0, "grid_size": 3}))
        outdir = cfg.run_dir / "connectivity"
        assert sorted(p.name for p in outdir.glob("curve-control-*")) == [
            f"curve-control-{j}.ckpt{ext}" for j in range(3) for ext in ("", ".json")]

    @pytest.mark.parametrize("change,message", [
        (lambda m: Checkpoint(init_model(LayerSpec((2, 6, 2)), 0), m.standardization, {}),
         "curve endpoints have mismatched architectures"),
        (lambda m: Checkpoint(m.weights, {"mean": [0.0, 0.0], "std": [1.0, 1.0]}, {}),
         "curve endpoints have mismatched standardization"),
    ])
    def test_mismatched_endpoints_rejected(self, pretrained, change, message):
        cfg, w0 = pretrained
        harness.run(cfg, w0)
        path = harness.member_checkpoint_paths(cfg.run_dir)[0]
        other = cfg.output_dir / "other.ckpt"
        save_checkpoint(other, change(load_checkpoint(path)))
        cfg_pair = mini_config(cfg.output_dir, connectivity={
            "member_a": str(path), "member_b": str(other)})
        with pytest.raises(ConfigurationError, match=message):
            harness.connectivity_run(cfg_pair)

    def test_random_pair_is_adjacent_and_seeded(self, pretrained):
        cfg, w0 = pretrained
        cfg_fge = mini_config(cfg.output_dir, algorithm="fge")
        harness.run(cfg_fge, w0)
        cfg_rand = mini_config(cfg.output_dir, algorithm="fge",
                               connectivity={"iters": 0, "grid_size": 5, "pair": "random"})
        a = harness.connectivity_run(cfg_rand)
        b = harness.connectivity_run(cfg_rand)
        assert a["member_a"] == b["member_a"]
        idx_a = int(a["member_a"].split("member-")[1].split(".")[0])
        idx_b = int(a["member_b"].split("member-")[1].split(".")[0])
        assert idx_b == idx_a + 1


# Files a rerun of ``_save_indexed(d, "member", ...)`` must delete with their
# sidecars (stale matching names), and files it must leave as they are.
STALE_MEMBERS = ("member-7.ckpt", "member-01.ckpt")
UNTOUCHED = ("member-x.ckpt", "member-1.ckpt.bak", "curve-control-0.ckpt",
             "curve-control-0.ckpt.json")


class TestSaveIndexed:
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_reruns_keep_exactly_the_last_write(self, counts):
        spec = LayerSpec((2, 3, 2))
        with tempfile.TemporaryDirectory() as tmp:
            directory, reference = Path(tmp, "run"), Path(tmp, "reference")
            directory.mkdir()
            for name in STALE_MEMBERS:
                (directory / name).write_bytes(b"stale payload")
                (directory / f"{name}.json").write_bytes(b"stale header")
            for name in UNTOUCHED:
                (directory / name).write_bytes(name.encode())
            for write, n in enumerate(counts):
                ckpts = [Checkpoint(init_model(spec, 10 * write + j), None, {"index": j})
                         for j in range(n)]
                names = harness._save_indexed(directory, "member", ckpts)
                expected = [f"member-{j}.ckpt" for j in range(n)]
                assert names == expected
                assert sorted(p.name for p in directory.iterdir()) == sorted(
                    [*expected, *(f"{name}.json" for name in expected), *UNTOUCHED])
                for name in UNTOUCHED:
                    assert (directory / name).read_bytes() == name.encode()
                for name, ckpt in zip(expected, ckpts):
                    save_checkpoint(reference / name, ckpt)
                    for file in (name, f"{name}.json"):
                        assert (directory / file).read_bytes() == (reference / file).read_bytes()


class TestReportHelpers:
    def test_format_report_renders(self, pretrained):
        cfg, w0 = pretrained
        _, report = harness.run(cfg, w0)
        text = harness.format_report(harness.load_report(cfg.run_dir))
        assert "ensemble vs. member count" in text
        assert report["run_id"] in text
