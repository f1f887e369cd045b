import json
import struct
import subprocess
import sys

import pytest

from pfge.cli import main


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "seed": 5,
        "output_dir": str(tmp_path / "runs"),
        "dataset": {"kind": "two_spirals", "n_per_class": 24, "noise_sd": 0.1,
                    "test_n_per_class": 40},
        "model": {"sizes": [2, 8, 2]},
        "batch_size": 12,
        "pretrain": {"epochs": 5, "lr": 0.1},
        "algorithm": "pfge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.005, "cycle_epochs": 1},
        "budget": {"total_epochs": 4, "record_epochs": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestVerbs:
    def test_full_workflow(self, config_path, tmp_path, capsys):
        assert main(["pretrain", str(config_path)]) == 0
        assert (tmp_path / "runs" / "w0.ckpt").exists()
        assert main(["run", str(config_path)]) == 0
        run_dir = tmp_path / "runs" / "pfge-seed5"
        assert (run_dir / "report.json").exists()
        assert main(["evaluate", str(config_path), "last_k=2"]) == 0
        assert (run_dir / "evaluation.json").exists()
        assert main(["connectivity", str(config_path), "connectivity.iters=5",
                     "connectivity.grid_size=7"]) == 0
        assert (run_dir / "connectivity" / "curve_profile.csv").exists()
        assert main(["report", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "ensemble vs. member count" in out

    def test_overrides_reach_run(self, config_path, tmp_path):
        assert main(["pretrain", str(config_path)]) == 0
        assert main(["run", str(config_path), "algorithm=swa", "run_id=swa-trial"]) == 0
        report = json.loads((tmp_path / "runs" / "swa-trial" / "report.json").read_text())
        assert report["algorithm"] == "swa"
        assert len(report["members"]) == 1


class TestExitCodes:
    def test_config_error_is_2(self, config_path):
        assert main(["run", str(config_path), "algorithm=swag"]) == 2

    def test_missing_w0_is_3(self, config_path):
        assert main(["run", str(config_path)]) == 3

    def test_missing_config_is_3(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == 3

    def test_missing_dataset_file_is_3(self, config_path, tmp_path):
        override = json.dumps(
            {"kind": "csv", "train_path": str(tmp_path / "a.csv"),
             "test_path": str(tmp_path / "b.csv")}
        )
        assert main(["pretrain", str(config_path), f"dataset={override}"]) == 3

    @staticmethod
    def idx_override(tmp_path, n_items, trailing=b""):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, n_items, 1, 2)
                           + bytes(2 * n_items) + trailing)
        labels.write_bytes(struct.pack(">II", 0x801, n_items) + bytes(n_items))
        paths = {"train_images": str(images), "train_labels": str(labels),
                 "test_images": str(images), "test_labels": str(labels)}
        return "dataset=" + json.dumps({"kind": "idx", **paths})

    def test_empty_idx_pair_is_3(self, config_path, tmp_path, capsys):
        assert main(["pretrain", str(config_path), self.idx_override(tmp_path, 0)]) == 3
        assert "images.idx" in capsys.readouterr().err

    def test_idx_trailing_bytes_is_3(self, config_path, tmp_path, capsys):
        override = self.idx_override(tmp_path, 4, trailing=b"\x00")
        assert main(["pretrain", str(config_path), override]) == 3
        assert "images.idx" in capsys.readouterr().err

    def test_nan_csv_feature_is_3(self, config_path, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("f0,f1,label\n0.5,1.0,0\n0.25,nan,1\n")
        override = json.dumps({"kind": "csv", "train_path": str(train),
                               "test_path": str(train)})
        assert main(["pretrain", str(config_path), f"dataset={override}"]) == 3
        assert "train.csv:3" in capsys.readouterr().err

    def test_numeric_blowup_is_4(self, config_path):
        assert main(["pretrain", str(config_path)]) == 0
        code = main(["run", str(config_path), "schedule.alpha1=1e154", "schedule.alpha2=1.0"])
        assert code == 4

    def test_evaluate_without_members_is_2(self, config_path):
        assert main(["pretrain", str(config_path)]) == 0
        assert main(["evaluate", str(config_path)]) == 2

    def test_budget_violation_is_2(self, config_path):
        assert main(["pretrain", str(config_path)]) == 0
        assert main(["run", str(config_path), "budget.record_epochs=3",
                     "schedule.cycle_epochs=2"]) == 2


class TestConsoleEntry:
    def test_module_invocation(self, config_path):
        result = subprocess.run(
            [sys.executable, "-m", "pfge", "pretrain", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "saved w0" in result.stdout
