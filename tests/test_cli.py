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

    def test_rerun_with_fewer_members_removes_stale_ones(self, config_path, tmp_path, capsys):
        assert main(["pretrain", str(config_path)]) == 0
        fge = ["algorithm=fge", "run_id=fge"]
        assert main(["run", str(config_path), *fge, "budget.total_epochs=4"]) == 0
        run_dir = tmp_path / "runs" / "fge"
        assert (run_dir / "member-3.ckpt").exists()
        assert main(["run", str(config_path), *fge, "budget.total_epochs=2"]) == 0
        assert sorted(p.name for p in run_dir.glob("member-*")) == [
            "member-0.ckpt", "member-0.ckpt.json", "member-1.ckpt", "member-1.ckpt.json"]
        capsys.readouterr()
        assert main(["evaluate", str(config_path), *fge]) == 0
        assert json.loads(capsys.readouterr().out)["n_members"] == 2

    def test_rerun_removes_evaluate_and_connectivity_outputs(self, config_path, tmp_path):
        assert main(["pretrain", str(config_path)]) == 0
        fge = ["algorithm=fge", "run_id=fge"]
        assert main(["run", str(config_path), *fge, "budget.total_epochs=4"]) == 0
        assert main(["evaluate", str(config_path), *fge]) == 0
        assert main(["connectivity", str(config_path), *fge, "connectivity.iters=2",
                     "connectivity.grid_size=3"]) == 0
        run_dir = tmp_path / "runs" / "fge"
        stale = ["evaluation.json", "evaluation_reliability.csv", "connectivity"]
        assert all((run_dir / name).exists() for name in stale)
        assert main(["run", str(config_path), *fge, "budget.total_epochs=2"]) == 0
        assert not any((run_dir / name).exists() for name in stale)


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

    @pytest.mark.parametrize("label", ["9223372036854775808", "99999999999999999999999"])
    def test_oversized_csv_label_is_3(self, config_path, tmp_path, capsys, label):
        train = tmp_path / "train.csv"
        train.write_text(f"f0,f1,label\n0.5,1.0,0\n0.25,0.75,{label}\n")
        override = json.dumps({"kind": "csv", "train_path": str(train),
                               "test_path": str(train)})
        assert main(["pretrain", str(config_path), f"dataset={override}"]) == 3
        assert "train.csv:3" in capsys.readouterr().err

    def test_non_utf8_config_is_2(self, config_path, capsys):
        config_path.write_bytes(config_path.read_bytes().replace(b'"seed"', b'"s\xffed"'))
        assert main(["pretrain", str(config_path)]) == 2
        assert "cfg.json" in capsys.readouterr().err

    def test_non_utf8_csv_is_3(self, config_path, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_bytes(b"f0,f1,label\n0.5,1.0,0\n0.25,0.\xff,1\n")
        override = json.dumps({"kind": "csv", "train_path": str(train),
                               "test_path": str(train)})
        assert main(["pretrain", str(config_path), f"dataset={override}"]) == 3
        assert "train.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw.replace(b'"role"', b'"r\xffle"'),
        lambda raw: b"[1, 2]",
        lambda raw: json.dumps({k: v for k, v in json.loads(raw).items()
                                if k != "layer_sizes"}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "layer_sizes": "2,8,2"}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "activation": "gelu"}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "standardization": "x"}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "standardization": {"mean": [0, 0]}}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "standardization": {
            "mean": ["a", "b"], "std": [1.0, 1.0]}}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "standardization": {
            "mean": [0.5], "std": [1.0, 1.0]}}).encode(),
        lambda raw: json.dumps({**json.loads(raw), "standardization": {
            "mean": [0.0, 0.0], "std": [1.0, 0.0]}}).encode(),
    ], ids=["not-utf8", "not-an-object", "no-layer-sizes", "garbled-layer-sizes",
            "bad-activation", "standardization-not-an-object", "standardization-without-std",
            "standardization-mean-not-numbers", "standardization-mean-too-short",
            "standardization-zero-std"])
    def test_malformed_checkpoint_sidecar_is_3(self, config_path, tmp_path, capsys, corrupt):
        assert main(["pretrain", str(config_path)]) == 0
        sidecar = tmp_path / "runs" / "w0.ckpt.json"
        sidecar.write_bytes(corrupt(sidecar.read_bytes()))
        assert main(["run", str(config_path)]) == 3
        assert "w0.ckpt.json" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_report_is_3(self, config_path, tmp_path, capsys, text):
        report = tmp_path / "runs" / "pfge-seed5" / "report.json"
        report.parent.mkdir(parents=True)
        report.write_text(text)
        assert main(["report", str(config_path)]) == 3
        assert "report.json" in capsys.readouterr().err

    def test_report_off_schema_is_3(self, config_path, tmp_path, capsys):
        assert main(["pretrain", str(config_path)]) == 0
        assert main(["run", str(config_path)]) == 0
        report = tmp_path / "runs" / "pfge-seed5" / "report.json"
        doc = json.loads(report.read_text())
        del doc["resolved"]
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert "report.json" in err and "resolved" in err and "config invalid" not in err

    def test_connectivity_with_one_endpoint_is_2(self, config_path, tmp_path, capsys):
        assert main(["pretrain", str(config_path)]) == 0
        fge = ["algorithm=fge", "run_id=fge"]
        assert main(["run", str(config_path), *fge]) == 0
        member_0 = tmp_path / "runs" / "fge" / "member-0.ckpt"
        code = main(["connectivity", str(config_path), *fge, f"connectivity.member_a={member_0}",
                     "connectivity.iters=0", "connectivity.grid_size=3"])
        assert code == 2
        assert "member_b" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "fge" / "connectivity").exists()

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

    @pytest.mark.parametrize("overrides", [
        ["algorithm=fge", "budget.total_epochs=3", "last_k=9"],
        ["algorithm=pfge", "last_k=3"],
        ["algorithm=swa", "last_k=2"],
        ["algorithm=sgd", "last_k=2"],
    ])
    def test_last_k_beyond_members_fails_before_training(self, config_path, tmp_path,
                                                         capsys, overrides):
        assert main(["pretrain", str(config_path)]) == 0
        assert main(["run", str(config_path), *overrides]) == 2
        assert "last_k" in capsys.readouterr().err
        assert not list((tmp_path / "runs").glob("*/member-*.ckpt"))

    @staticmethod
    def write_csv(tmp_path, name, labels, n_features=2):
        rows = [",".join([f"{0.1 * (i + j):.2f}" for j in range(n_features)] + [str(label)])
                for i, label in enumerate(labels)]
        header = ",".join([f"f{j}" for j in range(n_features)] + ["label"])
        (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")
        return str(tmp_path / name)

    def csv_dataset(self, tmp_path, test_labels, test_features=2):
        train = self.write_csv(tmp_path, "train.csv", [0, 1] * 12)
        test = self.write_csv(tmp_path, "test.csv", test_labels, test_features)
        return "dataset=" + json.dumps({"kind": "csv", "train_path": train, "test_path": test})

    @pytest.mark.parametrize("test_labels,test_features", [([0, 1, 2] * 4, 2), ([0, 1] * 4, 3)])
    def test_run_checks_test_split_before_training(self, config_path, tmp_path, capsys,
                                                   test_labels, test_features):
        dataset = self.csv_dataset(tmp_path, test_labels, test_features)
        assert main(["pretrain", str(config_path), dataset]) == 0
        assert main(["run", str(config_path), dataset]) == 2
        err = capsys.readouterr().err
        assert "test.csv" in err and "test split" in err
        assert not list((tmp_path / "runs").glob("*/member-*.ckpt"))

    def test_evaluate_checks_test_split(self, config_path, tmp_path, capsys):
        good = self.csv_dataset(tmp_path, [0, 1] * 4)
        assert main(["pretrain", str(config_path), good]) == 0
        assert main(["run", str(config_path), good]) == 0
        bad = self.csv_dataset(tmp_path, [0, 1, 2] * 4)
        capsys.readouterr()
        assert main(["evaluate", str(config_path), bad]) == 2
        assert "test.csv" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation(self, config_path):
        result = subprocess.run(
            [sys.executable, "-m", "pfge", "pretrain", str(config_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "saved w0" in result.stdout
