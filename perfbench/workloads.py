"""The benchmark's workloads: seeded synthetic inputs, configs and verb plans.

Each workload turns a seed into input files plus one experiment config, and
lists the CLI verbs one repetition runs, with what each verb's outputs must
satisfy. The program under test only ever sees the files and the config.
Sizes are fixed per workload, so every shape-derived count is the same for
every seed; only the values drawn change.

Why each workload exists is in ``WHY`` (copied into ``BENCHMARK.json``) and,
at length, in ``perfbench/README.md``.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

WHY = {
    "spirals-sweep": "tiny (2,64,64,2) model with every algorithm: Python loop and per-step "
    "bookkeeping dominate, BLAS does little",
    "idx-wide": "784-wide (784,256,256,10) model on IDX files: BLAS-bound gradient, "
    "270k-parameter optimizer, averaging and checkpoint traffic",
    "csv-analysis": "CSV blobs, fge with many members and a large test split: full-dataset "
    "forward passes, CSV parsing and duplicated evaluation dominate",
}

# Minimum final-ensemble test accuracy of the primary algorithm; each sits
# well above chance (0.5, 0.1 and 0.125) and below what every seed reaches.
ACCURACY_FLOOR = {"spirals-sweep": 0.75, "idx-wide": 0.75, "csv-analysis": 0.75}


def _samples(iters: int, n: int, batch: int) -> int:
    """SGD samples consumed by ``iters`` steps of a stream over ``n`` rows."""
    per_epoch = math.ceil(n / batch)
    epochs, rest = divmod(iters, per_epoch)
    return epochs * n + min(rest * batch, n)


def _expected_members(doc: dict, algorithm: str, per_epoch: int) -> int:
    if algorithm in ("sgd", "swa"):
        return 1
    total = doc["budget"]["total_epochs"] * per_epoch
    if algorithm == "fge":
        return total // (doc["schedule"]["cycle_epochs"] * per_epoch)
    return total // (doc["budget"]["record_epochs"] * per_epoch)


def _plan(name: str, doc: dict, n_train: int, algorithms, primary: str,
          analysed: str, evaluate_overrides) -> dict:
    """The verb sequence of one repetition and the checks on its outputs."""
    batch = doc["batch_size"]
    per_epoch = math.ceil(n_train / batch)
    steps = [{"verb": "pretrain", "overrides": []}]
    samples = _samples(doc["pretrain"]["epochs"] * per_epoch, n_train, batch)
    for algo in algorithms:
        steps.append({
            "verb": "run",
            "overrides": [f"algorithm={algo}"],
            "algorithm": algo,
            "members": _expected_members(doc, algo, per_epoch),
        })
        samples += _samples(doc["budget"]["total_epochs"] * per_epoch, n_train, batch)
    members = _expected_members(doc, analysed, per_epoch)
    for extra in evaluate_overrides:
        steps.append({
            "verb": "evaluate",
            "overrides": [f"algorithm={analysed}", *extra],
            "algorithm": analysed,
            "members": members,
        })
    steps.append({
        "verb": "connectivity",
        "overrides": [f"algorithm={analysed}"],
        "algorithm": analysed,
        "grid_size": doc["connectivity"]["grid_size"],
    })
    return {
        "workload": name,
        "seed": doc["seed"],
        "document": doc,
        "steps": steps,
        "primary": primary,
        "accuracy_floor": ACCURACY_FLOOR[name],
        "train_samples": samples,
    }


def _spirals_sweep(inputs: Path, seed: int) -> dict:
    n_per_class = 400
    doc = {
        "seed": seed,
        "output_dir": "runs",
        "dataset": {"kind": "two_spirals", "n_per_class": n_per_class, "noise_sd": 0.1,
                    "test_n_per_class": 5000},
        "model": {"sizes": [2, 64, 64, 2]},
        "batch_size": 32,
        "pretrain": {"epochs": 100, "lr": 0.1},
        "algorithm": "pfge",
        "schedule": {"alpha1": 0.1, "alpha2": 0.0005, "cycle_epochs": 2},
        "budget": {"total_epochs": 30, "record_epochs": 10},
        "connectivity": {"k": 2, "iters": 300, "lr": 0.02, "grid_size": 21},
    }
    return _plan("spirals-sweep", doc, 2 * n_per_class, ("sgd", "swa", "fge", "pfge"),
                 primary="pfge", analysed="fge", evaluate_overrides=[[], ["last_k=5"]])


def _write_idx(images_path: Path, labels_path: Path, pixels: np.ndarray, labels: np.ndarray):
    n = pixels.shape[0]
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())


def _idx_split(rng, prototypes: np.ndarray, n_per_class: int, noise: float):
    classes = prototypes.shape[0]
    labels = rng.permutation(np.repeat(np.arange(classes), n_per_class)).astype(np.uint8)
    pixels = prototypes[labels] + rng.normal(0.0, noise, size=(labels.size, prototypes.shape[1]))
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels


def _idx_wide(inputs: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    # Both splits are drawn around the same class prototypes; with separate
    # prototypes per split the test set would be unlearnable. The prototypes
    # are ten rows of a 16x16 Hadamard matrix, each entry spread over 49
    # pixels and the pixels shuffled per seed: every pair of classes differs
    # in exactly 392 pixels for every seed, so difficulty does not vary.
    hadamard = np.array([[1.0]])
    while hadamard.shape[0] < 16:
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    rows = rng.choice(np.arange(1, 16), size=10, replace=False)
    patterns = np.repeat(hadamard[rows], 49, axis=1)[:, rng.permutation(784)]
    prototypes = 128.0 + 12.0 * patterns
    n_train_per_class, n_test_per_class = 300, 600
    files = {}
    for split, n_per_class in (("train", n_train_per_class), ("test", n_test_per_class)):
        pixels, labels = _idx_split(rng, prototypes, n_per_class, noise=90.0)
        files[f"{split}_images"] = str(inputs / f"{split}-images.idx3-ubyte")
        files[f"{split}_labels"] = str(inputs / f"{split}-labels.idx1-ubyte")
        _write_idx(Path(files[f"{split}_images"]), Path(files[f"{split}_labels"]), pixels, labels)
    doc = {
        "seed": seed,
        "output_dir": "runs",
        "dataset": {"kind": "idx", **files},
        "model": {"sizes": [784, 256, 256, 10]},
        "batch_size": 128,
        "pretrain": {"epochs": 4, "lr": 0.05},
        "algorithm": "pfge",
        "schedule": {"alpha1": 0.05, "alpha2": 0.0005, "cycle_epochs": 1},
        "budget": {"total_epochs": 6, "record_epochs": 2},
        "connectivity": {"k": 2, "iters": 20, "lr": 0.01, "grid_size": 5},
    }
    return _plan("idx-wide", doc, 10 * n_train_per_class, ("pfge",),
                 primary="pfge", analysed="pfge", evaluate_overrides=[[]])


def _simplex_centers(rng, classes: int, dims: int, radius: float) -> np.ndarray:
    """Equidistant class centers, so class overlap is the same for every seed."""
    q, _ = np.linalg.qr(rng.normal(size=(dims, classes)))
    return radius * q.T


def _csv_analysis(inputs: Path, seed: int) -> dict:
    from pfge import gen_blobs, save_csv

    rng = np.random.default_rng([seed, 3])
    centers = _simplex_centers(rng, classes=8, dims=32, radius=3.0).tolist()
    n_train_per_class, n_test_per_class = 500, 750
    train_path, test_path = inputs / "train.csv", inputs / "test.csv"
    save_csv(gen_blobs(centers, n_train_per_class, 1.0, seed), train_path)
    save_csv(gen_blobs(centers, n_test_per_class, 1.0, seed + 1), test_path)
    doc = {
        "seed": seed,
        "output_dir": "runs",
        "dataset": {"kind": "csv", "train_path": str(train_path), "test_path": str(test_path)},
        "model": {"sizes": [32, 128, 128, 8]},
        "batch_size": 64,
        "pretrain": {"epochs": 6, "lr": 0.05},
        "algorithm": "fge",
        "schedule": {"alpha1": 0.05, "alpha2": 0.0005, "cycle_epochs": 1},
        "budget": {"total_epochs": 12},
        "connectivity": {"k": 2, "iters": 60, "lr": 0.01, "grid_size": 31},
    }
    return _plan("csv-analysis", doc, 8 * n_train_per_class, ("fge",),
                 primary="fge", analysed="fge", evaluate_overrides=[[]])


_BUILDERS = {
    "spirals-sweep": _spirals_sweep,
    "idx-wide": _idx_wide,
    "csv-analysis": _csv_analysis,
}

NAMES = tuple(_BUILDERS)


def prepare(name: str, inputs: Path, seed: int) -> dict:
    """Write the workload's input files under ``inputs`` and return its plan."""
    inputs.mkdir(parents=True, exist_ok=True)
    plan = _BUILDERS[name](inputs, seed)
    (inputs / "plan.json").write_text(json.dumps(plan, indent=2, sort_keys=True) + "\n")
    return plan
