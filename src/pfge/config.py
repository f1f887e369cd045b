"""Experiment configuration: a single JSON document, schema-validated, with
``key=value`` override support and epoch-to-iteration resolution.

Epoch-denominated schedule and budget fields convert through
``iterations_per_epoch = ceil(N_train / batch_size)``, so they can only be
resolved once the training dataset size is known.
"""

import json
import math
from copy import deepcopy
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema

from .errors import ConfigurationError
from .nn import LayerSpec
from .schedule import BudgetSpec, LrSchedule

_DEFAULT_PRETRAIN = {"epochs": 100, "lr": 0.05, "momentum": 0.9, "weight_decay": 5e-4, "l2_coeff": 0.0}
_DEFAULT_OPTIMIZER = {"momentum": 0.9, "weight_decay": 5e-4, "l2_coeff": 0.0}
_DEFAULT_SCHEDULE = {"alpha1": 0.05, "alpha2": 0.0005}
_DEFAULT_CONNECTIVITY = {"k": 2, "iters": 200, "lr": 0.01, "grid_size": 61, "pair": "last"}


def _load_schema(name: str) -> dict:
    text = resources.files("pfge.schemas").joinpath(name).read_text()
    return json.loads(text)


def _schema_violation(doc, schema_name: str) -> Optional[str]:
    """Where and how ``doc`` first breaks the named schema, or None."""
    validator = jsonschema.Draft7Validator(_load_schema(schema_name))
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    return f"at {errors[0].json_path}: {errors[0].message}" if errors else None


def validate_against_schema(doc: dict, schema_name: str) -> None:
    violation = _schema_violation(doc, schema_name)
    if violation:
        raise ConfigurationError(f"config invalid {violation}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with defaults applied.

    ``document`` is the merged JSON document; it is echoed verbatim into run
    reports.
    """

    document: dict

    # -- direct fields ----------------------------------------------------
    @property
    def seed(self) -> int:
        return self.document["seed"]

    @property
    def output_dir(self) -> Path:
        return Path(self.document["output_dir"])

    @property
    def run_id(self) -> str:
        return self.document["run_id"]

    @property
    def run_dir(self) -> Path:
        return self.output_dir / self.run_id

    @property
    def w0_path(self) -> Path:
        return Path(self.document["w0_checkpoint"])

    @property
    def dataset(self) -> dict:
        return self.document["dataset"]

    @property
    def model_spec(self) -> LayerSpec:
        model = self.document["model"]
        return LayerSpec(tuple(model["sizes"]), model["activation"])

    @property
    def batch_size(self) -> int:
        return self.document["batch_size"]

    @property
    def algorithm(self) -> str:
        return self.document["algorithm"]

    @property
    def pretrain(self) -> dict:
        return self.document["pretrain"]

    @property
    def optimizer(self) -> dict:
        return self.document["optimizer"]

    @property
    def ece_bins(self) -> int:
        return self.document["metrics"]["ece_bins"]

    @property
    def last_k(self) -> Optional[int]:
        return self.document["last_k"]

    @property
    def connectivity(self) -> dict:
        return self.document["connectivity"]

    # -- epoch resolution --------------------------------------------------
    def resolve_schedule(self, iterations_per_epoch: int) -> LrSchedule:
        sched = self.document["schedule"]
        cycle_len = _resolve_count(
            sched, "cycle_len", "cycle_epochs", iterations_per_epoch, "schedule"
        )
        return LrSchedule(sched["alpha1"], sched["alpha2"], cycle_len)

    def resolve_budget(self, iterations_per_epoch: int) -> BudgetSpec:
        budget = self.document["budget"]
        total = _resolve_count(
            budget, "total_iters", "total_epochs", iterations_per_epoch, "budget"
        )
        record = None
        if self.algorithm == "pfge":
            if "record_period" not in budget and "record_epochs" not in budget:
                raise ConfigurationError(
                    "budget: pfge needs record_period or record_epochs"
                )
            record = _resolve_count(
                budget, "record_period", "record_epochs", iterations_per_epoch, "budget"
            )
        return BudgetSpec(total, record)


def _resolve_count(section: dict, iters_key: str, epochs_key: str, e: int, where: str) -> int:
    has_iters = iters_key in section
    has_epochs = epochs_key in section
    if has_iters == has_epochs:
        raise ConfigurationError(
            f"{where}: exactly one of {iters_key} or {epochs_key} is required"
        )
    return section[iters_key] if has_iters else section[epochs_key] * e


def iterations_per_epoch(n_samples: int, batch_size: int) -> int:
    return math.ceil(n_samples / batch_size)


_DATASET_REQUIRED = {
    "two_spirals": ["n_per_class"],
    "blobs": ["centers", "n_per_class", "sd"],
    "csv": ["train_path", "test_path"],
    "idx": ["train_images", "train_labels", "test_images", "test_labels"],
}


def _apply_dataset_defaults(doc: dict) -> None:
    ds = doc["dataset"]
    kind = ds["kind"]
    for field in _DATASET_REQUIRED[kind]:
        if field not in ds:
            raise ConfigurationError(f"dataset: kind {kind!r} requires field {field!r}")
    if kind in ("two_spirals", "blobs"):
        ds.setdefault("seed", doc["seed"])
        ds.setdefault("test_seed", ds["seed"] + 1)
        ds.setdefault("test_n_per_class", ds["n_per_class"])
        if kind == "two_spirals":
            ds.setdefault("noise_sd", 0.1)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a raw document, apply defaults, and wrap it."""
    doc = deepcopy(doc)
    validate_against_schema(doc, "config.schema.json")
    doc.setdefault("run_id", f"{doc['algorithm']}-seed{doc['seed']}")
    doc.setdefault("w0_checkpoint", str(Path(doc["output_dir"]) / "w0.ckpt"))
    doc.setdefault("batch_size", 128)
    doc["model"].setdefault("activation", "relu")
    doc.setdefault("pretrain", {})
    doc.setdefault("optimizer", {})
    doc.setdefault("metrics", {})
    doc.setdefault("connectivity", {})
    doc.setdefault("last_k", None)
    for key, value in _DEFAULT_PRETRAIN.items():
        doc["pretrain"].setdefault(key, value)
    for key, value in _DEFAULT_OPTIMIZER.items():
        doc["optimizer"].setdefault(key, value)
    for key, value in _DEFAULT_SCHEDULE.items():
        doc["schedule"].setdefault(key, value)
    for key, value in _DEFAULT_CONNECTIVITY.items():
        doc["connectivity"].setdefault(key, value)
    doc["metrics"].setdefault("ece_bins", 15)
    _apply_dataset_defaults(doc)
    return ExperimentConfig(doc)


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides; values parse as JSON when possible."""
    doc = deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        key, _, raw_value = item.partition("=")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return doc


def load_config(path, overrides=()) -> ExperimentConfig:
    """Read a JSON config file, apply overrides, validate, fill defaults."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    return config_from_dict(apply_overrides(doc, overrides))
