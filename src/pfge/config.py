"""Experiment configuration: a single JSON document, schema-validated, with
``key=value`` override support and epoch-to-iteration resolution.

Epoch-denominated schedule and budget fields convert through
``iterations_per_epoch = ceil(N_train / batch_size)``, so they can only be
resolved once the training dataset size is known.

``config.schema.json`` declares each key's type, its per-key bounds and its
fixed default. The schema, like JSON Schema Draft 7, counts an integral float
such as ``2.0`` or ``1e300`` as an integer; once a document validates, every
such value becomes a Python int and every absent key the schema gives a
``default`` takes it. What the schema cannot state is done here: defaults
derived from other keys (``run_id``, ``w0_checkpoint`` and a generated
dataset's seeds, test size and noise), the schema's seed bound on the
derived ``dataset.test_seed``, and limits on products and resolved counts.
A generated split holds at most ``MAX_GENERATED_ROWS`` rows, the model at
most ``MAX_PARAMETERS`` parameters, the curve's ``k - 1`` interior
controls at most ``MAX_PARAMETERS`` together, and each iteration count
(training budget, cycle length, recording period, pretraining, curve
training) is at most ``MAX_ITERATIONS``. A larger value is a
``ConfigurationError`` naming its key, so no size reaches an allocation or a
loop it cannot finish.
"""

import math
from copy import deepcopy
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import schema
from .errors import ConfigurationError
from .files import _parse_json, read_json
from .nn import LayerSpec
from .schedule import BudgetSpec, LrSchedule

# The training loop keeps a 16-byte trace entry per iteration, so this bounds
# its trace at 160 MB; a run at the limit takes hours on the smallest model.
MAX_ITERATIONS = 10**7
# Rows of one generated (two_spirals or blobs) split.
MAX_GENERATED_ROWS = 10**6
# Parameters of ``model.sizes``: one weight vector is then at most 800 MB,
# and a training loop holds four (weights, velocity, gradient, average). The
# curve's k - 1 interior controls also hold at most this many together.
MAX_PARAMETERS = 10**8


def _schema_violation(doc, schema_name: str) -> Optional[str]:
    """Where and how ``doc`` first breaks the named schema, or None."""
    error = schema.load(schema_name).first_error(doc)
    return f"at {error[0]}: {error[1]}" if error else None


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

    def resolve_pretrain(self, iterations_per_epoch: int) -> int:
        """Pretraining iterations: ``pretrain.epochs`` epochs."""
        return _iterations(self.pretrain["epochs"] * iterations_per_epoch, "pretrain.epochs")

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
    key = iters_key if has_iters else epochs_key
    return _iterations(section[key] * (1 if has_iters else e), f"{where}.{key}")


def _iterations(count: int, what: str) -> int:
    if count > MAX_ITERATIONS:
        raise ConfigurationError(
            f"{what} resolves to more than the limit of {MAX_ITERATIONS} iterations"
        )
    return count


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
    if kind == "blobs":
        centers = ds["centers"]
        if not centers or not centers[0] or any(len(c) != len(centers[0]) for c in centers):
            raise ConfigurationError(
                "dataset.centers: need one or more centres, all with the same "
                f"nonzero number of coordinates, got {centers}"
            )
    if kind in ("two_spirals", "blobs"):
        ds.setdefault("seed", doc["seed"])
        ds.setdefault("test_seed", ds["seed"] + 1)
        seed_max = schema.load("config.schema.json").document["properties"]["seed"]["maximum"]
        if ds["test_seed"] > seed_max:
            raise ConfigurationError(f"dataset.test_seed: dataset.seed + 1 = {ds['test_seed']} "
                                     f"exceeds the maximum of {seed_max}; give it explicitly")
        ds.setdefault("test_n_per_class", ds["n_per_class"])
        if kind == "two_spirals":
            ds.setdefault("noise_sd", 0.1)
        classes = 2 if kind == "two_spirals" else len(ds["centers"])
        for key in ("n_per_class", "test_n_per_class"):
            if ds[key] * classes > MAX_GENERATED_ROWS:
                raise ConfigurationError(
                    f"dataset.{key}: {classes} classes of this size exceed the limit "
                    f"of {MAX_GENERATED_ROWS} generated rows"
                )


def _normalized(node, sub: dict):
    """``node`` with every float that ``sub`` types as an integer made an int
    and every absent property that ``sub`` gives a ``default`` filled in; the
    result may share objects with ``node`` and ``sub``, so callers copy it."""
    types = sub.get("type", ())
    if isinstance(node, float) and "integer" in ([types] if isinstance(types, str) else types):
        return int(node)
    if isinstance(node, dict):
        props = sub.get("properties", {})
        node = {**{k: s["default"] for k, s in props.items() if "default" in s}, **node}
        return {k: _normalized(v, props[k]) if k in props else v for k, v in node.items()}
    if isinstance(node, list) and "items" in sub:
        return [_normalized(v, sub["items"]) for v in node]
    return node


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate a raw document, apply defaults, and wrap it."""
    validate_against_schema(doc, "config.schema.json")
    doc = deepcopy(_normalized(doc, schema.load("config.schema.json").document))
    doc.setdefault("run_id", f"{doc['algorithm']}-seed{doc['seed']}")
    doc.setdefault("w0_checkpoint", str(Path(doc["output_dir"]) / "w0.ckpt"))
    _apply_dataset_defaults(doc)
    cfg = ExperimentConfig(doc)
    _check_sizes(cfg)
    return cfg


def _check_sizes(cfg: ExperimentConfig) -> None:
    """Raise unless the model's and the curve's parameters and the curve's
    iterations are within their limits; a layer spec's parameters are counted
    without allocating."""
    n_params = cfg.model_spec.param_count
    if n_params > MAX_PARAMETERS:
        raise ConfigurationError(
            f"model.sizes: {n_params} parameters exceed the limit of {MAX_PARAMETERS}"
        )
    interior = (cfg.connectivity["k"] - 1) * n_params
    if interior > MAX_PARAMETERS:
        raise ConfigurationError(
            f"connectivity.k: {interior} interior control parameters exceed the "
            f"limit of {MAX_PARAMETERS}"
        )
    _iterations(cfg.connectivity["iters"], "connectivity.iters")


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply ``dotted.key=value`` overrides; values parse as JSON when possible,
    under the rule JSON files are read by, so a non-finite number stays text."""
    doc = deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        key, _, raw_value = item.partition("=")
        try:
            value = _parse_json(raw_value)
        except ValueError:
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
    doc = read_json(path, ConfigurationError, "config")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    return config_from_dict(apply_overrides(doc, overrides))
