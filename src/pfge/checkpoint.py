"""Weight checkpoints: a raw binary payload plus a JSON header sidecar.

The payload is the flat parameter vector as little-endian float64 bytes, so
two runs can be compared byte-for-byte. The sidecar carries the architecture,
optional feature-standardization statistics, free-form creation metadata, and
a SHA-256 digest of the payload that is verified on load.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .files import read_json, replacing, write_json
from .nn import LayerSpec, ModelWeights

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A loaded or to-be-saved weight vector with its header metadata."""

    weights: ModelWeights
    standardization: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    @property
    def spec(self) -> LayerSpec:
        return self.weights.spec


def _payload_bytes(w: ModelWeights) -> bytes:
    return w.values.astype("<f8").tobytes()


def _digest(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def header_path(path) -> Path:
    return Path(str(path) + ".json")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write ``<path>`` (payload) and ``<path>.json`` (header)."""
    path = Path(path)
    payload = _payload_bytes(ckpt.weights)
    header = {
        "format_version": FORMAT_VERSION,
        "layer_sizes": list(ckpt.spec.sizes),
        "activation": ckpt.spec.activation,
        "n_params": ckpt.spec.param_count,
        "digest": _digest(payload),
        "standardization": ckpt.standardization,
        "meta": ckpt.meta,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as fh:
        fh.write(payload)
    write_json(header_path(path), header)


def load_checkpoint(path) -> Checkpoint:
    """Load and validate a checkpoint pair; raises DataFormatError on any
    inconsistency (missing or malformed sidecar, digest mismatch, wrong
    payload length)."""
    path = Path(path)
    sidecar = header_path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint payload not found: {path}")
    if not sidecar.exists():
        raise DataFormatError(f"checkpoint header not found: {sidecar}")
    header = read_json(sidecar, DataFormatError, "header")
    if not isinstance(header, dict):
        raise DataFormatError(f"{sidecar}: header must be a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{sidecar}: unsupported format version {header.get('format_version')!r}"
        )
    payload = path.read_bytes()
    if _digest(payload) != header.get("digest"):
        raise DataFormatError(f"{path}: payload digest does not match header")
    sizes = header.get("layer_sizes")
    if not (isinstance(sizes, list) and all(type(size) is int for size in sizes)):
        raise DataFormatError(f"{sidecar}: layer_sizes must be a list of integers, got {sizes!r}")
    try:
        spec = LayerSpec(tuple(sizes), header.get("activation"))
    except ConfigurationError as exc:
        raise DataFormatError(f"{sidecar}: {exc}") from None
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != spec.param_count:
        raise DataFormatError(
            f"{path}: payload holds {values.size} values, spec needs {spec.param_count}"
        )
    stats = header.get("standardization")
    _check_standardization(stats, spec.sizes[0], sidecar)
    return Checkpoint(
        weights=ModelWeights(spec, values),
        standardization=stats,
        meta=header.get("meta", {}),
    )


def _check_standardization(stats, n_inputs: int, sidecar: Path) -> None:
    """Accept ``None`` or ``{"mean": [...], "std": [...]}`` holding
    ``n_inputs`` numbers each, with every deviation positive; ``read_json``
    has already rejected every non-finite number."""
    if stats is None:
        return
    if not isinstance(stats, dict):
        raise DataFormatError(f"{sidecar}: standardization must be null or an object")
    for key in ("mean", "std"):
        values = stats.get(key)
        if not (isinstance(values, list) and len(values) == n_inputs
                and all(type(v) in (int, float) for v in values)):
            raise DataFormatError(
                f"{sidecar}: standardization {key} must be a list of {n_inputs} finite numbers"
            )
    if not all(v > 0 for v in stats["std"]):
        raise DataFormatError(f"{sidecar}: standardization std must be positive")
