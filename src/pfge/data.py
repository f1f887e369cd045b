"""Synthetic dataset generators, CSV/IDX ingestion, and seeded batching."""

import csv
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DataFormatError, InvalidArgumentError
from .nn import Batch
from .rng import STREAM_DATA, STREAM_SHUFFLE, stream_rng


@dataclass(frozen=True)
class Dataset:
    """Labeled examples: an (N, D) feature matrix plus integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray
    classes: int
    name: str = "dataset"

    def __post_init__(self):
        # A private copy, so the caller's later writes never reach the dataset.
        self._adopt(np.array(self.inputs, dtype=np.float64, order="C"),
                    np.array(self.labels, dtype=np.int64, order="C"))

    @classmethod
    def _take(cls, inputs: np.ndarray, labels: np.ndarray, classes: int, name: str):
        """Wrap fresh ``inputs`` and ``labels`` that no caller writes to
        afterwards, with the public constructor's checks but, where they
        already are float64 and int64, without its copy."""
        ds = cls.__new__(cls)
        object.__setattr__(ds, "classes", classes)
        object.__setattr__(ds, "name", name)
        ds._adopt(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64))
        return ds

    def _adopt(self, inputs: np.ndarray, labels: np.ndarray) -> None:
        """Check ``inputs`` and ``labels``, then freeze them as the dataset's own."""
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise InvalidArgumentError(f"inputs must be a nonempty 2-D array, got {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise InvalidArgumentError(
                f"labels shape {labels.shape} does not match {inputs.shape[0]} rows"
            )
        if not np.all(np.isfinite(inputs)):
            raise InvalidArgumentError("features contain non-finite values")
        if self.classes < 1 or labels.min() < 0 or labels.max() >= self.classes:
            raise InvalidArgumentError(
                f"labels must lie in [0, {self.classes})"
            )
        inputs.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]


def gen_two_spirals(n_per_class: int, noise_sd: float, seed: int) -> Dataset:
    """Two interleaved planar spirals, one per class.

    Class 1 is the half-turn rotation of class 0; Gaussian noise with standard
    deviation ``noise_sd`` is added independently to every coordinate.
    Deterministic in ``seed``.
    """
    if n_per_class < 1:
        raise InvalidArgumentError(f"n_per_class must be >= 1, got {n_per_class}")
    if noise_sd < 0:
        raise InvalidArgumentError("noise_sd must be nonnegative")
    t = np.arange(n_per_class) / n_per_class
    radius = 0.2 + 0.8 * t
    angle = 3.0 * np.pi * t
    arm = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    points = np.vstack([arm, -arm])
    if noise_sd > 0:
        rng = stream_rng(seed, STREAM_DATA)
        points = points + rng.normal(0.0, noise_sd, size=points.shape)
    labels = np.repeat([0, 1], n_per_class)
    return Dataset._take(points, labels, classes=2, name="two_spirals")


def gen_blobs(centers, n_per_class: int, sd: float, seed: int) -> Dataset:
    """Isotropic Gaussian clusters; the label of a point is its center index."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.size == 0:
        raise InvalidArgumentError("centers must be nonempty")
    if n_per_class < 1:
        raise InvalidArgumentError(f"n_per_class must be >= 1, got {n_per_class}")
    if sd < 0:
        raise InvalidArgumentError("sd must be nonnegative")
    rng = stream_rng(seed, STREAM_DATA)
    chunks = []
    for center in centers:
        noise = rng.normal(0.0, 1.0, size=(n_per_class, centers.shape[1]))
        chunks.append(center + sd * noise)
    labels = np.repeat(np.arange(len(centers)), n_per_class)
    return Dataset._take(np.vstack(chunks), labels, classes=len(centers), name="blobs")


def load_csv(path) -> Dataset:
    """Load a dataset from CSV with header ``f0,...,f{D-1},label``.

    Row order is preserved. Labels must be nonnegative integers; the class
    count is inferred as ``max(label) + 1``.

    A body of plain numeric ASCII is parsed in C by ``_load_plain_csv``; any
    other file, and any plain one that fails a check, goes through
    ``_load_csv_checked``, which accepts it or names the offending line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    ds = _load_plain_csv(raw, path)
    return ds if ds is not None else _load_csv_checked(path)


# The only bytes a plain CSV body may hold. On such cells ``np.loadtxt`` and
# ``float()`` both hand the text to CPython's ``PyOS_string_to_double``, so
# they accept the same cells and round them to the same doubles, and
# ``bytes.splitlines`` ends lines where ``csv.reader`` ends rows.
_PLAIN_BODY_BYTES = b"0123456789+-.eE,\r\n"


def _load_plain_csv(raw: bytes, path) -> Optional[Dataset]:
    """Parse ``raw`` with one ``np.loadtxt`` call if its body is plain
    numeric ASCII and passes every check ``_load_csv_checked`` makes; return
    None otherwise, so that parser can accept or reject it."""
    lines = raw.splitlines()
    if len(lines) < 2:
        return None
    header, body = lines[0], lines[1:]
    n_features = header.count(b",")
    expected = ",".join([f"f{i}" for i in range(n_features)] + ["label"]).encode()
    if (n_features < 1 or header != expected
            or raw[len(header):].translate(None, _PLAIN_BODY_BYTES) or not all(body)):
        return None
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        labels = np.fromiter((int(line[line.rfind(b",") + 1:]) for line in body),
                             dtype=np.int64, count=len(body))
    except (ValueError, OverflowError):
        return None
    if table.shape != (len(body), n_features + 1) or labels.min() < 0:
        return None
    inputs = table[:, :-1].copy()
    if not np.isfinite(inputs).all():
        return None
    return Dataset._take(inputs, labels, int(labels.max()) + 1, str(path))


# The largest label ``_load_csv_checked`` can store as int64.
_MAX_LABEL = int(np.iinfo(np.int64).max)


def _load_csv_checked(path) -> Dataset:
    """The validating CSV parser: ``csv.reader`` rows, ``float()`` features,
    ``int()`` labels, and a ``DataFormatError`` naming the line of the first
    bad row."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            n_features = len(header) - 1
            expected = [f"f{i}" for i in range(n_features)] + ["label"]
            if n_features < 1 or header != expected:
                raise DataFormatError(
                    f"{path}: header must be f0,...,f{{D-1}},label, got {header}"
                )
            rows, labels = [], []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                    )
                try:
                    rows.append([float(cell) for cell in row[:-1]])
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: non-numeric feature cell") from None
                try:
                    label = int(row[-1])
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-integer label {row[-1]!r}"
                    ) from None
                if label < 0:
                    raise DataFormatError(f"{path}:{lineno}: negative label {label}")
                if label > _MAX_LABEL:
                    raise DataFormatError(
                        f"{path}:{lineno}: label {label} does not fit in a 64-bit integer"
                    )
                labels.append(label)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    inputs = np.asarray(rows)
    finite_rows = np.isfinite(inputs).all(axis=1)
    if not finite_rows.all():
        raise DataFormatError(f"{path}:{np.argmin(finite_rows) + 2}: non-finite feature cell")
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(inputs, labels, classes=int(labels.max()) + 1, name=str(path))


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the schema ``load_csv`` reads; floats use repr precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(ds.n_features)] + ["label"])
        for x, y in zip(ds.inputs, ds.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, count: int, path, what: str, last: bool = False) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise DataFormatError(f"{path}: truncated file while reading {what}")
    if last and fh.read(1):
        raise DataFormatError(f"{path}: trailing bytes after the {what}")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style IDX image/label file pair.

    Both files are big-endian: magic, dimension sizes, then raw unsigned
    bytes. Pixels are scaled to [0, 1]; the class count is inferred as
    ``max(label) + 1``.
    """
    with open(images_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, images_path, "magic"))
        if magic != _IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{_IDX_IMAGE_MAGIC:08x}"
            )
        n_images, n_rows, n_cols = struct.unpack(
            ">III", _read_exact(fh, 12, images_path, "dimensions")
        )
        pixels = _read_exact(fh, n_images * n_rows * n_cols, images_path, "pixel data", True)
    with open(labels_path, "rb") as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, labels_path, "magic"))
        if magic != _IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{_IDX_LABEL_MAGIC:08x}"
            )
        (n_labels,) = struct.unpack(">I", _read_exact(fh, 4, labels_path, "count"))
        label_bytes = _read_exact(fh, n_labels, labels_path, "label data", True)
    if n_images != n_labels:
        raise DataFormatError(
            f"image count {n_images} does not match label count {n_labels}"
        )
    if n_images * n_rows * n_cols == 0:
        raise DataFormatError(f"{images_path}: no pixel data ({n_images}x{n_rows}x{n_cols})")
    inputs = np.frombuffer(pixels, dtype=np.uint8).reshape(n_images, n_rows * n_cols)
    inputs = inputs.astype(np.float64)
    inputs /= 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    return Dataset._take(inputs, labels, int(labels.max()) + 1, str(images_path))


def feature_stats(ds: Dataset):
    """Per-feature mean and standard deviation, with the deviation floored to
    keep standardization well defined for constant features."""
    mean = ds.inputs.mean(axis=0)
    std = ds.inputs.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def apply_standardization(ds: Dataset, mean, std) -> Dataset:
    """``ds`` with features ``(x - mean) / std``, computed into one fresh array."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    inputs = ds.inputs - mean
    inputs /= std
    return Dataset._take(inputs, ds.labels, ds.classes, ds.name)


class BatchStream:
    """Reproducible mini-batch iterator.

    Every epoch visits the whole dataset in a fresh seeded permutation; the
    final short batch is included. Iterating the stream yields batches
    indefinitely, rolling over epoch boundaries. The permutation sequence is
    a pure function of ``seed``, and each call to ``iter()`` replays it from
    the start.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        if not (1 <= batch_size <= len(dataset)):
            raise ConfigurationError(
                f"batch_size must be in [1, {len(dataset)}], got {batch_size}"
            )
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed

    @property
    def iterations_per_epoch(self) -> int:
        return math.ceil(len(self.dataset) / self.batch_size)

    def __iter__(self):
        rng = stream_rng(self.seed, STREAM_SHUFFLE)
        n = len(self.dataset)
        while True:
            perm = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = perm[start : start + self.batch_size]
                yield Batch(self.dataset.inputs[idx], self.dataset.labels[idx])


def batches(ds: Dataset, batch_size: int, seed: int) -> BatchStream:
    """Construct a seeded batch stream over ``ds``."""
    return BatchStream(ds, batch_size, seed)
