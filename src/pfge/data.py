"""Synthetic dataset generators, CSV/IDX ingestion, and seeded batching."""

import copy
import csv
import hashlib
import io
import math
import os
import stat
import struct
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DataFormatError, InvalidArgumentError, ShapeError
from .files import replacing, write_csv
from .nn import Batch, _as_labels
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
                    np.array(_as_labels(self.labels), order="C"))

    @classmethod
    def _take(cls, inputs: np.ndarray, labels: np.ndarray, classes: int, name: str):
        """Wrap fresh ``inputs`` and ``labels`` that no caller writes to
        afterwards, with the public constructor's checks but, where they
        already are float64 and int64, without its copy."""
        ds = cls.__new__(cls)
        object.__setattr__(ds, "classes", classes)
        object.__setattr__(ds, "name", name)
        ds._adopt(np.asarray(inputs, dtype=np.float64), _as_labels(labels))
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
    if not noise_sd >= 0:  # NaN included
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
    try:
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    except ValueError as exc:
        raise InvalidArgumentError(f"centers must be equal-length rows of numbers: {exc}") from None
    if centers.ndim != 2 or centers.size == 0:
        raise InvalidArgumentError(
            f"centers must be a nonempty 2-D array, got shape {centers.shape}"
        )
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


def load_csv(path, cache_dir=None) -> Dataset:
    """Load a dataset from CSV with header ``f0,...,f{D-1},label``.

    Row order is preserved. Labels must be nonnegative integers; the class
    count is inferred as ``max(label) + 1``.

    A file whose body is plain numeric ASCII is read once, in chunks of
    ``_CHUNK_BYTES``, and parsed by ``_load_plain_csv`` as it is read, so a
    load holds one chunk of the file plus the parsed arrays. Any other file,
    and any plain one that fails a check, is read whole by
    ``_load_csv_checked``, which accepts it or names the offending line.

    Given ``cache_dir``, a parsed split is kept there as one ``.npz`` entry
    per source path (named by the SHA-256 of the resolved path) holding the
    SHA-256 of the bytes parsed, ``inputs`` and ``labels``. A later call
    whose file hashes, chunk by chunk, to the same digest takes the arrays
    from that entry, through the same finite and label checks, instead of
    parsing the text again. An entry that cannot be read or does not match
    counts as a miss and is rewritten; a file that fails to parse leaves no
    entry; and a failed write does not fail the load. Deleting ``cache_dir``
    is always safe.
    """
    if cache_dir is None:
        return _parse_csv(path)[0]
    entry = Path(cache_dir) / (
        hashlib.sha256(str(Path(path).resolve()).encode()).hexdigest() + ".npz")
    ds = _read_cache_entry(entry, path)
    if ds is None:
        ds, digest = _parse_csv(path)
        _write_cache_entry(entry, digest, ds)
    return ds


def _parse_csv(path) -> tuple:
    """The dataset in the CSV file ``path`` and the SHA-256 (hex) of the
    bytes it was parsed from."""
    with open(path, "rb") as fh:
        if (parsed := _load_plain_csv(fh, path)) is None:
            fh.seek(0)
            raw = fh.read()
            parsed = _load_csv_checked(raw, path), hashlib.sha256(raw).hexdigest()
    return parsed


def _read_cache_entry(entry: Path, path) -> Optional[Dataset]:
    """The split cached in ``entry`` if it was parsed from bytes with the
    SHA-256 of the file ``path`` now and passes every check, else None."""
    try:
        with open(entry, "rb") as fh, open(path, "rb") as csv_fh:
            npz = np.load(fh, allow_pickle=False)
            if str(npz["digest"]) != hashlib.file_digest(csv_fh, "sha256").hexdigest():
                return None
            inputs, labels = npz["inputs"], npz["labels"]
    except Exception:
        # A missing, truncated or damaged entry can fail in the zip reader, a
        # decompressor or the array parser in many ways; each only means the
        # split is parsed again, which also reports an unreadable ``path``.
        return None
    if inputs.dtype != np.float64 or labels.dtype != np.int64 or not inputs.flags.c_contiguous:
        return None
    try:
        return Dataset._take(inputs, labels, int(labels.max()) + 1, str(path))
    except ValueError:
        # Empty or misshapen arrays, non-finite features or negative labels.
        return None


def _write_cache_entry(entry: Path, digest: str, ds: Dataset) -> None:
    """Store ``ds`` in ``entry``; any ``OSError`` leaves the split uncached."""
    with suppress(OSError):
        entry.parent.mkdir(parents=True, exist_ok=True)
        with replacing(entry) as fh:
            np.savez(fh, digest=np.array(digest), inputs=ds.inputs, labels=ds.labels)


# The only bytes a plain CSV body may hold. On such cells ``np.loadtxt`` and
# ``float()`` both hand the text to CPython's ``PyOS_string_to_double``, so
# they accept the same cells and round them to the same doubles; numpy's
# int64 parser accepts the label cells ``int()`` accepts and can store; and
# ``bytes.splitlines`` ends lines where ``csv.reader`` ends rows.
_PLAIN_BODY_BYTES = b"0123456789+-.eE,\r\n"

# How many bytes of a CSV file ``_csv_lines`` reads at a time.
_CHUNK_BYTES = 1 << 20


def _csv_lines(fh, digest):
    """The lines of the binary file ``fh``, read once in chunks of
    ``_CHUNK_BYTES`` that each update ``digest`` and are cut at their last
    line end. Raises ``ValueError`` on a file of fewer than two lines, an
    empty line, or a byte outside ``_PLAIN_BODY_BYTES`` after the first line."""
    tail, after_cr, odd, header, count = b"", False, b"", None, 0
    while chunk := fh.read(_CHUNK_BYTES):
        digest.update(chunk)
        odd += chunk.translate(None, _PLAIN_BODY_BYTES)
        lines = chunk.splitlines()
        if after_cr and chunk.startswith(b"\n"):
            del lines[0]  # the \n of a \r\n that the chunk boundary cut in two
        elif tail:
            lines[0] = tail + lines[0]
        after_cr = chunk.endswith(b"\r")
        tail = b"" if after_cr or chunk.endswith(b"\n") else lines.pop()
        header = lines[0] if header is None and lines else header
        # Only the header may hold bytes outside the body's alphabet.
        if not all(lines) or (header and odd != header.translate(None, _PLAIN_BODY_BYTES)):
            raise ValueError("not a plain CSV file")
        count += len(lines)
        yield from lines
    if count + bool(tail) < 2:
        raise ValueError("not a plain CSV file")
    yield tail  # ``np.loadtxt`` skips it where it is empty


def _load_plain_csv(fh, path) -> Optional[tuple]:
    """Parse the binary file ``fh`` in one pass, through one ``np.loadtxt``
    call, if its body is plain numeric ASCII and passes every check
    ``_load_csv_checked`` makes: return the dataset and the SHA-256 (hex)
    of the bytes read, or None, so that parser can accept or reject it."""
    digest = hashlib.sha256()
    lines = _csv_lines(fh, digest)
    try:
        header = next(lines)
        n_features = header.count(b",")
        expected = ",".join([f"f{i}" for i in range(n_features)] + ["label"]).encode()
        if n_features < 1 or header != expected:
            return None
        table = np.loadtxt(lines, dtype=[("x", "f8", (n_features,)), ("y", "i8")],
                           delimiter=",", comments=None, ndmin=1)
        # ``_take`` rejects negative labels and non-finite features.
        return (Dataset._take(np.ascontiguousarray(table["x"]), table["y"].copy(),
                              int(table["y"].max()) + 1, str(path)), digest.hexdigest())
    except ValueError:
        return None


# The largest label ``_load_csv_checked`` can store as int64.
_MAX_LABEL = int(np.iinfo(np.int64).max)


def _load_csv_checked(raw: bytes, path) -> Dataset:
    """The validating CSV parser for the bytes ``raw`` of the file ``path``:
    ``csv.reader`` rows, ``float()`` features, ``int()`` labels, and a
    ``DataFormatError`` naming the line of the first bad row."""
    try:
        # Decoded in the chunks a text file reads, so a bad row before the
        # first undecodable chunk is still the error reported.
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="") as fh:
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
    write_csv(path, [f"f{i}" for i in range(ds.n_features)] + ["label"],
              (x.tolist() + [y] for x, y in zip(ds.inputs, ds.labels.tolist())))


_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801


def _read_exact(fh, count: int, path, what: str, last: bool = False) -> bytes:
    # A header can claim more bytes than fit in memory; compare the claim with
    # what a regular file holds before asking for that many.
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode) and count > info.st_size - fh.tell():
        raise DataFormatError(
            f"{path}: truncated file while reading {what}: needs {count} bytes, "
            f"the file holds {info.st_size - fh.tell()} more"
        )
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
    keep standardization well defined for constant features. Features too
    large for either to be finite are a ``DataFormatError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.inputs.mean(axis=0)
        std = ds.inputs.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        j = bad[0]
        raise DataFormatError(f"{ds.name}: feature {j} has a non-finite mean ({mean[j]}) "
                              f"or standard deviation ({std[j]})")
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def apply_standardization(ds: Dataset, mean, std) -> Dataset:
    """``ds`` with features ``(x - mean) / std``, computed into one fresh array.
    ``mean`` and ``std`` hold one value per feature (else ``ShapeError``), and
    every std must be finite and positive (else ``InvalidArgumentError``)."""
    return _standardize(ds, mean, std, np.empty_like(ds.inputs))


def _standardize_in_place(ds: Dataset, mean, std) -> Dataset:
    """``apply_standardization`` computed over ``ds``'s own inputs, so the raw
    and the standardized split are never both in memory. For a dataset a
    loader has just returned, which nothing else holds: ``ds`` is spent."""
    ds.inputs.flags.writeable = True
    return _standardize(ds, mean, std, ds.inputs)


def _standardize(ds: Dataset, mean, std, out: np.ndarray) -> Dataset:
    """``(ds.inputs - mean) / std`` into ``out``, as a dataset; ``mean`` and
    ``std`` hold one value per feature, every std finite and positive."""
    mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
    if mean.shape != (ds.n_features,) or std.shape != (ds.n_features,):
        raise ShapeError(f"standardization statistics of shapes {mean.shape} and {std.shape} "
                         f"do not match {ds.n_features} features")
    if not np.all((std > 0) & (std < np.inf)):
        raise InvalidArgumentError("standardization std must be finite and positive")
    np.subtract(ds.inputs, mean, out=out)
    out /= std
    return Dataset._take(out, ds.labels, ds.classes, ds.name)


class BatchStream:
    """Reproducible mini-batch iterator.

    Every epoch visits the whole dataset in a fresh seeded permutation; the
    final short batch is included. Iterating the stream yields batches
    indefinitely, rolling over epoch boundaries. The permutation sequence is
    a pure function of ``seed``, and each call to ``iter()`` replays it from
    the start. Each batch holds fresh copies of its rows, built through
    ``Batch._take``: rows of a checked ``Dataset`` are float64 and int64
    already, so they are not converted or checked again.
    """

    # How many leading batches iterating the stream passes over (``_after``).
    _skipped = 0

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

    def _after(self, skipped: int) -> "BatchStream":
        """This stream without its first ``skipped`` batches: iterating it
        draws the permutations of the epochs they cover but gathers none of
        their rows."""
        stream = copy.copy(self)
        stream._skipped = skipped
        return stream

    def __iter__(self):
        rng = stream_rng(self.seed, STREAM_SHUFFLE)
        inputs, labels, n = self.dataset.inputs, self.dataset.labels, len(self.dataset)
        epochs, first = divmod(self._skipped, self.iterations_per_epoch)
        for _ in range(epochs):
            rng.permutation(n)
        while True:
            perm = rng.permutation(n)
            for start in range(first * self.batch_size, n, self.batch_size):
                idx = perm[start : start + self.batch_size]
                yield Batch._take(inputs.take(idx, axis=0), labels[idx])
            first = 0


def batches(ds: Dataset, batch_size: int, seed: int) -> BatchStream:
    """Construct a seeded batch stream over ``ds``."""
    return BatchStream(ds, batch_size, seed)
