import itertools
import struct

import numpy as np
import pytest

from pfge import data
from pfge.data import (
    BatchStream,
    Dataset,
    apply_standardization,
    batches,
    feature_stats,
    gen_blobs,
    gen_two_spirals,
    load_csv,
    load_idx,
    save_csv,
)
from pfge.errors import ConfigurationError, DataFormatError, InvalidArgumentError, ShapeError
from pfge.nn import Batch
from pfge.rng import STREAM_SHUFFLE, stream_rng


class TestDataset:
    def test_rejects_out_of_range_labels(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), classes=2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), classes=1)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), classes=1)

    @pytest.mark.parametrize("labels", [[0.0, 1.9], [0.0, np.nan], [0.0, 0.5]])
    def test_rejects_non_integral_labels(self, labels):
        with pytest.raises(InvalidArgumentError, match="finite integers"):
            Dataset(np.zeros((2, 2)), labels, classes=2)

    def test_accepts_integral_float_labels(self):
        ds = Dataset(np.zeros((2, 2)), [0.0, 1.0], classes=2)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1]

    def test_immutable(self):
        ds = Dataset(np.ones((2, 2)), np.array([0, 1]), classes=2)
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 5.0


class TestTwoSpirals:
    def test_deterministic(self):
        a = gen_two_spirals(50, noise_sd=0.1, seed=3)
        b = gen_two_spirals(50, noise_sd=0.1, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_counts(self):
        ds = gen_two_spirals(100, noise_sd=0.0, seed=0)
        assert len(ds) == 200
        assert ds.classes == 2
        assert np.sum(ds.labels == 0) == 100

    def test_arms_related_by_half_turn(self):
        ds = gen_two_spirals(80, noise_sd=0.0, seed=0)
        arm0 = ds.inputs[ds.labels == 0]
        arm1 = ds.inputs[ds.labels == 1]
        assert np.max(np.abs(arm1 + arm0)) < 1e-9

    def test_nan_noise_is_rejected(self):
        with pytest.raises(InvalidArgumentError, match="noise_sd"):
            gen_two_spirals(20, noise_sd=float("nan"), seed=5)

    def test_noise_changes_points(self):
        clean = gen_two_spirals(20, noise_sd=0.0, seed=5)
        noisy = gen_two_spirals(20, noise_sd=0.1, seed=5)
        assert not np.array_equal(clean.inputs, noisy.inputs)


class TestBlobs:
    def test_single_center(self):
        ds = gen_blobs([[0.0, 0.0]], n_per_class=10, sd=1.0, seed=0)
        assert np.all(ds.labels == 0)
        assert ds.classes == 1

    def test_zero_sd_collapses_to_centers(self):
        centers = [[1.0, 2.0], [-3.0, 4.0]]
        ds = gen_blobs(centers, n_per_class=5, sd=0.0, seed=0)
        assert np.array_equal(ds.inputs[:5], np.tile(centers[0], (5, 1)))
        assert np.array_equal(ds.inputs[5:], np.tile(centers[1], (5, 1)))

    def test_cluster_means_near_centers(self):
        centers = [[0.0, 0.0], [10.0, -10.0]]
        n, sd = 400, 0.5
        ds = gen_blobs(centers, n_per_class=n, sd=sd, seed=12)
        for idx, center in enumerate(centers):
            mean = ds.inputs[ds.labels == idx].mean(axis=0)
            assert np.all(np.abs(mean - center) < 4.0 * sd / np.sqrt(n))

    def test_empty_centers(self):
        with pytest.raises(InvalidArgumentError):
            gen_blobs([], n_per_class=3, sd=1.0, seed=0)

    @pytest.mark.parametrize("centers", [[[]], [[0.0, 0.0], [1.0]], [[[0.0]]], [["a"]]])
    def test_malformed_centers(self, centers):
        with pytest.raises(InvalidArgumentError):
            gen_blobs(centers, n_per_class=3, sd=1.0, seed=0)


class TestCsv:
    def test_fixture_roundtrip_values(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f0,f1,label\n1.5,-2.0,0\n0.25,3.0,1\n-1.0,0.5,1\n")
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.classes == 2
        assert np.array_equal(ds.inputs, [[1.5, -2.0], [0.25, 3.0], [-1.0, 0.5]])
        assert np.array_equal(ds.labels, [0, 1, 1])

    def test_save_load_identity(self, tmp_path):
        original = gen_two_spirals(25, noise_sd=0.2, seed=9)
        path = tmp_path / "spirals.csv"
        save_csv(original, path)
        restored = load_csv(path)
        assert np.array_equal(original.inputs, restored.inputs)
        assert np.array_equal(original.labels, restored.labels)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1,2,0\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\noops,1\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,1.5\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,-1\n")
        with pytest.raises(DataFormatError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")


class TestSplitCache:
    """``load_csv(path, cache_dir)`` parses a file's bytes once and serves
    later loads of the same bytes from its one entry in ``cache_dir``."""

    @staticmethod
    def write_split(tmp_path, seed=1):
        path = tmp_path / "split.csv"
        save_csv(gen_blobs([[0.0, 1.0], [2.0, -1.0], [1.0, 1.0]], 7, 1.0, seed), path)
        return path

    @staticmethod
    def forbid_parsing(monkeypatch):
        def parse(path):
            raise AssertionError(f"{path} was parsed")
        monkeypatch.setattr(data, "_parse_csv", parse)

    def test_hit_is_bit_identical_and_named_by_the_current_path(self, tmp_path, monkeypatch):
        path = self.write_split(tmp_path)
        cache = tmp_path / "cache"
        want = load_csv(path)
        cold = load_csv(path, cache)
        self.forbid_parsing(monkeypatch)
        other_name = tmp_path / "cache" / ".." / "split.csv"
        warm = load_csv(other_name, cache)
        for got in (cold, warm):
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.inputs.dtype == np.float64 and got.labels.dtype == np.int64
            assert got.classes == want.classes == 3
        assert (cold.name, warm.name) == (str(path), str(other_name))
        assert not warm.inputs.flags.writeable and not warm.labels.flags.writeable
        assert len(list(cache.iterdir())) == 1

    def test_changed_bytes_reparse_and_overwrite_the_entry(self, tmp_path, monkeypatch):
        path = self.write_split(tmp_path, seed=1)
        cache = tmp_path / "cache"
        load_csv(path, cache)
        (entry,) = cache.iterdir()
        before = entry.read_bytes()
        self.write_split(tmp_path, seed=2)
        changed = load_csv(path, cache)
        assert changed.inputs.tobytes() == load_csv(path).inputs.tobytes()
        assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() != before
        self.forbid_parsing(monkeypatch)
        assert load_csv(path, cache).inputs.tobytes() == changed.inputs.tobytes()

    @pytest.mark.parametrize("damage", ["garbage", "empty", "truncated", "float32", "int32",
                                        "npy", "pickle", "other-digest", "nan", "negative",
                                        "no-rows", "flat-inputs", "fortran"])
    def test_a_bad_entry_is_a_miss(self, tmp_path, damage):
        path = self.write_split(tmp_path)
        cache = tmp_path / "cache"
        want = load_csv(path, cache)
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        digest = str(np.load(entry)["digest"])
        inputs, labels = want.inputs, want.labels
        bad = {
            "garbage": lambda: entry.write_bytes(b"not an archive"),
            "empty": lambda: entry.write_bytes(b""),
            "truncated": lambda: entry.write_bytes(good[: len(good) // 2]),
            "float32": lambda: np.savez(entry, digest=digest, inputs=inputs.astype(np.float32),
                                        labels=labels),
            "int32": lambda: np.savez(entry, digest=digest, inputs=inputs,
                                      labels=labels.astype(np.int32)),
            "npy": lambda: np.save(open(entry, "wb"), inputs),
            "pickle": lambda: np.savez(entry, digest=np.array([digest], dtype=object),
                                       inputs=inputs, labels=labels),
            "other-digest": lambda: np.savez(entry, digest="0" * 64, inputs=inputs * 2,
                                             labels=labels),
            "nan": lambda: np.savez(entry, digest=digest, inputs=inputs * np.nan, labels=labels),
            "negative": lambda: np.savez(entry, digest=digest, inputs=inputs, labels=-labels - 1),
            "no-rows": lambda: np.savez(entry, digest=digest, inputs=inputs[:0], labels=labels[:0]),
            "flat-inputs": lambda: np.savez(entry, digest=digest, inputs=inputs[:, 0],
                                            labels=labels),
            "fortran": lambda: np.savez(entry, digest=digest, inputs=np.asfortranarray(inputs),
                                        labels=labels),
        }
        bad[damage]()
        got = load_csv(path, cache)
        assert got.inputs.tobytes() == want.inputs.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.classes == want.classes
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("text", [
        "f0,label\n1.5,0\n2.5,x\n", "f0,label\n", "f0,f1\n1,0\n", "f0,label\n1,-1\n",
    ])
    def test_bad_csv_raises_the_same_error_and_leaves_no_entry(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as plain:
            load_csv(path)
        cache = tmp_path / "cache"
        with pytest.raises(DataFormatError) as cached:
            load_csv(path, cache)
        assert str(cached.value) == str(plain.value)
        assert not cache.exists() or not list(cache.iterdir())

    def test_cache_dir_that_is_a_file_still_loads(self, tmp_path):
        path = self.write_split(tmp_path)
        blocker = tmp_path / "cache"
        blocker.write_text("a regular file")
        for _ in range(2):
            got = load_csv(path, blocker)
            assert got.inputs.tobytes() == load_csv(path).inputs.tobytes()
        assert blocker.read_text() == "a regular file"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "split.csv"]


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2,
                   image_magic=0x803, label_magic=0x801, truncate_images=None):
    n = len(labels)
    image_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + bytes(pixels)
    if truncate_images is not None:
        image_bytes = image_bytes[:truncate_images]
    label_bytes = struct.pack(">II", label_magic, n) + bytes(labels)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(image_bytes)
    labels_path.write_bytes(label_bytes)
    return images_path, labels_path


class TestIdx:
    def test_fixture_exact_values(self, tmp_path):
        pixels = [0, 51, 102, 153, 204, 255, 10, 20]
        images, labels = write_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(images, labels)
        assert len(ds) == 2
        assert ds.n_features == 4
        assert np.array_equal(ds.inputs[0], np.array([0, 51, 102, 153]) / 255.0)
        assert np.array_equal(ds.inputs[1], np.array([204, 255, 10, 20]) / 255.0)
        assert np.array_equal(ds.labels, [1, 0])

    def test_truncated_image_file(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1], truncate_images=18)
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(images, labels)

    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 3, (2**31, 2**31, 4)])
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, dims):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1])
        images.write_bytes(struct.pack(">IIII", 0x803, *dims) + bytes(8))
        claim = dims[0] * dims[1] * dims[2]
        with pytest.raises(DataFormatError, match=f"needs {claim} bytes, the file holds 8 more"):
            load_idx(images, labels)

    def test_bad_magic(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [0, 1], image_magic=0x804)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        n_pixels = [0] * 12
        images_path = tmp_path / "images.idx"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 3, 2, 2) + bytes(n_pixels))
        labels_path = tmp_path / "labels.idx"
        labels_path.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
        with pytest.raises(DataFormatError, match="count"):
            load_idx(images_path, labels_path)

    def test_label_255_accepted(self, tmp_path):
        images, labels = write_idx_pair(tmp_path, [0] * 8, [255, 0])
        ds = load_idx(images, labels)
        assert ds.classes == 256


class TestBatches:
    def test_full_batch_is_permutation(self):
        ds = gen_blobs([[0.0], [5.0]], n_per_class=6, sd=0.1, seed=1)
        stream = batches(ds, batch_size=len(ds), seed=4)
        batch = next(iter(stream))
        assert len(batch) == len(ds)
        assert np.array_equal(np.sort(batch.inputs, axis=0), np.sort(ds.inputs, axis=0))

    def test_short_final_batch(self):
        ds = gen_blobs([[0.0]], n_per_class=10, sd=0.1, seed=1)
        stream = batches(ds, batch_size=4, seed=0)
        sizes = [len(b) for b in itertools.islice(iter(stream), 3)]
        assert sizes == [4, 4, 2]
        assert stream.iterations_per_epoch == 3

    def test_epoch_covers_dataset(self):
        ds = gen_two_spirals(13, noise_sd=0.05, seed=7)
        stream = batches(ds, batch_size=5, seed=2)
        seen = np.vstack([b.inputs for b in itertools.islice(iter(stream), stream.iterations_per_epoch)])
        key = np.lexsort(ds.inputs.T)
        key_seen = np.lexsort(seen.T)
        assert np.array_equal(ds.inputs[key], seen[key_seen])

    def test_deterministic_across_runs(self):
        ds = gen_two_spirals(10, noise_sd=0.05, seed=7)
        a = [b.inputs for b in itertools.islice(iter(batches(ds, 3, seed=5)), 9)]
        b = [b.inputs for b in itertools.islice(iter(batches(ds, 3, seed=5)), 9)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_epochs_differ(self):
        ds = gen_two_spirals(10, noise_sd=0.05, seed=7)
        stream = iter(batches(ds, 20, seed=5))
        first = next(stream).inputs
        second = next(stream).inputs
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("rows, batch_size", [(13, 5), (20, 20), (9, 1)])
    def test_batches_equal_checked_batches_of_the_same_rows(self, rows, batch_size):
        ds = gen_blobs([[0.0, 1.0], [4.0, -2.0], [1.0, 9.0]], n_per_class=rows, sd=1.0, seed=3)
        stream = batches(ds, batch_size, seed=8)
        rng = stream_rng(8, STREAM_SHUFFLE)
        perms = [rng.permutation(len(ds)) for _ in range(3)]
        starts = range(0, len(ds), batch_size)
        wanted = [perm[lo:lo + batch_size] for perm in perms for lo in starts]
        for batch, idx in zip(iter(stream), wanted):
            want = Batch(ds.inputs[idx], ds.labels[idx])
            for got, expected, dtype in ((batch.inputs, want.inputs, np.float64),
                                         (batch.labels, want.labels, np.int64)):
                assert got.dtype == dtype and got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes()

    def test_a_held_batch_keeps_its_values_into_the_next_epochs(self):
        ds = gen_two_spirals(10, noise_sd=0.05, seed=7)
        stream = iter(batches(ds, 6, seed=5))
        held = next(stream)
        inputs, labels = held.inputs.copy(), held.labels.copy()
        later = list(itertools.islice(stream, 3 * 4))
        assert not any(b.inputs is held.inputs for b in later)
        assert np.array_equal(held.inputs, inputs) and np.array_equal(held.labels, labels)

    def test_batch_size_bounds(self):
        ds = gen_blobs([[0.0]], n_per_class=4, sd=0.1, seed=1)
        with pytest.raises(ConfigurationError):
            batches(ds, 0, seed=0)
        with pytest.raises(ConfigurationError):
            batches(ds, 5, seed=0)


class TestStandardization:
    def test_stats_and_apply(self):
        ds = gen_blobs([[3.0, -2.0]], n_per_class=50, sd=2.0, seed=6)
        mean, std = feature_stats(ds)
        out = apply_standardization(ds, mean, std)
        assert np.allclose(out.inputs.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.inputs.std(axis=0), 1.0, atol=1e-12)

    def test_non_finite_statistics_are_rejected(self):
        # Finite features whose squares (or sum) overflow.
        inputs = np.array([[0.0, 1e300, 1e308], [1.0, -1e300, 1e308]])
        ds = Dataset(inputs, np.zeros(2, dtype=int), 1, name="big.csv")
        with pytest.raises(DataFormatError, match="big.csv: feature 1 has a non-finite"):
            feature_stats(ds)

    @pytest.mark.parametrize("mean, std", [([5.0], [1.0, 1.0]), ([0.0, 0.0], [2.0]),
                                           ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                                           (0.0, [1.0, 1.0])])
    def test_statistics_of_the_wrong_length_are_rejected(self, mean, std):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.zeros(3, dtype=int), 1)
        with pytest.raises(ShapeError, match="2 features"):
            apply_standardization(ds, mean, std)
        with pytest.raises(ShapeError, match="2 features"):
            data._standardize_in_place(Dataset(ds.inputs, ds.labels, 1), mean, std)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_std_must_be_finite_and_positive(self, bad):
        ds = Dataset(np.arange(6.0).reshape(3, 2), np.zeros(3, dtype=int), 1)
        with pytest.raises(InvalidArgumentError, match="std must be finite and positive"):
            apply_standardization(ds, [0.0, 0.0], [1.0, bad])
        with pytest.raises(InvalidArgumentError, match="std must be finite and positive"):
            data._standardize_in_place(Dataset(ds.inputs, ds.labels, 1), [0.0, 0.0], [bad, 1.0])

    def test_constant_feature_guard(self):
        ds = Dataset(np.column_stack([np.ones(5), np.arange(5.0)]), np.zeros(5, dtype=int), 1)
        mean, std = feature_stats(ds)
        assert std[0] == 1.0
        out = apply_standardization(ds, mean, std)
        assert np.all(np.isfinite(out.inputs))
