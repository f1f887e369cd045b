import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfge.errors import InvalidArgumentError
from pfge.metrics import PredictionBatch, accuracy, ece, nll, reliability


def random_prediction_batch(rng, n=40, classes=4):
    logits = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, classes))
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    labels = rng.integers(0, classes, size=n)
    return PredictionBatch(probs, labels)


class TestPredictionBatch:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(InvalidArgumentError):
            PredictionBatch(np.array([[0.7, 0.7]]), np.array([0]))

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            PredictionBatch(np.array([[0.5, 0.5]]), np.array([2]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            PredictionBatch(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestAccuracy:
    def test_perfect_predictor(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        assert accuracy(PredictionBatch(probs, np.array([0, 1, 2, 1]))) == 1.0

    def test_perfectly_wrong(self):
        probs = np.eye(3)[[1, 2, 0]]
        assert accuracy(PredictionBatch(probs, np.array([0, 1, 2]))) == 0.0

    def test_three_of_four(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        labels = np.array([0, 0, 1, 1])
        assert accuracy(PredictionBatch(probs, labels)) == 0.75

    def test_tie_breaks_to_lowest_index(self):
        probs = np.array([[0.5, 0.5]])
        assert accuracy(PredictionBatch(probs, np.array([0]))) == 1.0
        assert accuracy(PredictionBatch(probs, np.array([1]))) == 0.0


class TestNll:
    def test_certain_and_correct(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert nll(PredictionBatch(probs, np.array([0, 0]))) == 0.0

    def test_single_row_inverse_e(self):
        p = np.exp(-1.0)
        probs = np.array([[p, 1.0 - p]])
        assert nll(PredictionBatch(probs, np.array([0]))) == pytest.approx(1.0, abs=1e-12)

    def test_mean_of_two_rows(self):
        p1, p3 = np.exp(-1.0), np.exp(-3.0)
        probs = np.array([[p1, 1.0 - p1], [p3, 1.0 - p3]])
        assert nll(PredictionBatch(probs, np.array([0, 0]))) == pytest.approx(2.0, abs=1e-12)

    def test_floor_guards_log_zero(self):
        probs = np.array([[1.0, 0.0]])
        value = nll(PredictionBatch(probs, np.array([1])))
        assert np.isfinite(value)
        assert value == pytest.approx(-np.log(1e-12))


class TestEce:
    def test_single_bin_collapse(self):
        rng = np.random.default_rng(0)
        p = random_prediction_batch(rng)
        expected = abs(accuracy(p) - float(p.probs.max(axis=1).mean()))
        assert ece(p, 1) == pytest.approx(expected, abs=1e-15)

    def test_confident_and_correct_is_calibrated(self):
        probs = np.eye(4)[[0, 1, 2, 3]]
        p = PredictionBatch(probs, np.array([0, 1, 2, 3]))
        assert ece(p, 15) == 0.0

    def test_hand_computed_two_bins(self):
        # Bin (0, 0.5]: one row, confidence 0.5, correct (tie to class 0).
        # Bin (0.5, 1]: three rows, confidences 0.6, 0.55, 0.55, one correct.
        # ECE = 1/4 * |1 - 0.5| + 3/4 * |1/3 - 1.7/3| = 0.125 + 0.175 = 0.3.
        probs = np.array(
            [[0.4, 0.6], [0.55, 0.45], [0.5, 0.5], [0.45, 0.55]]
        )
        labels = np.array([1, 1, 0, 0])
        assert ece(PredictionBatch(probs, labels), 2) == pytest.approx(0.3, abs=1e-12)

    def test_identity_on_randomized_batches(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            p = random_prediction_batch(rng, n=int(rng.integers(1, 60)))
            lhs = ece(p, 1)
            rhs = abs(accuracy(p) - float(p.probs.max(axis=1).mean()))
            assert abs(lhs - rhs) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_prediction_batch(rng)
            value = ece(p, 15)
            assert 0.0 <= value <= 1.0


class TestReliability:
    def test_counts_partition_samples(self):
        rng = np.random.default_rng(11)
        p = random_prediction_batch(rng, n=57)
        bins = reliability(p, 10)
        assert bins.counts.sum() == 57

    def test_ece_recoverable_from_bins(self):
        rng = np.random.default_rng(12)
        for b in (1, 2, 5, 15):
            p = random_prediction_batch(rng)
            assert abs(reliability(p, b).ece_value() - ece(p, b)) < 1e-12

    def test_empty_bin_convention(self):
        # Two classes: confidence is always > 0.5, so low bins stay empty.
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        p = PredictionBatch(probs, np.array([0, 1]))
        bins = reliability(p, 4)
        assert bins.empty[0] and bins.empty[1]
        assert bins.counts[0] == 0
        assert bins.confidences[0] == 0.0
        assert bins.accuracies[0] == 0.0
        assert not bins.empty[3]

    def test_right_closed_edges(self):
        # Confidence exactly 0.5 belongs to the lower bin (0, 0.5].
        probs = np.array([[0.5, 0.5]])
        bins = reliability(PredictionBatch(probs, np.array([0])), 2)
        assert bins.counts[0] == 1
        assert bins.counts[1] == 0

    def test_csv_columns(self, tmp_path):
        rng = np.random.default_rng(13)
        p = random_prediction_batch(rng)
        path = tmp_path / "bins.csv"
        reliability(p, 5).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count,confidence,accuracy"
        assert len(lines) == 6


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        p = random_prediction_batch(rng, n=30)
        perm = rng.permutation(30)
        q = PredictionBatch(p.probs[perm], p.labels[perm])
        assert accuracy(p) == accuracy(q)
        assert nll(p) == pytest.approx(nll(q), abs=1e-14)
        assert ece(p, 15) == pytest.approx(ece(q, 15), abs=1e-14)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(22)
        p = random_prediction_batch(rng, n=25)
        q = PredictionBatch(np.vstack([p.probs, p.probs]), np.concatenate([p.labels, p.labels]))
        assert accuracy(p) == accuracy(q)
        assert nll(p) == pytest.approx(nll(q), abs=1e-14)
        assert ece(p, 15) == pytest.approx(ece(q, 15), abs=1e-14)


@st.composite
def prediction_batches(draw):
    """Rows of positive weights normalized to probabilities, with labels."""
    classes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 50))
    weights = np.array(draw(st.lists(
        st.lists(st.floats(1e-3, 1e3), min_size=classes, max_size=classes),
        min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    return PredictionBatch(weights / weights.sum(axis=1, keepdims=True), labels)


class TestReliabilityProperties:
    @given(p=prediction_batches(), bins=st.integers(1, 20))
    def test_counts_sum_to_n_and_ece_is_bounded(self, p, bins):
        result = reliability(p, bins)
        assert result.counts.sum() == len(p)
        assert result.n_samples == len(p)
        value = result.ece_value()
        assert 0.0 <= value <= 1.0
        assert value == ece(p, bins)
