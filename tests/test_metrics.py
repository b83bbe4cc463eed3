import numpy as np
import pytest

from capsnlu.autodiff import ContractError
from capsnlu.metrics import compute_metrics, confusion_matrix, format_report


class TestComputeMetrics:
    def test_perfect_classifier(self):
        r = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert r.accuracy == r.precision == r.recall == r.f1 == 1.0

    def test_hand_confusion_arithmetic(self):
        # classes (a, a, b) predicted (a, b, b)
        r = compute_metrics([0, 0, 1], [0, 1, 1], 2)
        assert r.accuracy == pytest.approx(2 / 3)
        # F1_a = F1_b = 2/3, weighted by supports (2, 1)
        assert r.f1 == pytest.approx(2 / 3, abs=1e-9)
        assert r.f1 == pytest.approx(0.6667, abs=1e-4)

    def test_prediction_of_unsupported_class(self):
        # class 2 never occurs in truth but is predicted once
        r = compute_metrics([0, 0, 1], [0, 2, 1], 3)
        assert r.accuracy == pytest.approx(2 / 3)
        assert np.isfinite([r.precision, r.recall, r.f1]).all()

    def test_empty_corpus(self):
        with pytest.raises(ContractError):
            compute_metrics([], [], 2)

    @pytest.mark.parametrize("truth, preds", [([0, 1], [0]), ([[0, 1]], [[0, 1]])], ids=["lengths", "2-d"])
    def test_labels_and_predictions_of_other_shapes_are_named(self, truth, preds):
        with pytest.raises(ContractError, match="labels and predictions must be equal-length 1-D"):
            compute_metrics(truth, preds, 2)

    def test_negative_prediction_is_named(self):
        # np.add.at would count -1 as the last class and report accuracy 1.0
        with pytest.raises(ContractError, match="prediction -1"):
            compute_metrics([0, 1, 1], [0, 1, -1], 2)
        with pytest.raises(ContractError, match="label -1"):
            compute_metrics([0, 1, -1], [0, 1, 1], 2)

    def test_id_past_the_last_class_is_named(self):
        with pytest.raises(ContractError, match="prediction 2"):
            compute_metrics([0, 1, 1], [0, 1, 2], 2)
        with pytest.raises(ContractError, match="label 5"):
            confusion_matrix([0, 5], [0, 1], 2)
        # int64 conversion would truncate 0.2 and 1.9 and report accuracy 1.0
        with pytest.raises(ContractError, match="prediction 0.2 "):
            compute_metrics([0, 1], [0.2, 1.9], 2)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, k = int(rng.integers(2, 40)), int(rng.integers(2, 6))
            y = rng.integers(0, k, size=n)
            p = rng.integers(0, k, size=n)
            r = compute_metrics(y, p, k)
            assert r.recall == pytest.approx(r.accuracy, abs=1e-12)
            assert r.accuracy == pytest.approx(np.trace(r.confusion) / n, abs=1e-12)

    def test_confusion_rows_sum_to_support(self):
        y = [0, 0, 1, 2, 2, 2]
        p = [0, 1, 1, 2, 0, 2]
        counts = confusion_matrix(y, p, 3)
        np.testing.assert_array_equal(counts.sum(axis=1), [2, 1, 3])

    def test_against_sklearn_oracle(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, k = int(rng.integers(5, 60)), int(rng.integers(2, 7))
            y = rng.integers(0, k, size=n)
            p = rng.integers(0, k, size=n)
            r = compute_metrics(y, p, k)
            assert r.accuracy == pytest.approx(sklearn_metrics.accuracy_score(y, p))
            assert r.precision == pytest.approx(
                sklearn_metrics.precision_score(y, p, average="weighted", zero_division=0)
            )
            assert r.recall == pytest.approx(
                sklearn_metrics.recall_score(y, p, average="weighted", zero_division=0)
            )
            assert r.f1 == pytest.approx(
                sklearn_metrics.f1_score(y, p, average="weighted", zero_division=0)
            )

    def test_format_report(self):
        r = compute_metrics([0, 1], [0, 1], 2)
        text = format_report(r, ["a", "b"])
        assert "accuracy\t1.000000" in text
        assert text.splitlines()[-1].startswith("b\t1")
