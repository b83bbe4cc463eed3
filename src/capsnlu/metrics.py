"""Classification metrics: confusion counts and support-weighted averages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray = field(repr=False)  # rows true, columns predicted
    support: np.ndarray = field(repr=False)
    seconds: float = 0.0

    def row(self) -> dict:
        return {
            "accuracy": round(self.accuracy, 6),
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "seconds": round(self.seconds, 3),
        }


def confusion_matrix(y_true, y_pred, num_classes: int) -> np.ndarray:
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ContractError("labels and predictions must be equal-length 1-D")
    if y_true.size == 0:
        raise ContractError("empty corpus")
    for name, ids in (("label", y_true), ("prediction", y_pred)):
        # checked before the int64 cast, which would truncate a fraction
        bad = ids[(ids < 0) | (ids >= num_classes) | (ids != np.floor(ids))]
        if bad.size:
            raise ContractError(f"{name} {bad[0]} is not one of the {num_classes} class ids")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (y_true.astype(np.int64), y_pred.astype(np.int64)), 1)
    return counts


def compute_metrics(y_true, y_pred, num_classes: int, seconds: float = 0.0) -> MetricsReport:
    """Accuracy plus precision/recall/F1 weighted by per-class support.

    Classes without predictions or support contribute 0 for the undefined
    ratio, so metrics stay defined even for degenerate predictions.
    """
    counts = confusion_matrix(y_true, y_pred, num_classes)
    total = counts.sum()
    support = counts.sum(axis=1)
    predicted = counts.sum(axis=0)
    tp = np.diag(counts).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision_c = np.where(predicted > 0, tp / predicted, 0.0)
        recall_c = np.where(support > 0, tp / support, 0.0)
        denom = precision_c + recall_c
        f1_c = np.where(denom > 0, 2.0 * precision_c * recall_c / denom, 0.0)

    weights = support / total
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        precision=float((weights * precision_c).sum()),
        recall=float((weights * recall_c).sum()),
        f1=float((weights * f1_c).sum()),
        confusion=counts,
        support=support,
        seconds=seconds,
    )


def format_report(report: MetricsReport, label_names: list[str]) -> str:
    lines = [
        f"accuracy\t{report.accuracy:.6f}",
        f"precision\t{report.precision:.6f}",
        f"recall\t{report.recall:.6f}",
        f"f1\t{report.f1:.6f}",
        "",
        "label\tsupport\t" + "\t".join(label_names),
    ]
    for i, name in enumerate(label_names):
        row = "\t".join(str(int(v)) for v in report.confusion[i])
        lines.append(f"{name}\t{int(report.support[i])}\t{row}")
    return "\n".join(lines) + "\n"
