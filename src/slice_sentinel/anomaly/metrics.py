"""Confusion-matrix metrics and ROC for the traffic classifiers.

Rates follow the usual conventions: tpr + fnr = 100 and tnr + fpr = 100 as
percentages whenever both classes appear in the test set; rates whose class
is absent are reported as ``None``, never as zero.

``evaluate`` scores a whole test set with one call, ``model.predict(X)``, on
the test set's feature matrix.  It returns one label per row, each 0 or 1
(any other label is a ``ValueError`` naming its row), and either one class-1
score per row or ``None``.  The ROC sweep (and so ``auc``) is computed only
when there are scores and both classes appear.  A bound method of a model,
such as ``model.predict_one``, is taken as the model itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset


@dataclass
class EvalMetrics:
    accuracy: float
    tpr: Optional[float]
    tnr: Optional[float]
    fnr: Optional[float]
    fpr: Optional[float]
    roc: list[tuple[float, float]] = field(default_factory=list)  # (fpr, tpr) fractions
    auc: Optional[float] = None
    confusion: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "tpr": self.tpr,
            "tnr": self.tnr,
            "fnr": self.fnr,
            "fpr": self.fpr,
            "auc": self.auc,
            "roc": [[f, t] for f, t in self.roc],
            "confusion": self.confusion,
        }

    def roc_csv(self) -> str:
        lines = ["fpr,tpr"]
        lines += [f"{f:.6f},{t:.6f}" for f, t in self.roc]
        return "\n".join(lines) + "\n"


def rate_identities_hold(
    tpr: Optional[float],
    fnr: Optional[float],
    tnr: Optional[float],
    fpr: Optional[float],
    tolerance: float = 1e-6,
) -> tuple[bool, dict[str, float]]:
    """Check tpr+fnr = 100 and tnr+fpr = 100 (percent scale).

    Returns the verdict plus each pair's deviation from 100, so callers can
    report which convention failed by how much.
    """
    deviations: dict[str, float] = {}
    if tpr is not None and fnr is not None:
        deviations["tpr+fnr"] = abs((tpr + fnr) - 100.0)
    if tnr is not None and fpr is not None:
        deviations["tnr+fpr"] = abs((tnr + fpr) - 100.0)
    ok = all(d <= tolerance for d in deviations.values())
    return ok, deviations


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """Threshold sweep over descending attack scores, from (0,0) to (1,1):
    one point after the last row of each distinct score, in a stable sort."""
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        return []
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(labels[order] == 1)
    fp = np.arange(1, len(order) + 1) - tp
    # The last group's point is (1.0, 1.0), appended as such.
    ends = np.flatnonzero(ranked[1:] != ranked[:-1])
    return [(0.0, 0.0), *zip((fp[ends] / negatives).tolist(), (tp[ends] / positives).tolist()),
            (1.0, 1.0)]


def auc_from_points(points: list[tuple[float, float]]) -> Optional[float]:
    if not points:
        return None
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def evaluate(model, test_set: Dataset) -> EvalMetrics:
    """Score a classifier over a test set (see the module docstring for what
    ``model.predict`` is given and must return)."""
    # A bound method such as ``model.predict_one`` stands for its model.
    model = getattr(model, "__self__", model)
    if test_set.n_rows == 0:
        raise ValueError("test set is empty")
    labels = test_set.labels
    predicted, scores = model.predict(test_set.features)
    predicted = np.asarray(predicted)
    if predicted.shape != labels.shape or (scores is not None and np.shape(scores) != labels.shape):
        raise ValueError(f"predict must give one label, and one score or none, per row of {labels.size}")
    bad = np.flatnonzero((predicted != 0) & (predicted != 1))
    if bad.size:
        first = int(bad[0])
        raise ValueError(f"row {first}: predicted label {predicted[first].item()!r} is not 0 or 1")
    # Cell truth * 2 + predicted: 0 = tn, 1 = fp, 2 = fn, 3 = tp.
    tn, fp, fn, tp = np.bincount(labels * 2 + predicted.astype(int), minlength=4).tolist()

    positives = tp + fn
    negatives = tn + fp
    total = positives + negatives
    accuracy = 100.0 * (tp + tn) / total
    tpr = 100.0 * tp / positives if positives else None
    fnr = 100.0 * fn / positives if positives else None
    tnr = 100.0 * tn / negatives if negatives else None
    fpr = 100.0 * fp / negatives if negatives else None

    roc: list[tuple[float, float]] = []
    auc: Optional[float] = None
    if scores is not None and positives and negatives:
        roc = roc_points(np.asarray(scores, dtype=float), labels)
        auc = auc_from_points(roc)

    return EvalMetrics(
        accuracy=accuracy, tpr=tpr, tnr=tnr, fnr=fnr, fpr=fpr,
        roc=roc, auc=auc,
        confusion={"tp": tp, "tn": tn, "fp": fp, "fn": fn},
    )
