"""Shared estimator input validation."""

from __future__ import annotations

import numpy as np


def check_matrix(X) -> np.ndarray:
    X = np.asarray(X)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("feature matrix is empty")
    if X.dtype.kind == "f" and not np.isfinite(X).all():
        raise ValueError("feature matrix has non-finite values (NaN or infinity)")
    return X


def check_features_labels(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = check_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(
            f"labels must be one per row: X has {X.shape[0]} rows, y has shape {y.shape}"
        )
    # Sort the labels only to name them in the error.
    if ((y != 0) & (y != 1)).any():
        raise ValueError(f"labels must be binary 0/1, got {sorted(set(np.unique(y).tolist()))}")
    return X, y.astype(int)


def class_counts(column: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``column`` and a ``(values, 2)`` table
    whose row ``i`` counts the rows of label 0 and of label 1 that hold value
    ``i``; ``y`` holds one 0/1 label per row.

    A non-negative integer column whose largest value is at most four times
    its length, which every binned column is, is counted by one ``bincount``
    over ``value * 2 + label``: nothing is sorted, and the values are the
    rows whose count is not zero.  Any other column is first mapped to the
    indices of its sorted values by ``np.unique``; the bound only keeps the
    ``bincount`` array small.
    """
    if column.dtype.kind in "iu":
        high = int(column.max())
        if column.min() >= 0 and high <= 4 * len(column):
            codes = column.astype(np.intp, copy=False) * 2 + y
            table = np.bincount(codes, minlength=2 * high + 2).reshape(-1, 2)
            held = np.flatnonzero(table[:, 0] + table[:, 1])
            return held.astype(column.dtype, copy=False), table[held]
    values, inverse = np.unique(column, return_inverse=True)
    return values, np.bincount(inverse * 2 + y, minlength=2 * len(values)).reshape(-1, 2)


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise RuntimeError(f"{type(estimator).__name__} is not fitted yet")
