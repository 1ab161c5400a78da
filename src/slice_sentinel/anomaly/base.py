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


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise RuntimeError(f"{type(estimator).__name__} is not fitted yet")
