"""Datasets for the traffic classifiers: CSV loading, quantile binning and a
seeded synthetic flow-feature generator."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .base import check_features_labels, check_fitted, check_matrix


@dataclass
class Dataset:
    features: np.ndarray  # (n_rows, n_features)
    labels: np.ndarray  # 0 = benign, 1 = attack
    feature_names: list[str]

    def __post_init__(self) -> None:
        self.features, self.labels = check_features_labels(self.features, self.labels)
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} names for {self.features.shape[1]} features"
            )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def arity(self) -> int:
        return self.features.shape[1]

    def subset(self, rows) -> "Dataset":
        return Dataset(self.features[rows], self.labels[rows], list(self.feature_names))

    def select_columns(self, indices) -> "Dataset":
        names = [self.feature_names[i] for i in indices]
        return Dataset(self.features[:, list(indices)], self.labels, names)


def load_csv(path) -> Dataset:
    """Read a dataset CSV: header of feature names plus a ``label`` column.

    Every cell must hold a finite number; the error for one that does not
    names its data row (1-based) and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: dataset CSV is empty")
        if "label" not in header:
            raise ValueError("dataset CSV needs a 'label' column")
        label_idx = header.index("label")
        names = [h for i, h in enumerate(header) if i != label_idx]
        rows, labels = [], []
        for record in reader:
            if not record:
                continue
            row_no = len(rows) + 1
            if len(record) != len(header):
                raise ValueError(
                    f"{path}: row {row_no} has {len(record)} cells, the header has {len(header)}"
                )
            values = [_finite_cell(raw, path, row_no, name) for raw, name in zip(record, header)]
            labels.append(values.pop(label_idx))
            rows.append(values)
    # Float labels reach Dataset's binary check as read, so 0.5 is refused, not truncated.
    return Dataset(np.array(rows, dtype=float), np.array(labels, dtype=float), names)


def _finite_cell(raw: str, path, row_no: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: row {row_no}, column {column!r} holds {raw!r}, not a finite number")
    return value


# (name, benign (mean, sd), attack (mean, sd)) of each class-shifted column.
_SHIFTED_COLUMNS = (
    ("packet_rate", (60, 12), (900, 90)),
    ("byte_rate", (8_000, 1_500), (90_000, 9_000)),
    ("flag_entropy", (0.9, 0.25), (2.6, 0.3)),
    ("duration_ms", (500, 120), (80, 20)),
)
_NOISE_COLUMNS = ("noise_0", "noise_1")


def synthetic_flow_dataset(n_rows: int = 2000, seed: int = 0) -> Dataset:
    """Seeded generator of flow feature vectors with a shifted attack class.

    Half the rows are attacks.  Benign traffic sits around moderate packet
    and byte rates; attack rows are drawn from clearly higher-rate,
    shorter-duration distributions, plus two pure-noise columns that carry
    no class signal.

    The draws fill the columns of one preallocated matrix, benign columns
    first, then attack columns, then noise, and one permutation shuffles the
    rows; the labels follow from where each shuffled row came from.
    """
    rng = np.random.default_rng(seed)
    n_attack = int(round(n_rows * 0.5))
    n_benign = n_rows - n_attack
    features = np.empty((n_rows, len(_SHIFTED_COLUMNS) + len(_NOISE_COLUMNS)))
    for j, (_name, benign, _attack) in enumerate(_SHIFTED_COLUMNS):
        features[:n_benign, j] = rng.normal(*benign, n_benign)
    for j, (_name, _benign, attack) in enumerate(_SHIFTED_COLUMNS):
        features[n_benign:, j] = rng.normal(*attack, n_attack)
    for j in range(len(_SHIFTED_COLUMNS), features.shape[1]):
        features[:, j] = rng.uniform(0, 1, n_rows)
    order = rng.permutation(n_rows)
    names = [name for name, _benign, _attack in _SHIFTED_COLUMNS] + list(_NOISE_COLUMNS)
    return Dataset(features[order], (order >= n_benign).astype(int), names)


class EqualFrequencyBinner:
    """Quantile binning of continuous features into integer categories."""

    def __init__(self, n_bins: int = 10):
        self.n_bins = n_bins

    def fit(self, X) -> "EqualFrequencyBinner":
        X = check_matrix(X)
        if self.n_bins < 2:
            raise ValueError("n_bins must be at least 2")
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self.edges_ = list(np.quantile(X, quantiles, axis=0).T)
        return self

    def transform(self, X) -> np.ndarray:
        check_fitted(self, "edges_")
        X = check_matrix(X)
        if X.shape[1] != len(self.edges_):
            raise ValueError(
                f"binner fitted on {len(self.edges_)} features, got {X.shape[1]}"
            )
        # A value's bin is the number of its column's edges at or below it:
        # for sorted edges and finite values, searchsorted(side="right").
        out = np.zeros(X.shape, dtype=int)
        for edge_row in np.column_stack(self.edges_):
            out += X >= edge_row
        return out


def train_test_split(dataset: Dataset, test_fraction: float = 0.3, seed: int = 0):
    """Deterministic shuffled split; the seed fixes the permutation."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_rows)
    n_test = max(1, int(round(dataset.n_rows * test_fraction)))
    test_rows, train_rows = order[:n_test], order[n_test:]
    if len(train_rows) == 0:
        raise ValueError("split leaves no training rows")
    return dataset.subset(train_rows), dataset.subset(test_rows)
