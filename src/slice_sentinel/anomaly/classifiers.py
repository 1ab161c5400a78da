"""The two traffic classifiers: categorical naive Bayes with Laplace
smoothing, and a gain-ratio decision tree over binned features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .base import check_features_labels, check_fitted, check_matrix


class NaiveBayesClassifier:
    """Categorical naive Bayes.

    Likelihoods are add-one (Laplace) smoothed over the per-feature category
    count observed in training; a category never seen in training still gets
    the numerator of one, so prediction stays total.
    """

    def fit(self, X, y) -> "NaiveBayesClassifier":
        X, y = check_features_labels(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("training data must contain both classes")
        self.class_counts_ = np.array([(y == c).sum() for c in self.classes_])
        self.n_features_ = X.shape[1]
        # value_counts_[j][value] -> count per class
        self.value_counts_: list[dict] = []
        self.n_categories_: list[int] = []
        for j in range(X.shape[1]):
            counts: dict = {}
            for value, label in zip(X[:, j], y):
                key = value.item() if hasattr(value, "item") else value
                slot = counts.setdefault(key, np.zeros(len(self.classes_)))
                slot[np.searchsorted(self.classes_, label)] += 1
            self.value_counts_.append(counts)
            self.n_categories_.append(len(counts))
        return self

    def _log_posterior(self, row) -> np.ndarray:
        total = self.class_counts_.sum()
        log_post = np.log(self.class_counts_ / total)
        for j, value in enumerate(row):
            key = value.item() if hasattr(value, "item") else value
            counts = self.value_counts_[j].get(key)
            v = self.n_categories_[j]
            for ci in range(len(self.classes_)):
                numerator = (counts[ci] if counts is not None else 0.0) + 1.0
                denominator = self.class_counts_[ci] + v
                log_post[ci] += math.log(numerator / denominator)
        return log_post

    def predict_one(self, row) -> tuple[int, np.ndarray]:
        """Label plus the normalized posterior over both classes."""
        check_fitted(self, "classes_")
        row = np.asarray(row).reshape(-1)
        if row.shape[0] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {row.shape[0]}")
        log_post = self._log_posterior(row)
        log_post -= log_post.max()
        posterior = np.exp(log_post)
        posterior /= posterior.sum()
        return int(self.classes_[int(np.argmax(posterior))]), posterior

    def predict(self, X) -> np.ndarray:
        X = check_matrix(X)
        return np.array([self.predict_one(row)[0] for row in X])


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

@dataclass
class _Leaf:
    label: int
    counts: tuple[int, int]


@dataclass
class _Split:
    feature: int
    branches: dict = field(default_factory=dict)
    majority: int = 0


_TreeNode = Union[_Leaf, _Split]


def _entropy(y: np.ndarray) -> float:
    total = y.shape[0]
    if total == 0:
        return 0.0
    out = 0.0
    for count in np.bincount(y, minlength=2):
        if count:
            p = count / total
            out -= p * math.log2(p)
    return out


class DecisionTree:
    """Multiway decision tree on categorical features, split by gain ratio.

    When no feature carries information gain but the node is still impure,
    the lowest-index feature with more than one value is split anyway; that
    lets the tree express parity-style concepts and memorize finite binned
    data at unrestricted depth.
    """

    def __init__(self, max_depth: Optional[int] = None):
        self.max_depth = max_depth

    def fit(self, X, y) -> "DecisionTree":
        X, y = check_features_labels(X, y)
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, y, depth=0)
        return self

    def _majority(self, y: np.ndarray) -> int:
        counts = np.bincount(y, minlength=2)
        return int(np.argmax(counts))  # ties resolve to the lower label

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        counts = tuple(int(c) for c in np.bincount(y, minlength=2))
        majority = self._majority(y)
        pure = counts[0] == 0 or counts[1] == 0
        depth_reached = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_reached:
            return _Leaf(label=majority, counts=counts)

        base = _entropy(y)
        best_feature, best_ratio = None, 0.0
        fallback = None
        for j in range(X.shape[1]):
            values, inverse = np.unique(X[:, j], return_inverse=True)
            if len(values) < 2:
                continue
            if fallback is None:
                fallback = j
            gain = base
            split_info = 0.0
            for vi in range(len(values)):
                mask = inverse == vi
                fraction = mask.sum() / y.shape[0]
                gain -= fraction * _entropy(y[mask])
                split_info -= fraction * math.log2(fraction)
            if split_info <= 0:
                continue
            ratio = gain / split_info
            if gain > 1e-12 and ratio > best_ratio + 1e-12:
                best_feature, best_ratio = j, ratio

        if best_feature is None:
            if fallback is None:
                return _Leaf(label=majority, counts=counts)
            best_feature = fallback  # zero-gain split: keep going on structure

        node = _Split(feature=best_feature, majority=majority)
        for value in np.unique(X[:, best_feature]):
            mask = X[:, best_feature] == value
            key = value.item() if hasattr(value, "item") else value
            node.branches[key] = self._build(X[mask], y[mask], depth + 1)
        return node

    def predict_one(self, row) -> int:
        check_fitted(self, "root_")
        row = np.asarray(row).reshape(-1)
        node = self.root_
        while isinstance(node, _Split):
            value = row[node.feature]
            key = value.item() if hasattr(value, "item") else value
            child = node.branches.get(key)
            if child is None:
                return node.majority  # unseen branch value
            node = child
        return node.label
