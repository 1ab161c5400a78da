"""The two traffic classifiers: categorical naive Bayes with Laplace
smoothing, and a gain-ratio decision tree over binned features."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .base import check_features_labels, check_fitted, check_matrix, class_counts


class NaiveBayesClassifier:
    """Categorical naive Bayes with add-one (Laplace) smoothing.

    ``fit`` computes every log-likelihood once.  For feature ``j`` with the
    ``v`` sorted training categories ``categories_[j]``, ``log_likelihood_[j]``
    is a ``(v + 1) x 2`` table whose row ``i`` holds
    ``log((count(category i, class c) + 1) / (class_count(c) + v))`` for each
    class ``c``.  The last row is for a category never seen in training: its
    count is zero, so it keeps the numerator of one and prediction stays
    total.  Predicting only looks rows up and adds them, in feature order, onto
    the log prior.
    """

    def fit(self, X, y) -> "NaiveBayesClassifier":
        X, y = check_features_labels(X, y)
        label_counts = np.bincount(y, minlength=2)
        self.classes_ = np.flatnonzero(label_counts)
        if len(self.classes_) < 2:
            raise ValueError("training data must contain both classes")
        # Labels are 0/1 and both occur, so a label is its own class index.
        self.n_features_ = X.shape[1]
        self.log_prior_ = np.log(label_counts / label_counts.sum())
        class_sizes = label_counts.tolist()
        self.categories_: list[np.ndarray] = []
        self.log_likelihood_: list[np.ndarray] = []
        for j in range(self.n_features_):
            categories, by_value = class_counts(X[:, j], y)
            v = len(categories)
            counts = by_value.tolist()
            counts.append([0, 0])  # the unseen category
            # math.log, not np.log: each term is the float the per-row loop made.
            table = [[math.log((c + 1.0) / (n + v)) for c, n in zip(row, class_sizes)]
                     for row in counts]
            self.log_likelihood_.append(np.array(table))
            self.categories_.append(categories)
        self._prior_terms = tuple(self.log_prior_.tolist())
        return self

    def predict(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Each row's label and its class-1 posterior."""
        post0, post1 = self._posteriors(self.column_terms(X))
        return (post1 > post0).astype(int), post1

    def predict_one(self, row) -> tuple[int, np.ndarray]:
        """Label plus the normalized posterior over both classes."""
        post0, post1 = self._posteriors(self.column_terms(np.asarray(row).reshape(1, -1)))
        return (1 if post1[0] > post0[0] else 0), np.concatenate((post0, post1))

    def column_terms(self, X) -> list[np.ndarray]:
        """Each feature's ``(n_rows, 2)`` log-likelihood rows for the rows of
        ``X``, in feature order; a category unseen in training reads the
        unseen row."""
        check_fitted(self, "classes_")
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        terms = []
        for column, categories, table in zip(X.T, self.categories_, self.log_likelihood_):
            at = np.minimum(np.searchsorted(categories, column), len(categories) - 1)
            seen = categories[at] == column
            terms.append(table[np.where(seen, at, -1)])
        return terms

    def labels_from_terms(self, terms) -> np.ndarray:
        """Labels of the rows whose feature terms are ``terms`` (one or more
        ``column_terms`` entries).  The terms of every column give each row
        the label ``predict`` does, and the terms of a subset of columns, in
        that subset's order, give the labels of a model fitted on that subset
        alone."""
        post0, post1 = self._posteriors(terms)
        return (post1 > post0).astype(int)

    def _posteriors(self, terms) -> tuple[np.ndarray, np.ndarray]:
        """The two classes' normalized posteriors, one column each.  The terms
        are added onto the log prior in list order, because float adds do not
        commute.  Each log posterior is shifted by the larger of the two, whose
        exp(0) is exactly 1.0.  Labels compare the posteriors after the
        division, so a tie the division makes goes to 0."""
        check_fitted(self, "classes_")
        prior0, prior1 = self._prior_terms
        log0, log1 = prior0 + terms[0][:, 0], prior1 + terms[0][:, 1]
        for column in terms[1:]:
            log0 += column[:, 0]
            log1 += column[:, 1]
        top = np.maximum(log0, log1)
        exp0, exp1 = np.exp(log0 - top), np.exp(log1 - top)
        total = exp0 + exp1
        return exp0 / total, exp1 / total


# ---------------------------------------------------------------------------
# Decision tree
# ---------------------------------------------------------------------------

@dataclass
class _Leaf:
    label: int


@dataclass
class _Split:
    feature: int
    branches: dict = field(default_factory=dict)
    majority: int = 0


_TreeNode = Union[_Leaf, _Split]


def _entropy(counts: Sequence[int]) -> float:
    """Entropy in bits of the two-class distribution ``counts``."""
    total = counts[0] + counts[1]
    out = 0.0
    for count in counts:
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
        if max_depth is not None and (
            isinstance(max_depth, bool) or not isinstance(max_depth, (int, np.integer))
            or max_depth < 0
        ):
            raise ValueError(f"max_depth must be None or an integer >= 0, got {max_depth!r}")
        self.max_depth = max_depth

    def fit(self, X, y) -> "DecisionTree":
        X, y = check_features_labels(X, y)
        self.n_features_ = X.shape[1]
        self.root_ = self._build(X, y, np.arange(X.shape[0]), depth=0)
        return self

    def _build(self, X: np.ndarray, y_all: np.ndarray, rows: np.ndarray, depth: int) -> _TreeNode:
        """The subtree of the fit rows ``rows``, an index array into ``X`` and
        ``y_all``.  Each column's value-by-class table comes from
        ``class_counts``, and a child gets the rows holding its value, in
        ascending value order; no node copies the matrix."""
        y = y_all[rows]
        counts = tuple(int(c) for c in np.bincount(y, minlength=2))
        majority = 1 if counts[1] > counts[0] else 0  # a tie goes to the lower label
        pure = counts[0] == 0 or counts[1] == 0
        depth_reached = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_reached:
            return _Leaf(label=majority)

        base = _entropy(counts)
        # best and fallback are (feature, its values, the node's column)
        best, best_ratio = None, 0.0
        fallback = None
        for j in range(X.shape[1]):
            column = X[rows, j]
            values, by_value = class_counts(column, y)
            if len(values) < 2:
                continue
            if fallback is None:
                fallback = (j, values, column)
            gain = base
            split_info = 0.0
            for value_counts in by_value.tolist():
                fraction = (value_counts[0] + value_counts[1]) / y.shape[0]
                gain -= fraction * _entropy(value_counts)
                split_info -= fraction * math.log2(fraction)
            # Two or more values: every fraction lies in (0, 1), so split_info > 0.
            ratio = gain / split_info
            if gain > 1e-12 and ratio > best_ratio + 1e-12:
                best, best_ratio = (j, values, column), ratio

        if best is None:
            if fallback is None:
                return _Leaf(label=majority)
            best = fallback  # zero-gain split: keep going on structure

        feature, values, column = best
        node = _Split(feature=feature, majority=majority)
        for key in values.tolist():
            node.branches[key] = self._build(X, y_all, rows[column == key], depth + 1)
        return node

    def predict(self, X) -> tuple[np.ndarray, None]:
        """Each row's label, and no scores.  The rows go down the tree as
        index arrays, one node at a time; a row whose value has no branch at
        a split gets that split's majority."""
        check_fitted(self, "root_")
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        labels = np.empty(X.shape[0], dtype=int)
        pending = [(self.root_, np.arange(X.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if type(node) is _Leaf:
                labels[rows] = node.label
                continue
            column = X[rows, node.feature]
            routed = np.zeros(rows.shape[0], dtype=bool)
            for key, child in node.branches.items():
                hit = column == key
                if hit.any():
                    pending.append((child, rows[hit]))
                    routed |= hit
            labels[rows[~routed]] = node.majority
        return labels, None

    def predict_one(self, row) -> int:
        return int(self.predict(np.asarray(row).reshape(1, -1))[0][0])
