"""Feature scoring and selection: chi-square ranking plus a wrapper-based
backward elimination ensemble."""

from __future__ import annotations

import numpy as np

from .base import check_features_labels, class_counts
from .classifiers import NaiveBayesClassifier


def _chi_square(table: np.ndarray) -> float:
    """Chi-square statistic of one binned feature against the binary label,
    from the feature's ``class_counts`` table: one row per value, one column
    per label.

    A constant column, or a single-label dataset, scores 0 by convention.
    """
    if table.shape[0] < 2 or not table.any(axis=0).all():
        return 0.0
    table = table.astype(float)
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def chi_square_ranking(X, y) -> list[int]:
    """Feature indices ordered best first; ties break toward the lower index.
    Each column's table comes from ``class_counts``, so a binned column is
    counted without a sort."""
    X, y = check_features_labels(X, y)
    scores = [_chi_square(class_counts(X[:, j], y)[1]) for j in range(X.shape[1])]
    return sorted(range(X.shape[1]), key=lambda j: (-scores[j], j))


def _is_int(value) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_candidates(candidates, n_features: int) -> list[int]:
    if len(candidates) == 0:
        raise ValueError("backward elimination needs at least one candidate")
    seen = set()
    for f in candidates:
        if not _is_int(f) or not 0 <= f < n_features:
            raise ValueError(f"candidate {f!r} is not a feature index in 0..{n_features - 1}")
        if f in seen:
            raise ValueError(f"candidate {f!r} is repeated")
        seen.add(f)
    return list(candidates)


def backward_elimination_ranking(X, y, candidates: list[int], seed: int = 0) -> dict[int, int]:
    """Wrapper ranking: repeatedly drop the feature whose removal helps (or
    hurts least) a held-out naive Bayes.  Rank 0 is the longest survivor.

    ``candidates`` are distinct feature indices; an empty list, a repeat or
    an index outside the matrix is a ``ValueError``.

    One naive Bayes is fitted, on the whole candidate pool.  Its table for a
    feature depends only on that column, the labels and the class counts, so
    a model fitted on any trial subset is the pool model restricted to the
    subset: each candidate's held-out terms are computed once and a trial is
    scored by adding only its own columns' terms onto the prior.  They are
    added in the trial's own column order, the order a model refitted on the
    subset would add them in, so every trial accuracy, and so the ranking, is
    the refit's bit for bit.  A dropped column's terms are never subtracted
    from a pool-wide sum: a float subtraction does not undo an add, and one
    flipped near-tie would be enough to change the ranking.
    """
    X, y = check_features_labels(X, y)
    remaining = _check_candidates(candidates, X.shape[1])
    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    n_test = max(1, int(round(X.shape[0] * 0.3)))
    test_rows, train_rows = order[:n_test], order[n_test:]
    if len(set(y[train_rows].tolist())) < 2:
        # Degenerate split: fall back to keeping the chi-square order.
        return {f: i for i, f in enumerate(remaining)}

    model = NaiveBayesClassifier().fit(X[np.ix_(train_rows, remaining)], y[train_rows])
    terms = dict(zip(remaining, model.column_terms(X[np.ix_(test_rows, remaining)])))
    truth = y[test_rows]
    removal_order: list[int] = []
    while len(remaining) > 1:
        best_feature, best_acc = None, -1.0
        for feature in remaining:
            trial = [terms[f] for f in remaining if f != feature]
            acc = float(np.mean(model.labels_from_terms(trial) == truth))
            # ties: prefer removing the higher index, keeping low indices longer
            if acc > best_acc or (acc == best_acc and feature > best_feature):
                best_feature, best_acc = feature, acc
        remaining.remove(best_feature)
        removal_order.append(best_feature)
    ranks: dict[int, int] = {remaining[0]: 0}
    for position, feature in enumerate(reversed(removal_order), start=1):
        ranks[feature] = position
    return ranks


def select_features(X, y, k: int, method: str = "chi2", seed: int = 0) -> list[int]:
    """Pick k feature indices.

    ``chi2``: top k by chi-square, ties toward the lower index.
    ``ensemble``: chi-square shortlist of 2k candidates, re-ranked by the sum
    of chi-square rank and backward-elimination rank.
    """
    X, y = check_features_labels(X, y)
    arity = X.shape[1]
    if not _is_int(k) or not 1 <= k <= arity:
        raise ValueError(f"k must be in 1..{arity}, got {k}")
    chi_order = chi_square_ranking(X, y)
    if method == "chi2":
        return sorted(chi_order[:k])
    if method == "ensemble":
        pool = chi_order[: min(2 * k, arity)]
        chi_rank = {f: i for i, f in enumerate(pool)}
        elim_rank = backward_elimination_ranking(X, y, pool, seed=seed)
        return sorted(
            sorted(pool, key=lambda f: (chi_rank[f] + elim_rank[f], f))[:k]
        )
    raise ValueError(f"unknown selection method {method!r}")
