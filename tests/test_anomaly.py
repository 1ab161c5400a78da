"""Classifier subsystem tests: chi-square scoring, feature selection, naive
Bayes, the gain-ratio tree and the evaluation metrics."""

import csv
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slice_sentinel.anomaly import (
    DecisionTree,
    EqualFrequencyBinner,
    Dataset,
    NaiveBayesClassifier,
    auc_from_points,
    backward_elimination_ranking,
    chi_square_ranking,
    evaluate,
    load_csv,
    rate_identities_hold,
    roc_points,
    select_features,
    synthetic_flow_dataset,
    train_test_split,
)
from slice_sentinel.anomaly.base import check_features_labels, class_counts
from slice_sentinel.anomaly.classifiers import _entropy
from slice_sentinel.anomaly.features import _chi_square


def contingency_chi_square(column, labels):
    """Oracle: textbook chi-square straight off the observed/expected table."""
    column, labels = np.asarray(column), np.asarray(labels)
    cats, classes = np.unique(column), np.unique(labels)
    if len(cats) < 2 or len(classes) < 2:
        return 0.0
    observed = np.array(
        [[np.sum((column == c) & (labels == l)) for l in classes] for c in cats],
        dtype=float,
    )
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    return float(np.sum((observed - expected) ** 2 / expected))


def score_column(column, labels) -> float:
    """One column's chi-square, scored the way ``chi_square_ranking`` scores it."""
    return _chi_square(class_counts(np.asarray(column), np.asarray(labels))[1])


class TestChiSquare:
    def test_perfectly_separating_two_by_two_scores_twenty(self):
        # 10 samples of (value 0, benign) and 10 of (value 1, attack).
        column = np.array([0] * 10 + [1] * 10)
        labels = np.array([0] * 10 + [1] * 10)
        assert contingency_chi_square(column, labels) == pytest.approx(20.0)
        assert score_column(column, labels) == pytest.approx(20.0)

    def test_label_independent_feature_scores_zero(self):
        column = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        assert score_column(column, labels) == pytest.approx(0.0)

    def test_constant_feature_scores_zero(self):
        assert score_column(np.zeros(10), np.array([0, 1] * 5)) == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            chi_square_ranking(np.empty((0, 3)), np.array([]))

    def test_matches_oracle_on_random_binned_columns(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            column = rng.integers(0, 6, 200)
            labels = rng.integers(0, 2, 200)
            assert score_column(column, labels) == pytest.approx(
                contingency_chi_square(column, labels)
            )

    def test_selection_order_invariant_under_permutation_and_duplication(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 5, size=(300, 6))
        y = (X[:, 2] > 2).astype(int)  # feature 2 carries the signal
        base_order = select_features(X, y, k=6)
        perm = rng.permutation(300)
        assert select_features(X[perm], y[perm], k=6) == base_order
        X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
        # statistic doubles; the selection ordering must not move
        assert select_features(X2, y2, k=6) == base_order


class TestSelectFeatures:
    def test_k_equals_arity_returns_all_in_original_order(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(100, 5))
        y = rng.integers(0, 2, 100)
        assert select_features(X, y, k=5) == [0, 1, 2, 3, 4]

    def test_single_separating_feature_found_among_noise(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 400)
        X = rng.integers(0, 4, size=(400, 6))
        X[:, 3] = y  # the one informative column
        # Oracle: brute-force score comparison.
        scores = [score_column(X[:, j], y) for j in range(6)]
        assert int(np.argmax(scores)) == 3
        assert select_features(X, y, k=1) == [3]
        assert select_features(X, y, k=1, method="ensemble") == [3]

    def test_k_zero_rejected(self):
        X = np.zeros((10, 3), dtype=int)
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError):
            select_features(X, y, k=0)

    @pytest.mark.parametrize("k", [True, np.True_, 2.5], ids=["bool", "numpy-bool", "float"])
    def test_k_that_is_not_an_int_rejected(self, k):
        X = np.zeros((10, 3), dtype=int)
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError, match=rf"k must be in 1\.\.3, got {k}"):
            select_features(X, y, k=k)

    def test_selection_is_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 5, size=(200, 8))
        y = rng.integers(0, 2, 200)
        runs = {tuple(select_features(X, y, k=4, method="ensemble", seed=3)) for _ in range(5)}
        assert len(runs) == 1


def nb_labels(model: NaiveBayesClassifier, X) -> np.ndarray:
    """Labels of every row of ``X`` from the terms of all of its columns."""
    return model.labels_from_terms(model.column_terms(X))


class TestNaiveBayes:
    def test_disjoint_single_feature_values_train_perfectly(self):
        X = np.array([[0]] * 20 + [[1]] * 20)
        y = np.array([0] * 20 + [1] * 20)
        model = NaiveBayesClassifier().fit(X, y)
        assert np.all(nb_labels(model, X) == y)

    def test_all_unseen_row_falls_back_to_majority_prior(self):
        # Hand-computed smoothed posterior, one feature, values {0, 1}:
        #   class 0: 7 rows of value 0;  class 1: 3 rows of value 1
        #   P(unseen=5 | c) = (0 + 1) / (n_c + 1 * 2)
        #   posterior(0) ~ (7/10) * (1/9)  = 7/90
        #   posterior(1) ~ (3/10) * (1/5)  = 3/50
        p0, p1 = 7 / 90, 3 / 50
        expected = np.array([p0, p1]) / (p0 + p1)
        X = np.array([[0]] * 7 + [[1]] * 3)
        y = np.array([0] * 7 + [1] * 3)
        model = NaiveBayesClassifier().fit(X, y)
        label, posterior = model.predict_one([5])
        assert label == 0  # the majority prior class
        assert posterior == pytest.approx(expected, abs=1e-12)

    def test_duplicating_training_rows_keeps_predictions(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 4, size=(200, 3))
        y = ((X[:, 0] + X[:, 1]) > 3).astype(int)
        test = rng.integers(0, 4, size=(50, 3))
        single = NaiveBayesClassifier().fit(X, y)
        doubled = NaiveBayesClassifier().fit(np.vstack([X, X]), np.concatenate([y, y]))
        assert np.all(nb_labels(single, test) == nb_labels(doubled, test))

    def test_single_class_training_rejected(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier().fit(np.zeros((5, 2), dtype=int), np.zeros(5, dtype=int))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_rejected(self, bad):
        X = [[bad]] * 3 + [[1.0], [2.0], [2.0]]
        y = [1, 1, 1, 0, 0, 1]
        with pytest.raises(ValueError, match="non-finite"):
            NaiveBayesClassifier().fit(X, y)
        with pytest.raises(ValueError, match="non-finite"):
            DecisionTree().fit(X, y)
        with pytest.raises(ValueError, match="non-finite"):
            EqualFrequencyBinner(n_bins=2).fit(X)
        finite = [[0.0]] * 3 + [[1.0], [2.0], [2.0]]
        model = NaiveBayesClassifier().fit(finite, y)
        binner = EqualFrequencyBinner(n_bins=2).fit(finite)
        with pytest.raises(ValueError, match="non-finite"):
            model.column_terms([[bad], [1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            binner.transform([[bad]])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_nb_posterior_always_normalized(seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(30, 3))
    y = np.array([0, 1] * 15)
    model = NaiveBayesClassifier().fit(X, y)
    row = rng.integers(0, 8, 3)  # may contain unseen values
    _, posterior = model.predict_one(row)
    assert abs(posterior.sum() - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# The table-driven naive Bayes and the bincount chi-square, bit for bit
# ---------------------------------------------------------------------------

def _reference_nb(X, y, row) -> tuple[int, np.ndarray]:
    """The per-row naive Bayes loop: dict counts per feature, one math.log
    per (feature, class) term, then the same normalization."""
    classes = np.unique(y)
    class_counts = np.array([(y == c).sum() for c in classes])
    value_counts, n_categories = [], []
    for j in range(X.shape[1]):
        counts: dict = {}
        for value, label in zip(X[:, j], y):
            key = value.item() if hasattr(value, "item") else value
            slot = counts.setdefault(key, np.zeros(len(classes)))
            slot[np.searchsorted(classes, label)] += 1
        value_counts.append(counts)
        n_categories.append(len(counts))
    log_post = np.log(class_counts / class_counts.sum())
    for j, value in enumerate(np.asarray(row).reshape(-1)):
        key = value.item() if hasattr(value, "item") else value
        counts = value_counts[j].get(key)
        for ci in range(len(classes)):
            numerator = (counts[ci] if counts is not None else 0.0) + 1.0
            denominator = class_counts[ci] + n_categories[j]
            log_post[ci] += math.log(numerator / denominator)
    log_post -= log_post.max()
    posterior = np.exp(log_post)
    posterior /= posterior.sum()
    return int(classes[int(np.argmax(posterior))]), posterior


# Negative, zero, positive and non-integer categories; a table drawn only from
# integers stays an int array, one with a float in it becomes a float array.
CATEGORY = st.one_of(st.integers(-4, 4), st.sampled_from([-2.5, 0.5, 1.25]))
UNSEEN_CATEGORY = st.one_of(st.integers(5, 9), st.sampled_from([-0.75, 3.5]))


@st.composite
def nb_problem(draw):
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(2, 30))
    row = st.lists(CATEGORY, min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    y = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_rows - 2,
                                        max_size=n_rows - 2)))
    test_row = st.lists(st.one_of(CATEGORY, UNSEEN_CATEGORY),
                        min_size=n_features, max_size=n_features)
    test = np.array(draw(st.lists(test_row, min_size=1, max_size=10)))
    return X, y, test


# Category 0 holds 13 of the 25 class-0 rows of a 12-category feature, so its
# class-0 term is log((13 + 1) / (25 + 12)).  math.log and numpy 2.4's np.log
# round that one ulp apart on x86-64, and the gap survives into the posterior
# of the row [0]: a table built with np.log fails on this example.
ONE_ULP_EXAMPLE = (
    np.array([[0]] * 13 + [[c] for c in range(1, 12)] + [[1], [1], [2], [3]]),
    np.array([0] * 25 + [1] * 3),
    np.array([[0], [11], [20]]),
)


# Two rows per class and a category both classes hold once: the row [0] has
# equal log posteriors, so its label is 0 and its posterior (0.5, 0.5).
TIE_EXAMPLE = (np.array([[0], [0], [1], [1]]), np.array([0, 1, 0, 1]), np.array([[0]]))

# One class-0 row of zeros and 20 class-1 rows of ones over 300 features: each
# feature of the row of zeros favours class 0 by log(2/3) - log(1/22), so its
# log posteriors lie more than 745 apart, the smaller exp underflows to 0.0
# and the posterior is (1.0, 0.0); a row of ones gives (0.0, 1.0).
UNDERFLOW_EXAMPLE = (
    np.array([[0] * 300] + [[1] * 300] * 20),
    np.array([0] + [1] * 20),
    np.array([[0] * 300]),
)


@settings(max_examples=200, deadline=None)
@given(nb_problem())
@example(ONE_ULP_EXAMPLE)
@example(TIE_EXAMPLE)
@example(UNDERFLOW_EXAMPLE)
def test_nb_table_posteriors_equal_the_per_row_loop_exactly(problem):
    X, y, test = problem
    model = NaiveBayesClassifier().fit(X, y)
    for rows in (test, X):
        for row in rows:
            label, posterior = model.predict_one(row)
            ref_label, ref_posterior = _reference_nb(X, y, row)
            assert label == ref_label
            assert np.array_equal(posterior, ref_posterior)
        assert np.array_equal(nb_labels(model, rows), [model.predict_one(r)[0] for r in rows])
        labels, scores = model.predict(rows)
        assert labels.tolist() == [model.predict_one(r)[0] for r in rows]
        assert np.array_equal(scores, [model.predict_one(r)[1][1] for r in rows])


@pytest.mark.parametrize("problem, expected", [
    pytest.param(TIE_EXAMPLE, (0.5, 0.5), id="tie"),
    pytest.param(UNDERFLOW_EXAMPLE, (1.0, 0.0), id="underflow"),
])
def test_nb_tie_goes_to_0_and_an_underflow_gives_a_certain_posterior(problem, expected):
    X, y, test = problem
    model = NaiveBayesClassifier().fit(X, y)
    label, posterior = model.predict_one(test[0])
    assert label == 0
    assert posterior.tolist() == list(expected)
    assert nb_labels(model, test).tolist() == [0]


def _reference_labels_from_terms(model: NaiveBayesClassifier, terms) -> np.ndarray:
    """Labels the 2-D way: an ``(n_rows, 2)`` log posterior started from the
    repeated prior, one ``+=`` per column, shifted by its row maximum,
    exponentiated, divided by its row sum, then ``argmax``."""
    log_post = np.repeat(model.log_prior_[None, :], terms[0].shape[0], axis=0)
    for column in terms:
        log_post += column
    log_post -= log_post.max(axis=-1, keepdims=True)
    posterior = np.exp(log_post)
    posterior /= posterior.sum(axis=-1, keepdims=True)
    return model.classes_[np.argmax(posterior, axis=1)]


def _term_pair(relation: str, term0: float, free: float) -> tuple[float, float]:
    """A (class 0, class 1) term pair: equal, one ulp apart, or unrelated."""
    term1 = {
        "tie": term0,
        "ulp-up": float(np.nextafter(term0, np.inf)),
        "ulp-down": float(np.nextafter(term0, -np.inf)),
        "free": free,
    }[relation]
    return term0, term1


# Log-likelihood terms are negative; past -745 a column alone underflows exp.
LOG_TERM = st.floats(-800.0, 0.0)
RELATION = st.sampled_from(["tie", "tie", "ulp-up", "ulp-down", "free"])


@st.composite
def terms_problem(draw):
    """A model whose prior is drawn from its class counts (equal counts give
    an exact prior tie) and 1–4 term columns whose two classes are often
    equal or one ulp apart."""
    n0, n1 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    model = NaiveBayesClassifier().fit(np.zeros((n0 + n1, 1), dtype=int),
                                       np.array([0] * n0 + [1] * n1))
    n_rows = draw(st.integers(1, 12))
    pair = st.builds(_term_pair, RELATION, LOG_TERM, LOG_TERM)
    terms = [np.array(draw(st.lists(pair, min_size=n_rows, max_size=n_rows)))
             for _ in range(draw(st.integers(1, 4)))]
    return model, terms


@settings(max_examples=300, deadline=None)
@given(terms_problem())
def test_labels_from_terms_equal_the_2d_posterior_path_exactly(problem):
    model, terms = problem
    labels = model.labels_from_terms(terms)
    expected = _reference_labels_from_terms(model, terms)
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)


def _reference_roc_points(scores, labels) -> list[tuple[float, float]]:
    """The ROC sweep row by row: walk the stably sorted rows and emit a point
    whenever the score changes."""
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        return []
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    previous = None
    for score, label in zip(scores[order].tolist(), labels[order].tolist()):
        if previous is not None and score != previous:
            points.append((fp / negatives, tp / positives))
        if label == 1:
            tp += 1
        else:
            fp += 1
        previous = score
    points.append((1.0, 1.0))
    return points


# Few distinct scores, so most rows tie with another; 0.0 and -0.0 compare equal.
TIED_SCORES = st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-300]), min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    TIED_SCORES.flatmap(lambda scores: st.tuples(
        st.just(scores), st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))),
    st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=60).map(
        lambda pairs: ([score for score, _ in pairs], [label for _, label in pairs])),
))
@example(([0.5, 0.5, 0.5], [1, 1, 1]))
@example(([0.2, 0.9], [0, 0]))
def test_roc_points_equal_the_row_by_row_sweep(problem):
    scores, labels = np.array(problem[0], dtype=float), np.array(problem[1])
    points = roc_points(scores, labels)
    expected = _reference_roc_points(scores, labels)
    assert points == expected
    assert all(type(v) is float for point in points for v in point)


def _reference_evaluate(X, y, test: Dataset) -> dict:
    """``evaluate`` of the naive Bayes the old way: every row scored through
    ``_reference_nb`` as a numpy row, counted cell by cell with if/else."""
    tp = tn = fp = fn = 0
    scores = []
    for row, truth in zip(test.features, test.labels):
        label, posterior = _reference_nb(X, y, row)
        scores.append(float(posterior[-1]))
        if truth == 1:
            tp += label == 1
            fn += label == 0
        else:
            tn += label == 0
            fp += label == 1
    positives, negatives = tp + fn, tn + fp
    roc = _reference_roc_points(np.array(scores), test.labels) if positives and negatives else []
    return {
        "confusion": {"tp": tp, "tn": tn, "fp": fp, "fn": fn},
        "accuracy": 100.0 * (tp + tn) / (positives + negatives),
        "tpr": 100.0 * tp / positives if positives else None,
        "fnr": 100.0 * fn / positives if positives else None,
        "tnr": 100.0 * tn / negatives if negatives else None,
        "fpr": 100.0 * fp / negatives if negatives else None,
        "roc": roc,
        "auc": auc_from_points(roc),
    }


@st.composite
def binned_problem(draw):
    """Bin indices as ``EqualFrequencyBinner`` makes them; test rows may hold
    a bin no training row reached."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(2, 40))
    n_test = draw(st.integers(1, 30))
    cells = st.lists(st.integers(0, 9), min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    y = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_rows - 2,
                                        max_size=n_rows - 2)))
    test_cells = st.lists(st.integers(0, 11), min_size=n_features, max_size=n_features)
    test_X = np.array(draw(st.lists(test_cells, min_size=n_test, max_size=n_test)))
    test_y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_test, max_size=n_test)))
    return X, y, Dataset(test_X, test_y, [f"f{j}" for j in range(n_features)])


@settings(max_examples=200, deadline=None)
@given(binned_problem())
def test_nb_evaluate_equals_the_per_row_reference_exactly(problem):
    X, y, test = problem
    metrics = evaluate(NaiveBayesClassifier().fit(X, y), test)
    expected = _reference_evaluate(X, y, test)
    assert metrics.confusion == expected["confusion"]
    for rate in ("accuracy", "tpr", "fnr", "tnr", "fpr"):
        assert getattr(metrics, rate) == expected[rate], rate
    assert metrics.roc == expected["roc"]
    assert metrics.auc == expected["auc"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(CATEGORY, st.integers(0, 1)), min_size=1, max_size=40))
def test_chi_square_equals_the_oracle_exactly(pairs):
    column = np.array([value for value, _ in pairs])
    labels = np.array([label for _, label in pairs])
    assert score_column(column, labels) == contingency_chi_square(column, labels)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=6),
    st.lists(st.integers(0, 1), min_size=n, max_size=n))))
@example(([[0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]], [0, 1, 0, 1]))
@example(([[0, 1, 2], [2, 1, 0]], [1, 1, 1]))
def test_chi_square_ranking_sorts_by_each_columns_score(problem):
    """Shared sorted labels give each column the bits it scores on its own
    labels, so ties (mirrored columns, one-class labels) rank the same."""
    columns, labels = problem
    X, y = np.array(columns).T, np.array(labels)
    scores = [score_column(X[:, j], y) for j in range(X.shape[1])]
    assert chi_square_ranking(X, y) == sorted(range(X.shape[1]), key=lambda j: (-scores[j], j))


def _reference_class_counts(column, y):
    """The table every stage built before the counting kernel: sort the
    column with ``np.unique``, then count each (value index, label) pair."""
    values, inverse = np.unique(column, return_inverse=True)
    return values, np.bincount(inverse * 2 + y, minlength=2 * len(values)).reshape(-1, 2)


@st.composite
def counted_column(draw):
    """A column of one dtype, long enough that a uint8 value above 127 can
    pass the kernel's 4 x length bound, with values below 0 and above the
    bound, and float columns holding both zeros."""
    dtype, values = draw(st.sampled_from([
        (np.int64, st.integers(-3, 200)),
        (np.int32, st.integers(-3, 200)),
        (np.uint8, st.integers(0, 255)),
        (np.float64, st.sampled_from([-0.0, 0.0, 1.5, -2.0, 3.0])),
    ]))
    n = draw(st.integers(1, 80))
    column = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return column, y


@settings(max_examples=300, deadline=None)
@given(counted_column())
@example((np.array([7], dtype=np.int64), np.array([1])))
@example((np.array([200] * 60 + [3], dtype=np.uint8), np.array([0, 1] * 30 + [1])))
@example((np.array([5, -1, 5], dtype=np.int32), np.array([0, 1, 1])))
@example((np.array([0, 9, 9], dtype=np.int64), np.array([1, 0, 0])))
@example((np.array([0.0, -0.0, 1.5, -0.0]), np.array([1, 0, 0, 1])))
def test_class_counts_equal_the_sorted_unique_table(problem):
    column, y = problem
    values, table = class_counts(column, y)
    expected_values, expected_table = _reference_class_counts(column, y)
    assert values.dtype == expected_values.dtype
    assert np.array_equal(values, expected_values)
    assert np.array_equal(np.signbit(values), np.signbit(expected_values))
    assert table.shape == expected_table.shape
    assert np.array_equal(table, expected_table)


# The messages are the ones the label check gave when it sorted every label set.
@pytest.mark.parametrize("labels, shown", [
    pytest.param([0, 1, 0.5], "[0.0, 0.5, 1.0]", id="half"),
    pytest.param([0, 1, 2], "[0, 1, 2]", id="two"),
    pytest.param([-1, 0, 1], "[-1, 0, 1]", id="minus-one"),
    pytest.param([0, 1, math.nan], "[0.0, 1.0, nan]", id="nan"),
    pytest.param(["0", "1", "1"], "['0', '1']", id="digit-strings"),
    pytest.param(["a", "b", "a"], "['a', 'b']", id="strings"),
])
def test_non_binary_labels_rejected_naming_them(labels, shown):
    with pytest.raises(ValueError) as exc:
        check_features_labels(np.zeros((3, 1)), labels)
    assert str(exc.value) == f"labels must be binary 0/1, got {shown}"


def test_bool_labels_come_back_as_int():
    _, y = check_features_labels(np.zeros((3, 1)), np.array([True, False, True]))
    assert y.dtype == np.dtype(int)
    assert y.tolist() == [1, 0, 1]


def test_checked_labels_are_a_copy():
    labels = np.array([0, 1, 1])
    _, y = check_features_labels(np.zeros((3, 1)), labels)
    assert not np.shares_memory(y, labels)
    y[0] = 1
    assert labels.tolist() == [0, 1, 1]


def test_nb_predict_before_fit_raises():
    with pytest.raises(RuntimeError):
        NaiveBayesClassifier().column_terms(np.zeros((3, 2), dtype=int))
    with pytest.raises(RuntimeError):
        NaiveBayesClassifier().labels_from_terms([np.zeros((3, 2))])


def test_nb_column_terms_rejects_the_wrong_feature_count():
    model = NaiveBayesClassifier().fit(np.array([[0, 1, 2], [1, 0, 2]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="expected 3 features, got 2"):
        model.column_terms(np.zeros((4, 2), dtype=int))


# ---------------------------------------------------------------------------
# Backward elimination from one fit, against a refit per trial subset
# ---------------------------------------------------------------------------

def _refit_elimination_ranking(X, y, candidates, seed) -> dict:
    """Backward elimination with a naive Bayes refitted on every trial subset
    and every held-out row scored through ``predict_one``."""
    order = np.random.default_rng(seed).permutation(X.shape[0])
    n_test = max(1, int(round(X.shape[0] * 0.3)))
    test_rows, train_rows = order[:n_test], order[n_test:]
    if len(set(y[train_rows].tolist())) < 2:
        return {f: i for i, f in enumerate(candidates)}
    remaining, removed = list(candidates), []
    while len(remaining) > 1:
        scored = []
        for feature in remaining:
            trial = [f for f in remaining if f != feature]
            model = NaiveBayesClassifier().fit(X[np.ix_(train_rows, trial)], y[train_rows])
            rows = X[np.ix_(test_rows, trial)]
            hits = sum(model.predict_one(row)[0] == truth for row, truth in zip(rows, y[test_rows]))
            scored.append((hits / n_test, feature))
        _, dropped = max(scored)  # best accuracy; a tie drops the higher index
        remaining.remove(dropped)
        removed.append(dropped)
    return {f: rank for rank, f in enumerate(remaining + removed[::-1])}


@st.composite
def elimination_problem(draw):
    """Few rows over few bins, so held-out rows often hold a bin no training
    row has and trial accuracies often tie; the labels may be one class."""
    pool = draw(st.integers(1, 6))
    n_features = draw(st.integers(pool, 7))
    n_rows = draw(st.integers(2, 40))
    cells = st.lists(st.integers(0, 5), min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    candidates = draw(st.permutations(range(n_features)))[:pool]
    return X, y, candidates, draw(st.integers(0, 2**16))


def _seeded_elimination_problem(seed: int):
    rng = np.random.default_rng(seed)
    X, y = rng.integers(0, 6, (20, 4)), rng.integers(0, 2, 20)
    return X, y, rng.permutation(4).tolist(), seed


# Adding a trial's terms in sorted column order instead of the trial's own
# order, or subtracting the dropped column's terms from the pool's sum, each
# changes this example's ranking.
ORDER_SENSITIVE_EXAMPLE = _seeded_elimination_problem(109)


@settings(max_examples=200, deadline=None)
@given(elimination_problem())
@example(ORDER_SENSITIVE_EXAMPLE)
@example((np.array([[0, 1, 2]] * 6), np.zeros(6, dtype=int), [2, 0], 0))
def test_one_fit_elimination_ranking_equals_a_refit_per_trial(problem):
    X, y, candidates, seed = problem
    assert (backward_elimination_ranking(X, y, candidates, seed=seed)
            == _refit_elimination_ranking(X, y, candidates, seed))


@pytest.mark.parametrize("y", [[0, 1] * 5, [0] * 10], ids=["two-class", "one-class"])
@pytest.mark.parametrize("candidates, message", [
    pytest.param([], "at least one candidate", id="empty"),
    pytest.param([7, 1], r"candidate 7 is not a feature index in 0\.\.3", id="past-the-end"),
    pytest.param([1, 1], "candidate 1 is repeated", id="repeated"),
    pytest.param([-1, 2], r"candidate -1 is not a feature index in 0\.\.3", id="negative"),
    pytest.param([True, 2], r"candidate True is not a feature index in 0\.\.3", id="bool"),
])
def test_backward_elimination_rejects_bad_candidates(candidates, message, y):
    X = np.arange(40).reshape(10, 4) % 3
    with pytest.raises(ValueError, match=message):
        backward_elimination_ranking(X, np.array(y), candidates)


def tree_depth(tree: DecisionTree) -> int:
    """Edges on the longest root-to-leaf path of a fitted tree."""

    def walk(node) -> int:
        if not hasattr(node, "branches"):
            return 0
        return 1 + max(walk(child) for child in node.branches.values())

    return walk(tree.root_)


def tree_predict(tree: DecisionTree, X) -> np.ndarray:
    return np.array([tree.predict_one(row) for row in X])


def _row_shapes(row: list) -> list:
    """The same feature row as a list, a tuple, a 1-D array and a (1, n) array."""
    return [list(row), tuple(row), np.array(row), np.array([row])]


class TestRowShapes:
    X = np.array([[0, 1, 2], [1, 1, 0], [2, 0, 1], [0, 2, 2], [1, 0, 0], [2, 2, 1]])
    y = np.array([0, 1, 0, 1, 1, 0])
    ROWS = [[0, 1, 2], [2, 2, 2], [1, 0, 7], [9, 9, 9], [0.0, 1.0, 2.0]]

    def test_naive_bayes_gives_every_shape_the_same_label_and_posterior(self):
        model = NaiveBayesClassifier().fit(self.X, self.y)
        for row in self.ROWS:
            label, posterior = model.predict_one(row)
            for shaped in _row_shapes(row):
                other_label, other_posterior = model.predict_one(shaped)
                assert other_label == label
                assert np.array_equal(other_posterior, posterior)

    def test_decision_tree_gives_every_shape_the_same_label(self):
        tree = DecisionTree().fit(self.X, self.y)
        for row in self.ROWS:
            labels = {tree.predict_one(shaped) for shaped in _row_shapes(row)}
            assert labels == {tree.predict_one(row)}

    @pytest.mark.parametrize("row", [[1], [1, 2], [1, 2, 0, 1], []])
    def test_wrong_feature_count_rejected_in_every_shape(self, row):
        models = (NaiveBayesClassifier().fit(self.X, self.y), DecisionTree().fit(self.X, self.y))
        for model in models:
            for shaped in _row_shapes(row):
                with pytest.raises(ValueError, match=f"expected 3 features, got {len(row)}"):
                    model.predict_one(shaped)


class TestDecisionTree:
    @pytest.mark.parametrize("depth", [-1, -3, 2.5, True, "2"])
    def test_max_depth_that_is_not_a_non_negative_int_rejected(self, depth):
        with pytest.raises(ValueError, match="max_depth must be None or an integer >= 0"):
            DecisionTree(max_depth=depth)

    @pytest.mark.parametrize("depth", [None, 0, 3, np.int64(2)])
    def test_max_depth_none_or_a_non_negative_int_accepted(self, depth):
        assert DecisionTree(max_depth=depth).max_depth == depth

    def test_linearly_separable_single_feature_gives_depth_one(self):
        X = np.array([[0, 5]] * 30 + [[1, 5]] * 30)
        y = np.array([0] * 30 + [1] * 30)
        tree = DecisionTree().fit(X, y)
        assert tree_depth(tree) == 1
        assert np.all(tree_predict(tree, X) == y)

    def test_pure_dataset_is_a_single_leaf(self):
        X = np.array([[0, 1], [2, 3], [4, 5]])
        y = np.array([1, 1, 1])
        tree = DecisionTree().fit(X, y)
        assert tree_depth(tree) == 0
        assert np.all(tree_predict(tree, X) == 1)

    @pytest.mark.parametrize("y, label", [([0, 1], 0), ([1, 0], 0), ([1, 1, 0], 1), ([0, 1, 0], 0)])
    def test_a_leaf_votes_its_majority_and_a_tie_goes_to_0(self, y, label):
        X = np.zeros((len(y), 1), dtype=int)  # one value: no split, one leaf
        tree = DecisionTree().fit(X, np.array(y))
        assert tree_depth(tree) == 0
        assert tree.predict_one([0]) == label

    def test_xor_learned_at_depth_two(self):
        # Exhaustive truth table oracle for two-feature parity.
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        y = np.array([a ^ b for a, b in X])
        tree = DecisionTree(max_depth=2).fit(X, y)
        for row, expected in zip(X, y):
            assert tree.predict_one(row) == expected
        assert tree_depth(tree) == 2

    def test_depth_cap_limits_growth(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(100, 5))
        y = rng.integers(0, 2, 100)
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree_depth(tree) <= 2

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_unrestricted_tree_memorizes_at_least_as_well_as_nb(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            X = rng.integers(0, 3, size=(80, 4))
            y = rng.integers(0, 2, 80)
            if len(set(y.tolist())) < 2:
                continue
            tree_acc = float(np.mean(tree_predict(DecisionTree().fit(X, y), X) == y))
            nb_acc = float(np.mean(nb_labels(NaiveBayesClassifier().fit(X, y), X) == y))
            assert tree_acc >= nb_acc


def _reference_tree_label(tree: DecisionTree, row) -> int:
    """The per-row walk: at each split follow the branch keyed by the row's
    value as a Python scalar; a value with no branch takes the majority."""
    values = np.asarray(row).reshape(-1).tolist()
    node = tree.root_
    while hasattr(node, "branches"):
        child = node.branches.get(values[node.feature])
        if child is None:
            return node.majority
        node = child
    return node.label


# Integer and float categories; a matrix with one float in it is a float matrix.
TREE_VALUE = st.one_of(st.integers(0, 3), st.sampled_from([-1.0, 0.5, 2.0]))


@st.composite
def tree_problem(draw):
    """Training rows of a few categories and test rows that may hold values
    no training row has, under each depth cap."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 40))
    cells = st.lists(TREE_VALUE, min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    test_cells = st.lists(st.one_of(TREE_VALUE, st.integers(4, 6), st.just(1.5)),
                          min_size=n_features, max_size=n_features)
    test = np.array(draw(st.lists(test_cells, min_size=1, max_size=30)))
    return X, y, test, draw(st.sampled_from([0, 1, None]))


# The root splits feature 1 (majority 1), where 7 has no branch; its 0 branch
# splits feature 0 (majority 0), where 5 has none.
UNSEEN_BRANCH_EXAMPLE = (
    np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 0]]),
    np.array([0, 1, 1, 1, 0]),
    np.array([[5, 0], [1, 7], [0.5, 1], [2.0, 1.0]]),
    None,
)


@settings(max_examples=200, deadline=None)
@given(tree_problem())
@example(UNSEEN_BRANCH_EXAMPLE)
def test_tree_predict_equals_predict_one_and_the_per_row_walk(problem):
    X, y, test, depth = problem
    tree = DecisionTree(max_depth=depth).fit(X, y)
    for rows in (test, X):
        labels, scores = tree.predict(rows)
        assert scores is None
        assert labels.tolist() == [tree.predict_one(row) for row in rows]
        assert labels.tolist() == [_reference_tree_label(tree, row) for row in rows]


def _reference_tree(X, y, max_depth, depth=0):
    """The tree as ``DecisionTree._build`` grew it before the counting
    kernel: each node sorts every column with ``np.unique`` and hands its
    children copies of the matrix.  A node reads ``("leaf", label)`` or
    ``("split", feature, majority, [(key, child), ...])``."""
    counts = tuple(int(c) for c in np.bincount(y, minlength=2))
    majority = 1 if counts[1] > counts[0] else 0
    if counts[0] == 0 or counts[1] == 0 or (max_depth is not None and depth >= max_depth):
        return ("leaf", majority)
    base = _entropy(counts)
    best, best_ratio, fallback = None, 0.0, None
    for j in range(X.shape[1]):
        values, inverse = np.unique(X[:, j], return_inverse=True)
        if len(values) < 2:
            continue
        if fallback is None:
            fallback = (j, values, inverse)
        gain, split_info = base, 0.0
        by_value = np.bincount(inverse * 2 + y, minlength=2 * len(values)).reshape(-1, 2)
        for value_counts in by_value.tolist():
            fraction = (value_counts[0] + value_counts[1]) / y.shape[0]
            gain -= fraction * _entropy(value_counts)
            split_info -= fraction * math.log2(fraction)
        ratio = gain / split_info
        if gain > 1e-12 and ratio > best_ratio + 1e-12:
            best, best_ratio = (j, values, inverse), ratio
    if best is None:
        if fallback is None:
            return ("leaf", majority)
        best = fallback
    feature, values, inverse = best
    branches = []
    for vi, key in enumerate(values.tolist()):
        mask = inverse == vi
        branches.append((key, _reference_tree(X[mask], y[mask], max_depth, depth + 1)))
    return ("split", feature, majority, branches)


def _tree_shape(node):
    """A fitted tree in ``_reference_tree``'s form."""
    if not hasattr(node, "branches"):
        return ("leaf", node.label)
    return ("split", node.feature, node.majority,
            [(key, _tree_shape(child)) for key, child in node.branches.items()])


def _typed(shape):
    """The shape with each branch key's type beside it: 1 == 1.0 must not
    hide an int key turned float."""
    if shape[0] == "leaf":
        return shape
    _split, feature, majority, branches = shape
    return ("split", feature, majority,
            [(type(key), key, _typed(child)) for key, child in branches])


@st.composite
def binned_tree_problem(draw):
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 40))
    cells = st.lists(st.integers(0, 9), min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows)))
    return X, y, draw(st.sampled_from([None, 0, 1, 2, 3]))


@settings(max_examples=200, deadline=None)
@given(binned_tree_problem())
@example((np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), np.array([0, 1, 1, 0]), None))
def test_tree_grows_the_tree_the_sorting_build_grew(problem):
    """Same split features, branch keys in order, majorities and leaf labels
    as the reference build, on the binned integers (the kernel's bincount
    path) and on the same values as floats (its np.unique path)."""
    X, y, depth = problem
    for matrix in (X, X.astype(float)):
        tree = DecisionTree(max_depth=depth).fit(matrix, y)
        assert _typed(_tree_shape(tree.root_)) == _typed(_reference_tree(matrix, y, depth))


class _Stub:
    """A stand-in model: ``predict`` returns fixed labels and scores and keeps
    every matrix it was given."""

    def __init__(self, labels, scores=None):
        self.labels, self.scores, self.seen = labels, scores, []

    def predict(self, X):
        self.seen.append(X)
        return self.labels, self.scores


class TestEvaluate:
    def _dataset(self, labels):
        labels = np.asarray(labels)
        return Dataset(np.arange(labels.size).reshape(-1, 1), labels, ["f0"])

    def test_perfect_classifier(self):
        data = self._dataset([0, 0, 1, 1])
        metrics = evaluate(_Stub([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0]), data)
        assert metrics.accuracy == 100.0
        assert metrics.tpr == 100.0 and metrics.fpr == 0.0
        assert metrics.auc == pytest.approx(1.0)

    def test_label_inverting_classifier_on_balanced_set(self):
        data = self._dataset([0, 0, 1, 1])
        metrics = evaluate(_Stub([1, 1, 0, 0], [1.0, 1.0, 0.0, 0.0]), data)
        assert metrics.accuracy == 0.0
        assert metrics.auc == pytest.approx(0.0)

    def test_one_class_test_set_reports_undefined_rates_as_none(self):
        data = self._dataset([1, 1, 1])
        metrics = evaluate(_Stub([1, 1, 1]), data)
        assert metrics.tnr is None and metrics.fpr is None
        assert metrics.tpr == 100.0

    def test_identities_hold_whenever_both_classes_present(self):
        rng = np.random.default_rng(6)
        data = self._dataset(rng.integers(0, 2, 200))
        metrics = evaluate(_Stub(rng.integers(0, 2, 200)), data)
        ok, deviations = rate_identities_hold(
            metrics.tpr, metrics.fnr, metrics.tnr, metrics.fpr, tolerance=1e-6
        )
        assert ok, deviations

    def test_non_binary_prediction_rejected_naming_the_row(self):
        data = self._dataset([0, 1, 0, 1])
        with pytest.raises(ValueError, match=r"row 0: predicted label 2 is not 0 or 1"):
            evaluate(_Stub([2, 2, 2, 2]), data)
        with pytest.raises(ValueError, match=r"row 2: predicted label -1 is not 0 or 1"):
            evaluate(_Stub(np.array([0, 1, -1, 1]), np.full(4, 0.5)), data)

    @pytest.mark.parametrize("labels, scores", [
        pytest.param([0, 1, 0], None, id="short-labels"),
        pytest.param([0, 1, 0, 1, 1], None, id="long-labels"),
        pytest.param([0, 1, 0, 1], [0.5, 0.5], id="short-scores"),
    ])
    def test_one_label_and_score_per_row_required(self, labels, scores):
        with pytest.raises(ValueError, match="one label, and one score or none, per row of 4"):
            evaluate(_Stub(labels, scores), self._dataset([0, 1, 0, 1]))

    def test_predict_gets_the_whole_matrix_once(self):
        data = Dataset(np.array([[3, 1], [4, 1], [5, 9]]), np.array([0, 1, 0]), ["a", "b"])
        model = _Stub([0, 0, 0])
        evaluate(model, data)
        assert len(model.seen) == 1
        assert np.array_equal(model.seen[0], [[3, 1], [4, 1], [5, 9]])

    def test_a_bound_method_stands_for_its_model(self):
        class Model(_Stub):
            def predict_one(self, row):
                raise AssertionError("evaluate scored a single row")

        model = Model([0, 1], [0.25, 0.75])
        metrics = evaluate(model.predict_one, self._dataset([0, 1]))
        assert len(model.seen) == 1
        assert metrics.auc == 1.0

    def test_roc_monotone_nondecreasing_along_sorted_fpr(self):
        rng = np.random.default_rng(7)
        data = self._dataset(rng.integers(0, 2, 100))
        scores = rng.uniform(0, 1, 100)
        metrics = evaluate(_Stub((scores > 0.5).astype(int), scores), data)
        fprs = [f for f, _ in metrics.roc]
        tprs = [t for _, t in metrics.roc]
        assert fprs == sorted(fprs)
        assert all(b >= a - 1e-12 for a, b in zip(tprs, tprs[1:]))
        assert 0.0 <= metrics.auc <= 1.0


# sha256 of features.tobytes() + labels.tobytes(), as the column-by-column
# generator (np.column_stack, np.vstack, concatenated labels) made them.
SYNTHETIC_SHA256 = {
    (6000, 0): "934b60f533331b59e9b8a1c52047acd761b9d8c1f23abaa94449eafe3a257f36",
    (2000, 3): "f4abe88f56628bc1565c57aecc084d8bc7e00d71452dd9e8084ad2ddcdc782bf",
    (7, 1): "b82330d0a94a11268c130204c77ff86a99898dad5b55fb387f2350303ad3f2ee",
    (1, 0): "3bd5fd5181d7966ebd696b1abda023159173412489917f234e7b939e0cfc67d7",
}


class TestDataPipeline:
    @pytest.mark.parametrize("n_rows, seed", list(SYNTHETIC_SHA256))
    def test_synthetic_dataset_bytes_are_pinned(self, n_rows, seed):
        data = synthetic_flow_dataset(n_rows=n_rows, seed=seed)
        assert data.features.shape == (n_rows, 6)
        assert data.features.dtype == np.float64 and data.labels.dtype == np.int64
        digest = hashlib.sha256(data.features.tobytes() + data.labels.tobytes()).hexdigest()
        assert digest == SYNTHETIC_SHA256[n_rows, seed]

    def test_synthetic_dataset_is_seed_reproducible(self):
        a = synthetic_flow_dataset(n_rows=200, seed=42)
        b = synthetic_flow_dataset(n_rows=200, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_binner_gives_roughly_equal_buckets(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, size=(1000, 1))
        bins = EqualFrequencyBinner(n_bins=10).fit(X).transform(X)
        counts = np.bincount(bins[:, 0], minlength=10)
        assert counts.min() >= 50  # near 100 each for a continuous column

    def test_csv_round_trip(self, tmp_path):
        data = synthetic_flow_dataset(n_rows=50, seed=3)
        path = tmp_path / "flows.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(data.feature_names + ["label"])
            for row, label in zip(data.features, data.labels):
                writer.writerow([f"{v:.6g}" for v in row] + [int(label)])
        loaded = load_csv(path)
        assert loaded.feature_names == data.feature_names
        assert np.array_equal(loaded.labels, data.labels)
        assert np.allclose(loaded.features, data.features, rtol=1e-4)

    @pytest.mark.parametrize("body, message", [
        ("1,2,0\n3,1\n", "row 2 has 2 cells"),
        ("1,2,0\n3,4,0.5\n", "labels must be binary"),
        ("1,2,0\nx,4,1\n", "row 2, column 'a'"),
    ])
    def test_csv_rejects_malformed_rows(self, body, message, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_text("a,b,label\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_split_is_seeded_and_disjoint(self):
        data = synthetic_flow_dataset(n_rows=100, seed=5)
        train_a, test_a = train_test_split(data, 0.3, seed=9)
        train_b, test_b = train_test_split(data, 0.3, seed=9)
        assert np.array_equal(train_a.features, train_b.features)
        assert train_a.n_rows + test_a.n_rows == data.n_rows

    def test_nb_on_separable_synthetic_data_scores_high(self):
        data = synthetic_flow_dataset(n_rows=1000, seed=7)
        binner = EqualFrequencyBinner(n_bins=10).fit(data.features)
        binned = Dataset(binner.transform(data.features), data.labels, data.feature_names)
        train, test = train_test_split(binned, 0.3, seed=7)
        model = NaiveBayesClassifier().fit(train.features, train.labels)
        metrics = evaluate(model, test)
        assert metrics.accuracy >= 95.0


@st.composite
def binner_problem(draw):
    """A float matrix whose values repeat often enough to repeat an edge."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]),
                      st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    cells = st.lists(value, min_size=n_features, max_size=n_features)
    X = np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)), dtype=float)
    return X, draw(st.integers(2, 12))


@settings(max_examples=200, deadline=None)
@given(binner_problem())
@example((np.array([[0.0], [0.0], [0.0], [1.0]]), 4))
def test_binner_equals_per_column_quantile_and_searchsorted(problem):
    """``fit`` gives each column's own ``np.quantile`` edges bit for bit, and
    ``transform`` gives ``searchsorted(side="right")``, also on values that
    equal an edge."""
    X, n_bins = problem
    binner = EqualFrequencyBinner(n_bins=n_bins).fit(X)
    quantiles = np.linspace(0, 1, n_bins + 1)[1:-1]
    assert len(binner.edges_) == X.shape[1]
    for j, edges in enumerate(binner.edges_):
        assert np.array_equal(edges, np.quantile(X[:, j], quantiles))
    rows = np.vstack([X, np.column_stack(binner.edges_)])
    expected = np.column_stack([np.searchsorted(edges, rows[:, j], side="right")
                                for j, edges in enumerate(binner.edges_)])
    binned = binner.transform(rows)
    assert binned.dtype == expected.dtype
    assert np.array_equal(binned, expected)
