"""Traffic anomaly classifiers: chi-square feature selection, naive Bayes, a
gain-ratio decision tree and their evaluation."""

from .base import check_features_labels, check_matrix
from .classifiers import DecisionTree, NaiveBayesClassifier
from .data import (
    Dataset,
    EqualFrequencyBinner,
    load_csv,
    synthetic_flow_dataset,
    train_test_split,
)
from .features import (
    backward_elimination_ranking,
    chi_square_ranking,
    select_features,
)
from .metrics import (
    EvalMetrics,
    auc_from_points,
    evaluate,
    rate_identities_hold,
    roc_points,
)

__all__ = [
    "Dataset",
    "DecisionTree",
    "EqualFrequencyBinner",
    "EvalMetrics",
    "NaiveBayesClassifier",
    "auc_from_points",
    "backward_elimination_ranking",
    "check_features_labels",
    "check_matrix",
    "chi_square_ranking",
    "evaluate",
    "load_csv",
    "rate_identities_hold",
    "roc_points",
    "select_features",
    "synthetic_flow_dataset",
    "train_test_split",
]
