"""Evaluation metrics for binary, multi-class, and multi-label prediction.

Score ties are always broken by lowest label index; a zero binary margin
counts as the positive class.
"""

from __future__ import annotations

import numpy as np


def _topk_sets(scores: np.ndarray, k: int):
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, :k]


def error_rate(predictions, truth) -> float:
    """Fraction misclassified.

    Binary: ``predictions`` are signed margins, decision by sign.
    Multi-class: ``predictions`` is an n x l score matrix, decision by
    argmax.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth)
    if predictions.shape[0] != truth.shape[0]:
        raise ValueError(
            f"length mismatch: {predictions.shape[0]} predictions, {truth.shape[0]} labels")
    if predictions.ndim == 1:
        decided = np.where(predictions >= 0, 1, -1)
        return float(np.mean(decided != truth))
    decided = np.argmax(predictions, axis=1) + 1
    return float(np.mean(decided != truth))


def topk_accuracy(scores, labels, k: int) -> float:
    """Fraction of samples whose true class scores among the top k."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    l = scores.shape[1]
    if not 1 <= k <= l:
        raise ValueError(f"k={k} outside 1..{l}")
    top = _topk_sets(scores, k)
    hits = np.any(top == (labels - 1)[:, None], axis=1)
    return float(np.mean(hits))


def topk_multilabel_accuracy(scores, label_matrix, k: int) -> float:
    """Fraction of samples where the top-k prediction set Z and the truth Y,
    the row of the n x l boolean ``label_matrix``, satisfy Z subset-of Y or
    Y subset-of Z."""
    scores = np.asarray(scores, dtype=np.float64)
    Y = np.asarray(label_matrix, dtype=bool)
    l = scores.shape[1]
    if not 1 <= k < l:
        raise ValueError(f"k={k} outside 1..{l - 1}")
    Z = np.zeros_like(Y)
    np.put_along_axis(Z, _topk_sets(scores, k), True, axis=1)
    hits = ~(Z & ~Y).any(axis=1) | ~(Y & ~Z).any(axis=1)
    return np.count_nonzero(hits) / Y.shape[0]


def average_precision(scores, label_matrix) -> float:
    """Label-ranking average precision with the <=-rank convention, Y_i the
    true labels of row i of the n x l boolean ``label_matrix``:

    AP = (1/n) sum_i (1/|Y_i|) sum_{j in Y_i}
         |{tau in Y_i : rank(tau) <= rank(j)}| / rank(j)

    Each row's terms are added in rank order, and the rows in row order."""
    scores = np.asarray(scores, dtype=np.float64)
    Y = np.asarray(label_matrix, dtype=bool)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked = np.take_along_axis(Y, order, axis=1)  # Y in rank order
    ranks = np.arange(1, Y.shape[1] + 1)
    terms = np.where(ranked, np.cumsum(ranked, axis=1) / ranks, 0.0)
    per_row = np.cumsum(terms, axis=1)[:, -1] / np.count_nonzero(Y, axis=1)
    return sum(per_row.tolist()) / Y.shape[0]
