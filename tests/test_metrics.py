import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    average_precision,
    error_rate,
    topk_accuracy,
    topk_multilabel_accuracy,
)


def _matrix(labelsets, l):
    """The n x l boolean label matrix of 1-based label sets."""
    Y = np.zeros((len(labelsets), l), dtype=bool)
    for i, ys in enumerate(labelsets):
        Y[i, [y - 1 for y in ys]] = True
    return Y


def test_error_rate_perfect_and_worst():
    assert error_rate(np.array([1.0, -2.0]), np.array([1, -1])) == 0.0
    assert error_rate(np.array([-1.0, 2.0]), np.array([1, -1])) == 1.0


def test_error_rate_binary_third():
    margins = np.array([1.0, -1.0, 1.0])
    labels = np.array([1, 1, 1])
    assert error_rate(margins, labels) == pytest.approx(1 / 3)


def test_error_rate_multiclass_argmax():
    scores = np.array([[0.1, 0.9], [0.8, 0.2]])
    assert error_rate(scores, np.array([2, 1])) == 0.0
    assert error_rate(scores, np.array([1, 2])) == 1.0


def test_error_rate_length_mismatch():
    with pytest.raises(ValueError):
        error_rate(np.array([1.0]), np.array([1, -1]))


def test_topk_accuracy_k_equals_l():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((20, 4))
    labels = rng.integers(1, 5, size=20)
    assert topk_accuracy(scores, labels, 4) == 1.0


def test_topk_accuracy_example():
    scores = np.array([[0.1, 0.5, 0.4]])
    assert topk_accuracy(scores, np.array([3]), 2) == 1.0
    assert topk_accuracy(scores, np.array([1]), 2) == 0.0


def test_top1_matches_error_rate():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((50, 6))
    labels = rng.integers(1, 7, size=50)
    assert topk_accuracy(scores, labels, 1) == pytest.approx(
        1.0 - error_rate(scores, labels))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_topk_accuracy_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((25, 5))
    labels = rng.integers(1, 6, size=25)
    accs = [topk_accuracy(scores, labels, k) for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))


def test_topk_accuracy_range_check():
    with pytest.raises(ValueError):
        topk_accuracy(np.zeros((1, 3)), np.array([1]), 0)
    with pytest.raises(ValueError):
        topk_accuracy(np.zeros((1, 3)), np.array([1]), 4)


# --- multi-label containment accuracy -------------------------------------

def test_multilabel_accuracy_equality_counts():
    scores = np.array([[3.0, 0.0, 2.0, -1.0]])
    assert topk_multilabel_accuracy(scores, _matrix([{1, 3}], 4), 2) == 1.0


def test_multilabel_accuracy_subset_counts():
    scores = np.array([[0.0, -1.0, 3.0, -2.0]])
    assert topk_multilabel_accuracy(scores, _matrix([{1, 3}], 4), 1) == 1.0


def test_multilabel_accuracy_neither_inclusion():
    # top-2 = {2, 3} vs truth {1, 3}: no containment either way
    scores = np.array([[0.0, 2.0, 3.0, -2.0]])
    assert topk_multilabel_accuracy(scores, _matrix([{1, 3}], 4), 2) == 0.0


def test_multilabel_accuracy_true_sets_on_top():
    rng = np.random.default_rng(2)
    labelsets, rows = [], []
    for _ in range(30):
        Y = set(rng.choice(6, size=2, replace=False) + 1)
        scores = rng.uniform(-1, 0, size=6)
        for y in Y:
            scores[y - 1] = rng.uniform(5, 6)
        labelsets.append(frozenset(Y))
        rows.append(scores)
    assert topk_multilabel_accuracy(np.array(rows), _matrix(labelsets, 6),
                                    2) == 1.0


def test_multilabel_accuracy_range_check():
    with pytest.raises(ValueError):
        topk_multilabel_accuracy(np.zeros((1, 3)), _matrix([{1}], 3), 3)


# --- average precision ----------------------------------------------------

def test_ap_perfect_ranking():
    scores = np.array([[3.0, 2.0, -1.0, -2.0]])
    assert average_precision(scores, _matrix([{1, 2}], 4)) == pytest.approx(1.0)


def test_ap_hand_computed():
    # true labels at ranks 1 and 3: (1/2) * (1/1 + 2/3) = 5/6
    scores = np.array([[3.0, 1.0, 2.0, 0.0]])
    assert average_precision(scores, _matrix([{1, 2}], 4)) == pytest.approx(5 / 6)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30)
def test_ap_in_unit_interval_and_monotone_invariant(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((15, 5))
    labelsets = _matrix([rng.choice(5, size=int(rng.integers(1, 4)),
                                    replace=False) + 1 for _ in range(15)], 5)
    ap = average_precision(scores, labelsets)
    assert 0.0 <= ap <= 1.0
    transformed = np.exp(2.0 * scores) + 7.0  # strictly increasing map
    assert average_precision(transformed, labelsets) == pytest.approx(ap)


# --- the whole-array metrics against per-row loops ------------------------

def _topk_multilabel_loop(scores, labelsets, k):
    """Per-row containment accuracy over 1-based label sets."""
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    hits = 0
    for i, Y in enumerate(labelsets):
        Z = {int(j) + 1 for j in top[i]}
        if Z <= Y or Y <= Z:
            hits += 1
    return hits / len(labelsets)


def _average_precision_loop(scores, labelsets):
    """Per-row average precision over 1-based label sets."""
    total = 0.0
    for i, Y in enumerate(labelsets):
        order = np.argsort(-scores[i], kind="stable")
        rank = np.empty(scores.shape[1], dtype=np.int64)
        rank[order] = np.arange(1, scores.shape[1] + 1)
        true_ranks = sorted(rank[y - 1] for y in Y)
        sample = sum((pos + 1) / r for pos, r in enumerate(true_ranks))
        total += sample / len(Y)
    return total / len(labelsets)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=14))
@settings(max_examples=200, deadline=None)
def test_multilabel_metrics_equal_the_per_row_loops(seed, l):
    # scores on a coarse grid tie often; some rows carry NaN scores
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    scores = rng.integers(-3, 4, size=(n, l)) / 2.0
    scores[rng.random((n, l)) < 0.1] = np.nan
    labelsets = [frozenset(int(y) + 1 for y in rng.choice(
        l, size=int(rng.integers(1, l)), replace=False)) for _ in range(n)]
    Y = _matrix(labelsets, l)
    for k in range(1, l):
        assert topk_multilabel_accuracy(scores, Y, k) == \
            _topk_multilabel_loop(scores, labelsets, k)
    assert average_precision(scores, Y) == \
        _average_precision_loop(scores, labelsets)
