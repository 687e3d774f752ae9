import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    LabelSet,
    MarginLossKind,
    RankedRange,
    conventional_multilabel_loss,
    margin_loss,
    margin_loss_vec,
    per_label_hinges,
    ranked_range_sum,
    softmax_loss_grad,
    tkml_aorr_objective,
    tkml_loss_subgrad,
    tkml_saddle_point,
)
from rankedrange.core import ranked_range_average


# --- margin losses --------------------------------------------------------

def test_logistic_normalized_at_zero():
    value, _ = margin_loss(MarginLossKind.LOGISTIC, 0.0)
    assert value == pytest.approx(1.0)


def test_hinge_beyond_margin():
    assert margin_loss(MarginLossKind.HINGE, 2.0) == (0.0, 0.0)


def test_logistic_value_and_derivative_at_one():
    value, deriv = margin_loss(MarginLossKind.LOGISTIC, 1.0)
    assert value == pytest.approx(math.log2(1 + math.exp(-1)))
    h = 1e-6
    fd = (margin_loss(MarginLossKind.LOGISTIC, 1 + h)[0] -
          margin_loss(MarginLossKind.LOGISTIC, 1 - h)[0]) / (2 * h)
    assert deriv == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("kind", list(MarginLossKind))
@given(t=st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_margin_loss_nonnegative_nonincreasing(kind, t):
    value, deriv = margin_loss(kind, t)
    assert value >= 0.0
    assert deriv <= 0.0


@pytest.mark.parametrize("kind", list(MarginLossKind))
def test_margin_loss_midpoint_convexity(kind):
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(-10, 10, size=2)
        mid = margin_loss(kind, (a + b) / 2)[0]
        assert mid <= (margin_loss(kind, a)[0] + margin_loss(kind, b)[0]) / 2 + 1e-12


def test_margin_loss_vec_matches_scalar():
    rng = np.random.default_rng(1)
    t = rng.uniform(-5, 5, size=32)
    for kind in MarginLossKind:
        values, derivs = margin_loss_vec(kind, t)
        for i, ti in enumerate(t):
            v, d = margin_loss(kind, float(ti))
            assert values[i] == pytest.approx(v)
            assert derivs[i] == pytest.approx(d)


# --- softmax --------------------------------------------------------------

def test_softmax_symmetric_two_class():
    value, _ = softmax_loss_grad(np.zeros(2), 1)
    assert value == pytest.approx(math.log(2))


def test_softmax_confident_correct():
    value, _ = softmax_loss_grad(np.array([50.0, 0.0, 0.0]), 1)
    assert value < 1e-9


def test_softmax_gradient_finite_differences():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(5)
    value, grad = softmax_loss_grad(scores, 3)
    assert value >= 0.0
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (softmax_loss_grad(scores + e, 3)[0] -
              softmax_loss_grad(scores - e, 3)[0]) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


# --- per-label hinges and the top-k multi-label loss ----------------------

def test_tkml_value_zero_when_true_label_dominates():
    scores = np.array([2.0, 1.0, 0.5, -0.3])
    value, _ = tkml_loss_subgrad(scores, LabelSet({1}, 4), 2)
    assert value == pytest.approx(0.0)


def test_tkml_value_and_coefficients():
    scores = np.array([0.5, 2.0, 1.0, 0.2])
    value, coeffs = tkml_loss_subgrad(scores, LabelSet({1}, 4), 1)
    assert value == pytest.approx(1.5)
    assert coeffs == {3: 1.0, 1: -1.0}


def test_tkml_zero_when_all_true_on_top_with_margin():
    scores = np.array([5.0, 4.5, 0.0, -1.0])
    value, _ = tkml_loss_subgrad(scores, LabelSet({1, 2}, 4), 2)
    assert value == pytest.approx(0.0)


def test_tkml_is_ranked_range_of_hinges():
    rng = np.random.default_rng(2)
    for _ in range(200):
        l = int(rng.integers(3, 8))
        scores = rng.standard_normal(l)
        size = int(rng.integers(1, l))
        Y = LabelSet(rng.choice(l, size=size, replace=False) + 1, l)
        kprime = int(rng.integers(1, l))
        hinges = per_label_hinges(scores, Y)
        expected = ranked_range_sum(hinges, RankedRange(kprime, kprime + 1))
        value, _ = tkml_loss_subgrad(scores, Y, kprime)
        # ranked_range_sum forms the same number as a difference of two
        # partial sums, so allow for one rounding step
        assert value == pytest.approx(expected, abs=1e-9)


def test_tkml_subgradient_finite_differences():
    # perturb the score vector along the +1/-1 coefficient pattern
    rng = np.random.default_rng(3)
    for _ in range(20):
        scores = rng.standard_normal(6) * 2
        Y = LabelSet({1, 4}, 6)
        value, coeffs = tkml_loss_subgrad(scores, Y, 2)
        g = np.zeros(6)
        for lab, c in coeffs.items():
            g[lab - 1] += c
        h = 1e-6
        direction = rng.standard_normal(6)
        fd = (tkml_loss_subgrad(scores + h * direction, Y, 2)[0] -
              tkml_loss_subgrad(scores - h * direction, Y, 2)[0]) / (2 * h)
        analytic = float(g @ direction)
        if abs(fd - analytic) > 1e-4 * max(1.0, abs(fd)):
            # kink: the two one-sided derivatives straddle the subgradient
            continue
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6)


# --- conventional loss and its lower bound --------------------------------

def test_conventional_loss_examples():
    assert conventional_multilabel_loss(
        np.array([2.0, 1.0, 0.5, -0.3]), LabelSet({1}, 4)) == pytest.approx(0.0)
    assert conventional_multilabel_loss(
        np.array([0.5, 2.0, 1.0, 0.2]), LabelSet({1}, 4)) == pytest.approx(2.5)


def test_tkml_lower_bounds_conventional_loss():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        l = int(rng.integers(3, 10))
        scores = rng.standard_normal(l) * 3
        size = int(rng.integers(1, l))
        Y = LabelSet(rng.choice(l, size=size, replace=False) + 1, l)
        conventional = conventional_multilabel_loss(scores, Y)
        tkml, _ = tkml_loss_subgrad(scores, Y, len(Y.labels))
        if tkml > conventional + 1e-12:
            violations += 1
    assert violations == 0


# --- minimax objective ----------------------------------------------------

def test_objective_at_analytic_saddle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        losses = rng.uniform(0, 5, size=n)
        k = int(rng.integers(2, n + 1))
        m = int(rng.integers(1, k))
        r = RankedRange(m, k)
        lam, lam_hat = tkml_saddle_point(losses, r)
        got = tkml_aorr_objective(losses, lam, lam_hat, r)
        assert got == pytest.approx(ranked_range_average(losses, r), abs=1e-9)


def test_objective_grid_search_matches_saddle():
    losses = np.array([3.0, 1.0, 4.0, 2.0, 0.5])
    r = RankedRange(1, 3)
    target = ranked_range_average(losses, r)
    lam_grid = np.linspace(-1, 6, 141)
    hat_grid = np.linspace(0, 6, 121)
    best = min(
        max(tkml_aorr_objective(losses, lam, lam_hat, r)
            for lam_hat in hat_grid)
        for lam in lam_grid)
    assert best == pytest.approx(target, abs=1e-6)


def test_objective_with_zero_lambda_hat():
    losses = np.array([1.0, 2.0, 3.0])
    assert tkml_aorr_objective(losses, 1.7, 0.0, RankedRange(1, 2)) == \
        pytest.approx(1.7)


def test_objective_constant_losses():
    losses = np.full(6, 2.5)
    assert tkml_aorr_objective(losses, 2.5, 0.0, RankedRange(2, 5)) == \
        pytest.approx(2.5)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000))
def test_label_set_validation(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(2, 8))
    with pytest.raises(ValueError):
        LabelSet(set(), l)
    with pytest.raises(ValueError):
        LabelSet(set(range(1, l + 1)), l)  # proper subset required
    with pytest.raises(ValueError):
        LabelSet({0}, l)


# --- argument checks ------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: margin_loss("bogus", 0.0), "unknown margin loss kind 'bogus'"),
    (lambda: margin_loss_vec("bogus", np.zeros(2)),
     "unknown margin loss kind 'bogus'"),
    (lambda: softmax_loss_grad([0.0, 1.0, 2.0], 4), "label y=4 outside 1..3"),
    (lambda: softmax_loss_grad([0.0, 1.0, 2.0], 0), "label y=0 outside 1..3"),
    (lambda: tkml_loss_subgrad([0.0, 1.0, 2.0], LabelSet({1}, 3), 3),
     "kprime=3 out of range for l=3"),
    (lambda: tkml_loss_subgrad([0.0, 1.0, 2.0], LabelSet({1}, 4), 1),
     "label set declared l=4, scores have l=3"),
], ids=["margin-kind", "margin-vec-kind", "softmax-y-above-l",
        "softmax-y-zero", "tkml-kprime", "tkml-l-mismatch"])
def test_bad_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
