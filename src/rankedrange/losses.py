"""Individual losses: binary margin losses, softmax, the top-k multi-label
hinge loss with its subgradient, and the combined sample/label objective.

Labels are 1-based everywhere (classes 1..l), matching the file formats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import RankedRange, as_values, sort_descending

_LN2 = math.log(2.0)


class MarginLossKind(enum.Enum):
    LOGISTIC = "logistic"
    HINGE = "hinge"


@dataclass(frozen=True)
class LabelSet:
    """A non-empty proper subset of the label space {1, ..., l}."""

    labels: frozenset
    l: int

    def __init__(self, labels, l: int):
        labels = frozenset(int(y) for y in labels)
        if not labels:
            raise ValueError("label set must be non-empty")
        if any(y < 1 or y > l for y in labels):
            raise ValueError(f"labels {sorted(labels)} outside 1..{l}")
        if len(labels) >= l:
            raise ValueError("label set must be a proper subset of the label space")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "l", int(l))


def margin_loss(kind: MarginLossKind, t: float) -> tuple:
    """Value and derivative of an individual margin loss at margin t.

    logistic(t) = log2(1 + e^-t); hinge(t) = [1 - t]_+ with subderivative
    0 at the kink t = 1.
    """
    if kind is MarginLossKind.LOGISTIC:
        value = np.logaddexp(0.0, -t) / _LN2
        # d/dt log2(1+e^-t) = -sigmoid(-t)/ln2
        deriv = -1.0 / ((1.0 + np.exp(t)) * _LN2) if t > -500 else -1.0 / _LN2
        return float(value), float(deriv)
    if kind is MarginLossKind.HINGE:
        if t < 1.0:
            return 1.0 - t, -1.0
        return 0.0, 0.0
    raise ValueError(f"unknown margin loss kind {kind!r}")


def margin_loss_vec(kind: MarginLossKind, t: np.ndarray) -> tuple:
    """Vectorized ``margin_loss``; returns (values, derivatives)."""
    t = np.asarray(t, dtype=np.float64)
    if kind is MarginLossKind.LOGISTIC:
        values = np.logaddexp(0.0, -t) / _LN2
        derivs = -1.0 / ((1.0 + np.exp(np.clip(t, -500, 500))) * _LN2)
        return values, derivs
    if kind is MarginLossKind.HINGE:
        active = t < 1.0
        return np.maximum(1.0 - t, 0.0), np.where(active, -1.0, 0.0)
    raise ValueError(f"unknown margin loss kind {kind!r}")


def softmax_loss_grad(scores, y: int) -> tuple:
    """Cross-entropy on softmax probabilities for true class y (1-based).

    Returns (value, gradient w.r.t. the score vector); stabilized by
    max-subtraction.
    """
    scores = np.asarray(scores, dtype=np.float64)
    l = scores.size
    if not 1 <= y <= l:
        raise ValueError(f"label y={y} outside 1..{l}")
    shifted = scores - scores.max()
    logz = np.log(np.sum(np.exp(shifted)))
    p = np.exp(shifted - logz)
    value = logz - shifted[y - 1]
    grad = p.copy()
    grad[y - 1] -= 1.0
    return float(value), grad


def per_label_hinges(scores, Y: LabelSet) -> np.ndarray:
    """The per-label losses s_j = [1 + score_j - min_{y in Y} score_y]_+."""
    scores = np.asarray(scores, dtype=np.float64)
    worst_true = min(scores[y - 1] for y in Y.labels)
    return np.maximum(1.0 + scores - worst_true, 0.0)


def tkml_loss_subgrad(scores, Y: LabelSet, kprime: int) -> tuple:
    """Top-k multi-label loss: the (k'+1)-th largest per-label hinge.

    Returns (value, coefficients) where coefficients maps 1-based labels to
    the per-label multipliers of the feature vector in the subgradient:
    +1 on the label at rank k'+1, -1 on the argmin true label, nothing when
    the loss is zero.  Ties broken by lowest label index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    l = scores.size
    if not 1 <= kprime < l:
        raise ValueError(f"kprime={kprime} out of range for l={l}")
    if Y.l != l:
        raise ValueError(f"label set declared l={Y.l}, scores have l={l}")
    s = per_label_hinges(scores, Y)
    order = np.argsort(-s, kind="stable")
    j_star = int(order[kprime])  # 0-based label attaining rank k'+1
    value = float(s[j_star])
    coeffs = {}
    if value > 0.0:
        true_idx = sorted(y - 1 for y in Y.labels)
        y_star = min(true_idx, key=lambda j: (scores[j], j))
        coeffs[j_star + 1] = coeffs.get(j_star + 1, 0.0) + 1.0
        coeffs[y_star + 1] = coeffs.get(y_star + 1, 0.0) - 1.0
        coeffs = {j: c for j, c in coeffs.items() if c != 0.0}
    return value, coeffs


def conventional_multilabel_loss(scores, Y: LabelSet) -> float:
    """Hinge of 1 + (best wrong-label score) - (worst true-label score)."""
    scores = np.asarray(scores, dtype=np.float64)
    wrong = [scores[j] for j in range(scores.size) if (j + 1) not in Y.labels]
    worst_true = min(scores[y - 1] for y in Y.labels)
    return float(max(1.0 + max(wrong) - worst_true, 0.0))


def tkml_aorr_objective(losses, lam: float, lam_hat: float, r: RankedRange) -> float:
    """The combined sample-level objective at a fixed (lam, lam_hat) pair:

    lam + ((n-m)/(k-m))*lam_hat - (1/(k-m)) * sum_i [lam_hat - [s_i - lam]_+]_+

    Its saddle value over (lam, lam_hat) equals the ranked-range average of
    the losses.
    """
    arr = as_values(losses)
    n = arr.size
    r.validate(n)
    inner = np.maximum(lam_hat - np.maximum(arr - lam, 0.0), 0.0)
    return float(
        lam + (n - r.m) / r.width * lam_hat - np.sum(inner) / r.width
    )


def tkml_saddle_point(losses, r: RankedRange) -> tuple:
    """The analytic (lam, lam_hat) saddle for a fixed loss set."""
    srt = sort_descending(losses)
    lam = srt[r.k - 1]
    lam_hat = (srt[r.m - 1] if r.m >= 1 else srt[0]) - lam
    return float(lam), float(lam_hat)
