"""Trainers: difference-of-convex descent on ranked-range objectives,
validation-driven threshold learning, the combined sample/label minimax
updates, and average-loss descent (the ranked range m = 0, k = n).

Every loss spec has one batched method, ``value_and_grad(W, b, rows)``,
giving the loss of each row of ``rows`` and its derivative with respect to
the row's scores; the trainers turn those into parameter gradients through
``_chain_rule``.  ``rows`` is a whole Dataset or one step's gathered batch,
and every trainer takes its steps over the rows that ``_batches`` yields.
The per-label logistic baseline is one more spec.  ``sgd_average_train``
(which also gives the ``tkml_aorr_train`` warm start) and the
``auto_train`` warm-up take their epochs from one average-descent loop,
``_average_descent``.
All trainers are deterministic functions of (data, config.seed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import RankedRange, as_values, descending_order, sort_descending
from .data import ConfigError, Dataset
from .losses import (
    MarginLossKind,
    margin_loss_vec,
    tkml_saddle_point,
)
from .model import LinearModel


class TrainingDiverged(ArithmeticError):
    """Raised when a trainer's objective goes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(epoch)  # pickles by its arguments
        self.epoch = epoch

    def __str__(self):
        return f"objective became non-finite at epoch {self.epoch}"


@dataclass(frozen=True)
class TrainConfig:
    kprime: int = 1
    C: float = 1e4
    eta_outer: float = 0.1
    eta_inner: float = 0.01
    outer_epochs: int = 5
    inner_epochs: int = 1000
    warmup_epochs: int = 100
    batch: int = 1  # 1 = pure stochastic, 0 = full batch
    seed: int = 0
    patience: int = 3
    refresh_every: int = 10
    init_scale: float = 0.0  # stddev of the random start (0 = zero init)

    def __post_init__(self):
        for name in ("kprime", "C", "eta_outer", "eta_inner", "outer_epochs",
                     "inner_epochs", "patience", "refresh_every"):
            if not getattr(self, name) > 0:  # NaN included
                raise ConfigError(f"train.{name}",
                                  f"{name}={getattr(self, name)} must be > 0")
        for name in ("batch", "warmup_epochs", "init_scale"):
            if not getattr(self, name) >= 0:  # NaN included
                raise ConfigError(f"train.{name}",
                                  f"{name}={getattr(self, name)} must be >= 0")


@dataclass(frozen=True)
class LambdaPair:
    lam: float
    lam_hat: float | None  # None where a trainer learns no lam_hat


@dataclass
class TrainReport:
    model: LinearModel
    objective_trace: list  # the measured objectives: finite, at least one
    lambdas: list  # LambdaPair per logged epoch (may be empty)
    key: float | None = None  # the model's validation score, when scored


# ---------------------------------------------------------------------------
# loss specs: per-row losses and their derivatives w.r.t. the row's scores

def _scores(W, b, X):
    scores = X @ W.T
    scores += b
    return scores


class _LossSpec:
    """A loss spec's one batched method is ``value_and_grad(W, b, rows) ->
    (values, G)``: the loss of each row and G, rows.n x l, the derivative of
    each row's loss with respect to that row's scores X @ W.T + b.  ``rows``
    is a Dataset or a ``_Batch``; a spec reads only its ``features``,
    ``label_matrix`` and (tkml) ``inf_off_labels``."""

    def losses(self, W, b, data: Dataset) -> np.ndarray:
        return self.value_and_grad(W, b, data)[0]


class BinaryMarginLoss(_LossSpec):
    """Individual margin loss s(y * f(x)) for l = 1 models."""

    def __init__(self, kind: MarginLossKind):
        self.kind = kind

    def value_and_grad(self, W, b, rows) -> tuple:
        y = np.where(rows.label_matrix[:, 0], 1.0, -1.0)  # the +1 class
        scores = _scores(W, b, rows.features)[:, 0]
        values, derivs = margin_loss_vec(self.kind, y * scores)
        return values, (derivs * y)[:, None]


class SoftmaxLoss(_LossSpec):
    """Softmax cross-entropy for multi-class models (labels 1..l)."""

    def value_and_grad(self, W, b, rows) -> tuple:
        # the shifted scores, the probabilities and G take the scores'
        # buffer in turn: at large n each fresh rows x l array would be
        # page-faulted in anew on every call
        S = _scores(W, b, rows.features)
        S -= S.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(S), axis=1))
        onehot = rows.label_matrix
        values = logz - S[onehot]
        S -= logz[:, None]
        np.exp(S, out=S)
        S -= onehot
        return values, S


# hinge-matrix size (rows x labels) from which TKMLSampleLoss ranks labels
# label-major: below it, the fixed count of whole-matrix numpy calls of that
# path costs more than the stable argsort's per-row passes (measured on
# tie-free scores: about 1,200 entries at both l = 6 and l = 14)
_PARTITION_MIN_SIZE = 1536


def _stable_rank(scores, label_matrix, kprime) -> tuple:
    """TKML values and G from a stable argsort of each row's negated hinges:
    ties go to the lowest label index, NaN sorts last."""
    n, l = scores.shape
    masked = np.where(label_matrix, scores, np.inf)
    offsets = np.arange(0, n * l, l)  # of each row in the flat matrix
    y_star = masked.argmin(axis=1) + offsets  # first minimum = lowest index
    neg = scores + 1.0  # -hinges, built in place
    neg -= masked.take(y_star)[:, None]
    np.negative(np.maximum(neg, 0.0, out=neg), out=neg)
    j_star = neg.argsort(axis=1, kind="stable")[:, kprime] + offsets
    values = -neg.take(j_star)
    pos = values > 0.0
    G = np.zeros(n * l)
    G[j_star] = pos
    G[y_star] -= pos
    return values, G.reshape(n, l)


class TKMLSampleLoss(_LossSpec):
    """Per-sample top-k multi-label loss value and two-label subgradient."""

    def __init__(self, kprime: int):
        self.kprime = kprime

    def value_and_grad(self, W, b, rows) -> tuple:
        """The (k'+1)-th largest hinge max((s + 1) - m, 0), m the lowest
        true-label score; G is +1 on the label at that rank and -1 on the
        label of m where the loss is positive.  Ties go to the lowest label
        index (stable sort on -hinges), as does the argmin over true labels.

        Large finite score matrices are ranked label-major on an l x n copy,
        and G is the transpose of its l x n array.  The hinge never
        decreases in s under rounding, so the rank-(k'+1) hinge is the hinge
        of the rank-(k'+1) score.  A row with more than one label at that
        hinge or at m, where the loss is positive, is a tie; tied rows,
        small matrices and non-finite ones take the stable argsort."""
        scores = _scores(W, b, rows.features)
        kp = self.kprime
        if scores.size < _PARTITION_MIN_SIZE or not np.isfinite(scores).all():
            return _stable_rank(scores, rows.label_matrix, kp)
        S = scores.T.copy()
        masked = S + rows.inf_off_labels
        m = masked.min(axis=0)
        S += 1.0  # the hinges, in place
        S -= m
        np.maximum(S, 0.0, out=S)
        values = np.maximum(np.sort(scores, axis=1)[:, -1 - kp] + 1.0 - m, 0.0)
        pos = values > 0.0
        J = (S == values) & pos
        Y = (masked == m) & pos
        G = J.astype(np.float64)
        G -= Y
        if np.count_nonzero(J) + np.count_nonzero(Y) > 2 * np.count_nonzero(pos):
            tied = (J.sum(axis=0) > 1) | (Y.sum(axis=0) > 1)
            G[:, tied] = _stable_rank(scores[tied], rows.label_matrix[tied],
                                      kp)[1].T
        return values, G.T


class MultilabelLogisticLoss(_LossSpec):
    """Independent per-label logistic losses (the surrogate hamming loss of
    the standard multi-label baseline): a row's loss is the sum over its
    labels of log(1 + exp(s)) - y * s."""

    def value_and_grad(self, W, b, rows) -> tuple:
        scores = _scores(W, b, rows.features)
        Y = rows.label_matrix
        values = np.sum(np.logaddexp(0.0, scores) - Y * scores, axis=1)
        return values, 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500))) - Y


def make_loss_spec(loss: str, kprime: int = 1, l: int | None = None):
    """Loss spec from its config-file name.  Given the label count l, a
    ``tkml`` spec checks that its top k' leave at least one label out."""
    if loss in ("logistic", "hinge"):
        return BinaryMarginLoss(MarginLossKind(loss))
    if loss == "softmax":
        return SoftmaxLoss()
    if loss == "tkml":
        if l is not None and not 1 <= kprime < l:
            raise ConfigError("train.kprime", f"kprime={kprime} outside "
                                              f"1..{l - 1} for l={l}")
        return TKMLSampleLoss(kprime)
    if loss == "multilabel_lr":
        return MultilabelLogisticLoss()
    raise ConfigError("loss", f"unknown loss kind {loss!r}")


# ---------------------------------------------------------------------------
# shared helpers

def _init_params(data: Dataset, config: TrainConfig, rng: np.random.Generator):
    """Normal draws of stddev ``config.init_scale``; zeros, no draw, at 0."""
    scale = config.init_scale
    if scale > 0.0:
        return (scale * rng.standard_normal((data.l, data.d)),
                scale * rng.standard_normal(data.l))
    return np.zeros((data.l, data.d)), np.zeros(data.l)


def _as_model(W, b) -> LinearModel:
    return LinearModel(weights=W.copy(), bias=b.copy())


def _check_finite(value, epoch):  # value: a number or an array
    if not np.isfinite(value).all():
        raise TrainingDiverged(epoch)
    return value


def _reg_value(W, C):
    return float(np.sum(W ** 2)) / (2.0 * C)


class _Batch(NamedTuple):
    """One step's rows, gathered: what a loss spec reads of a Dataset."""

    features: np.ndarray
    label_matrix: np.ndarray
    n: int

    @property
    def inf_off_labels(self) -> np.ndarray:
        return np.where(self.label_matrix.T, 0.0, np.inf)


# feature values that _batches gathers at once: a block of steps, or one
# step where a step's rows hold more
_BLOCK_VALUES = 2 ** 15


def _batches(data: Dataset, rng: np.random.Generator, batch: int, steps: int):
    """The rows of each of ``steps`` steps: ``data`` itself when ``batch`` is
    0, else ``batch`` rows drawn uniformly with replacement.  The indices of
    all the steps come from one draw, the same stream as one draw per step.
    The rows are gathered for a block of steps at once, about
    ``_BLOCK_VALUES`` feature values (one step where a step holds more),
    and each step's rows are views into its block's gather."""
    if batch == 0:
        return itertools.repeat(data, steps)
    X, Y = data.features, data.label_matrix
    idx = rng.integers(0, data.n, size=(steps, batch))
    block = max(_BLOCK_VALUES // (batch * data.d), 1)
    return (_Batch(Xs, Ys, batch)
            for at in range(0, steps, block)
            for Xs, Ys in zip(X.take(idx[at:at + block], axis=0),
                              Y.take(idx[at:at + block], axis=0)))


def _chain_rule(rows, G, mask=None) -> tuple:
    """(gW, gb): gradient of the summed losses of ``rows`` (masked by the 0/1
    ``mask`` when given), from the score derivatives G that
    ``value_and_grad`` returned for the same rows."""
    if mask is not None:
        G = G * mask[:, None]
    return G.T @ rows.features, np.add.reduce(G, axis=0)


def phi_subgradient(W, b, data: Dataset, loss_spec, threshold: float) -> tuple:
    """Subgradient of the top-ranked loss sum: sum of per-sample gradients
    over samples whose individual loss strictly exceeds the threshold."""
    values, G = loss_spec.value_and_grad(W, b, data)
    return _chain_rule(data, G, values > threshold)


def sorr_objective(W, b, data: Dataset, loss_spec, r: RankedRange, C: float) -> float:
    """Exact regularized ranked-range sum at the current parameters; NaN
    where a loss is not finite, for the trainer to report as divergence."""
    losses = loss_spec.losses(W, b, data)
    if not np.isfinite(losses).all():
        return float("nan")
    srt = sort_descending(losses)
    return float(np.sum(srt[r.m:r.k])) + _reg_value(W, C)


# ---------------------------------------------------------------------------
# trainers

EVAL_EVERY = 100  # stochastic dca_train steps between two scored snapshots


def dca_train(data: Dataset, loss_spec, r: RankedRange, config: TrainConfig,
              score=None) -> TrainReport:
    """Difference-of-convex descent on the sum of the individual losses of
    ranks m + 1..k, ``r`` = (m, k), which must fit in the data's n rows.

    Each outer round linearizes the subtracted top-m sum through its
    subgradient at the current parameters, then runs stochastic (or full
    batch) steps on the convex surrogate jointly with the top-k threshold
    variable.  m = 0 recovers average-top-k training.

    ``score`` maps a LinearModel to a key, lower being better.  When it is
    given, a snapshot of the parameters is scored every ``EVAL_EVERY``
    stochastic steps, and the first snapshot with the least key is returned
    if it scores strictly below the final iterate; the final iterate is
    returned otherwise.  The report's ``key`` is the returned model's, if scored.
    """
    r.validate(data.n)
    rng = np.random.default_rng(config.seed)
    W, b = _init_params(data, config, rng)
    trace, lambdas = [], []
    best = (np.inf, None)  # (key, model) of the best snapshot
    probe = score is not None and config.batch > 0
    scale = config.batch / data.n if config.batch else 1.0

    for t in range(config.outer_epochs):
        # the top-m rows are the first m of the stable descending order, so
        # tied losses still select exactly m rows
        values, G = loss_spec.value_and_grad(W, b, data)
        top = np.zeros(data.n, dtype=bool)
        top[descending_order(_check_finite(values, t))[:r.m]] = True
        theta_hat_W, theta_hat_b = _chain_rule(data, G, top)

        lam = 0.0
        # each step's update is eta * (gW - scale * theta_hat_W + scale * W
        # / C), and eta * (gb - scale * theta_hat_b), made in place in the
        # fresh gW and gb with the same operations in the same order
        step_W, step_b = scale * theta_hat_W, scale * theta_hat_b
        target = r.k * scale
        batches = _batches(data, rng, config.batch, config.inner_epochs)
        for step, rows in enumerate(batches):
            values, G = loss_spec.value_and_grad(W, b, rows)
            active = values > lam
            gW, gb = _chain_rule(rows, G, active)
            lam -= config.eta_inner * (target - np.count_nonzero(active))
            decay = W * scale
            decay /= config.C
            gW -= step_W
            gW += decay
            gW *= config.eta_inner
            W = W - gW
            gb -= step_b
            gb *= config.eta_inner
            b = b - gb
            if probe and (step + 1) % EVAL_EVERY == 0:
                snapshot = _as_model(_check_finite(W, t), b)
                key = score(snapshot)
                if key < best[0]:
                    best = (key, snapshot)

        obj = sorr_objective(W, b, data, loss_spec, r, config.C)
        trace.append(_check_finite(obj, t))
        lambdas.append(LambdaPair(lam=float(lam), lam_hat=None))

    model, key = _as_model(W, b), None
    if best[1] is not None and best[0] < (key := score(model)):
        key, model = best
    return TrainReport(model, trace, lambdas, key)


def _average_descent(data: Dataset, loss_spec, config: TrainConfig,
                     rng: np.random.Generator):
    """Yields the seeded start as (W, b, None), then (W, b, objective) after
    each epoch of (mini-)batch gradient descent at ``config.eta_outer`` on
    the regularized average loss, for as many epochs as the caller takes.
    At batch 0 the pass over the rows that gives an epoch's objective also
    gives the next step."""
    W, b = _init_params(data, config, rng)
    yield W, b, None
    steps = max(data.n // config.batch, 1) if config.batch else 1
    evaluated = None  # value_and_grad of every row at (W, b)
    for epoch in itertools.count():
        for rows in _batches(data, rng, config.batch, steps):
            if rows is not data or evaluated is None:
                evaluated = loss_spec.value_and_grad(W, b, rows)
            gW, gb = _chain_rule(rows, evaluated[1])
            W = W - config.eta_outer * (gW / rows.n + W / config.C)
            b = b - config.eta_outer * gb / rows.n
        evaluated = loss_spec.value_and_grad(W, b, data)
        obj = float(np.mean(evaluated[0])) + _reg_value(W, config.C)
        yield W, b, _check_finite(obj, epoch)


def sgd_average_train(data: Dataset, loss_spec, config: TrainConfig) -> TrainReport:
    """(Mini-)batch gradient descent on the regularized average loss."""
    descent = _average_descent(data, loss_spec, config,
                               np.random.default_rng(config.seed))
    W, b, _ = next(descent)
    trace = []
    for _ in range(config.outer_epochs):
        W, b, obj = next(descent)
        trace.append(obj)
    return TrainReport(_as_model(W, b), trace, [])


def lambda_pair_from_validation(validation_losses) -> LambdaPair:
    """Thresholds from clean validation losses: lam_hat = mean + std,
    lam = mean - 2*std (population std), ordering enforced."""
    arr = as_values(validation_losses)
    mean = float(arr.mean())
    std = float(arr.std())  # population standard deviation
    lam_hat = mean + std
    lam = mean - 2.0 * std
    if lam_hat <= lam:
        lam = lam_hat - 1e-6
    return LambdaPair(lam=lam, lam_hat=lam_hat)


def estimate_noise_count(train_losses, lam_hat: float) -> int:
    """Number of training losses strictly above the learned threshold."""
    arr = as_values(train_losses)
    return int(np.sum(arr > lam_hat))


def auto_train(train_data: Dataset, validation_data: Dataset, loss_spec,
               config: TrainConfig) -> TrainReport:
    """Ranked-range training without choosing (k, m): warm-up on the average
    loss, then learn the two thresholds from a clean validation set and run
    threshold-driven difference-of-convex rounds.
    """
    rng = np.random.default_rng(config.seed)
    trace, lambdas = [], []

    # phase 1: full-batch average-loss warm-up with validation-based early
    # stop; each validation pass is made once per (W, b) and reused there
    warm_up = _average_descent(train_data, loss_spec, replace(config, batch=0),
                               rng)
    W, b, _ = next(warm_up)
    val_losses = None
    best_val = np.inf
    stall = 0
    for epoch in range(config.warmup_epochs):
        W, b, _ = next(warm_up)
        val_losses = loss_spec.losses(W, b, validation_data)
        val_mean = float(np.mean(val_losses))
        _check_finite(val_mean, epoch)
        if val_mean < best_val - 1e-12:
            best_val = val_mean
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    warm_up.close()  # frees its last pass over the training rows

    if val_losses is None:
        val_losses = loss_spec.losses(W, b, validation_data)
    pair = lambda_pair_from_validation(val_losses)
    lam, lam_hat = pair.lam, pair.lam_hat

    # phase 2: threshold-driven rounds
    for t in range(config.outer_epochs):
        hW, hb = phi_subgradient(W, b, train_data, loss_spec, lam_hat)
        theta_hat_W, theta_hat_b = hW / train_data.n, hb / train_data.n
        batches = _batches(train_data, rng, config.batch, config.inner_epochs)
        for step, rows in enumerate(batches):
            values, G = loss_spec.value_and_grad(W, b, rows)
            gW, gb = _chain_rule(rows, G, values > lam)
            W = W - config.eta_inner * (
                gW / rows.n - theta_hat_W + W / (config.C * train_data.n))
            b = b - config.eta_inner * (gb / rows.n - theta_hat_b)
            # the round's last step refreshes too: its losses give the pair
            if ((step + 1) % config.refresh_every == 0
                    or step + 1 == config.inner_epochs):
                val_losses = loss_spec.losses(W, b, validation_data)
                lam = float(val_losses.mean() - 2.0 * val_losses.std())
        pair = lambda_pair_from_validation(_check_finite(val_losses, t))
        lam, lam_hat = pair.lam, pair.lam_hat
        lambdas.append(pair)
        trace.append(_check_finite(float(np.mean(val_losses)), t))

    return TrainReport(_as_model(W, b), trace, lambdas)


def tkml_aorr_train(data: Dataset, loss_spec, r: RankedRange,
                    config: TrainConfig,
                    start: LinearModel | None = None) -> TrainReport:
    """Simultaneous minimax updates on the combined objective: per-sample
    top-k multi-label losses aggregated through the average of ranks
    m + 1..k, ``r`` = (m, k), which must fit in the data's n rows, with
    joint ascent/descent steps on the two threshold variables.

    The updates start from the seeded start with both thresholds at 0, or,
    given a ``start`` model (such as an average-loss warm start), from its
    (W, b) with the thresholds at the analytic saddle of its losses.  The
    objective is measured, and traced, every 10th step and at the last."""
    r.validate(data.n)
    rng = np.random.default_rng(config.seed)
    # the seeded start's draws come first in the stream, so the index draws
    # of batch >= 1 follow them whether or not a start replaces it
    W, b = _init_params(data, config, rng)
    lam = lam_hat = 0.0
    width = r.width
    trace, lambdas = [], []
    evaluated = None  # value_and_grad of every row at the current (W, b)
    if start is not None:
        W, b = start.weights, start.bias
        evaluated = loss_spec.value_and_grad(W, b, data)
        lam, lam_hat = tkml_saddle_point(evaluated[0], r)
    batch = config.batch if config.batch < data.n else 0  # >= n: full batch
    for t, rows in enumerate(_batches(data, rng, batch, config.outer_epochs)):
        scale = data.n / rows.n
        if rows is not data or evaluated is None:
            evaluated = loss_spec.value_and_grad(W, b, rows)
        s, G = evaluated
        _check_finite(s, t)
        keep = lam_hat > np.maximum(s - lam, 0.0)
        both = keep & (s > lam)
        gW, gb = _chain_rule(rows, G, both)
        W = W - config.eta_inner * (scale * gW / width + W / config.C)
        b = b - config.eta_inner * scale * gb / width
        lam = lam - config.eta_inner * (1.0 - scale * int(both.sum()) / width)
        lam_hat = lam_hat + config.eta_inner * (
            (data.n - r.m) / width - scale * int(keep.sum()) / width)
        lambdas.append(LambdaPair(lam=float(lam), lam_hat=float(lam_hat)))
        if (t + 1) % 10 == 0 or t == config.outer_epochs - 1:
            # a full-batch step after this one reuses the evaluation
            evaluated = loss_spec.value_and_grad(W, b, data)
            values = _check_finite(evaluated[0], t)
            obj = float(np.sum(sort_descending(values)[r.m:r.k])) / width
            _check_finite(obj, t)
            trace.append(obj)
        else:
            evaluated = None
    return TrainReport(_as_model(W, b), trace, lambdas)
