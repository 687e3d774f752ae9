"""Trainers: difference-of-convex descent on ranked-range objectives,
validation-driven threshold learning, the combined sample/label minimax
updates, and an average-loss baseline.

Every loss spec has one batched method, ``value_and_grad(W, b, rows)``,
giving the loss of each row of ``rows`` and its derivative with respect to
the row's scores; the trainers turn those into parameter gradients through
``_chain_rule``.  ``rows`` is a whole Dataset or one step's gathered batch,
and every trainer takes its steps over the rows that ``_batches`` yields.
All trainers are deterministic functions of (data, config.seed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import RankedRange, as_values, descending_order, sort_descending
from .data import Dataset
from .losses import (
    MarginLossKind,
    margin_loss_vec,
    tkml_saddle_point,
)
from .model import LinearModel


class TrainingDiverged(ArithmeticError):
    """Raised when a trainer's objective goes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"objective became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    m: int = 0
    k: int = 0  # 0 means "use n", resolved at train time
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
    use_bias: bool = True
    init_scale: float = 0.0  # stddev of the random start (0 = zero init)

    def __post_init__(self):
        if self.C <= 0 or self.eta_outer <= 0 or self.eta_inner <= 0:
            raise ValueError("learning rates and C must be positive")
        if self.outer_epochs < 1 or self.inner_epochs < 1:
            raise ValueError("epoch counts must be >= 1")
        if self.batch < 0:
            raise ValueError(f"batch={self.batch} must be >= 0")

    def ranked_range(self, n: int) -> RankedRange:
        k = self.k if self.k > 0 else n
        return RankedRange(self.m, k).validate(n)


@dataclass(frozen=True)
class LambdaPair:
    lam: float
    lam_hat: float


@dataclass
class TrainReport:
    model: LinearModel
    objective_trace: list
    lambdas: list  # LambdaPair per logged epoch (may be empty)


# ---------------------------------------------------------------------------
# loss specs: per-row losses and their derivatives w.r.t. the row's scores

def _scores(W, b, X):
    scores = X @ W.T
    return scores if b is None else scores + b


class _LossSpec:
    """A loss spec's one batched method is ``value_and_grad(W, b, rows) ->
    (values, G)``: the loss of each row and G, rows.n x l, the derivative of
    each row's loss with respect to that row's scores X @ W.T + b.  ``rows``
    is a Dataset or a ``_Batch``; a spec reads only its ``features`` and
    ``label_matrix``."""

    def losses(self, W, b, data: Dataset) -> np.ndarray:
        return self.value_and_grad(W, b, data)[0]


class BinaryMarginLoss(_LossSpec):
    """Individual margin loss s(y * f(x)) for l = 1 models."""

    def __init__(self, kind: MarginLossKind):
        self.kind = kind
        self.name = kind.value

    def value_and_grad(self, W, b, rows) -> tuple:
        y = np.where(rows.label_matrix[:, 0], 1.0, -1.0)  # the +1 class
        scores = _scores(W, b, rows.features)[:, 0]
        values, derivs = margin_loss_vec(self.kind, y * scores)
        return values, (derivs * y)[:, None]


class SoftmaxLoss(_LossSpec):
    """Softmax cross-entropy for multi-class models (labels 1..l)."""

    name = "softmax"

    def value_and_grad(self, W, b, rows) -> tuple:
        scores = _scores(W, b, rows.features)
        shifted = scores - scores.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        onehot = rows.label_matrix
        probs = np.exp(shifted - logz[:, None])
        return logz - shifted[onehot], probs - onehot


# hinge-matrix size (rows x labels) from which TKMLSampleLoss ranks labels
# with argpartition: below it, the few extra numpy calls of its tie check
# cost more than a stable argsort (measured: about 256 rows at l = 14)
_PARTITION_MIN_SIZE = 4096


class TKMLSampleLoss(_LossSpec):
    """Per-sample top-k multi-label loss value and two-label subgradient."""

    def __init__(self, kprime: int):
        if kprime < 1:
            raise ValueError(f"kprime={kprime} must be >= 1")
        self.kprime = kprime
        self.name = f"tkml(k'={kprime})"

    def value_and_grad(self, W, b, rows) -> tuple:
        """The (k'+1)-th largest per-label hinge; G is +1 on the label at
        that rank and -1 on the lowest-scored true label where the loss is
        positive.  Ranking ties go to the lowest label index (stable sort
        on -hinges), as does the argmin over true labels."""
        scores = _scores(W, b, rows.features)
        masked = np.where(rows.label_matrix, scores, np.inf)
        at = np.arange(scores.shape[0])
        y_star = np.argmin(masked, axis=1)  # first minimum = lowest index
        hinges = np.maximum(1.0 + scores - masked[at, y_star][:, None], 0.0)
        neg = -hinges
        if hinges.size < _PARTITION_MIN_SIZE:
            j_star = neg.argsort(axis=1, kind="stable")[:, self.kprime]
            values = hinges[at, j_star]
        else:
            # argpartition may pick any label holding the rank-(k'+1) value;
            # only rows where a positive value is tied need the stable order
            j_star = neg.argpartition(self.kprime, axis=1)[:, self.kprime]
            values = hinges[at, j_star]
            tied = (values > 0.0) & (
                (hinges == values[:, None]).sum(axis=1) > 1)
            if tied.any():
                j_star[tied] = neg[tied].argsort(
                    axis=1, kind="stable")[:, self.kprime]
        G = np.zeros_like(scores)
        pos = at[values > 0.0]
        G[pos, j_star[pos]] = 1.0
        G[pos, y_star[pos]] -= 1.0
        return values, G


def make_loss_spec(loss_kind: str, kprime: int = 1):
    """Loss spec from its config-file name."""
    if loss_kind in ("logistic", "hinge"):
        return BinaryMarginLoss(MarginLossKind(loss_kind))
    if loss_kind == "softmax":
        return SoftmaxLoss()
    if loss_kind == "tkml":
        return TKMLSampleLoss(kprime)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


# ---------------------------------------------------------------------------
# shared helpers

def _init_params(data: Dataset, use_bias: bool, init_scale: float = 0.0,
                 rng: np.random.Generator | None = None):
    l = max(data.l, 1)
    if init_scale > 0.0 and rng is not None:
        W = init_scale * rng.standard_normal((l, data.d))
        b = init_scale * rng.standard_normal(l) if use_bias else None
    else:
        W = np.zeros((l, data.d))
        b = np.zeros(l) if use_bias else None
    return W, b


def _as_model(W, b, loss_spec, config: TrainConfig) -> LinearModel:
    return LinearModel(
        weights=W.copy(),
        bias=None if b is None else b.copy(),
        meta={"loss_kind": getattr(loss_spec, "name", "none"),
              "k": config.k, "m": config.m, "kprime": config.kprime},
    )


def _check_finite(value, epoch):
    if not np.isfinite(value):
        raise TrainingDiverged(epoch)
    return value


def _reg_value(W, C):
    return float(np.sum(W ** 2)) / (2.0 * C)


class _Batch(NamedTuple):
    """One step's rows, gathered: what a loss spec reads of a Dataset."""

    features: np.ndarray
    label_matrix: np.ndarray
    n: int


def _batches(data: Dataset, rng: np.random.Generator, batch: int, steps: int):
    """The rows of each of ``steps`` steps: ``data`` itself when ``batch`` is
    0, else ``batch`` rows drawn uniformly with replacement.  The indices of
    all the steps come from one draw, the same stream as one draw per step;
    each step gathers only its own rows."""
    if batch == 0:
        return itertools.repeat(data, steps)
    X, Y = data.features, data.label_matrix
    return (_Batch(X.take(idx, axis=0), Y.take(idx, axis=0), batch)
            for idx in rng.integers(0, data.n, size=(steps, batch)))


def _chain_rule(rows, G, mask=None) -> tuple:
    """(gW, gb): gradient of the summed losses of ``rows`` (masked by the 0/1
    ``mask`` when given), from the score derivatives G that
    ``value_and_grad`` returned for the same rows."""
    if mask is not None:
        G = G * mask[:, None]
    return G.T @ rows.features, G.sum(axis=0)


def _average_step(W, b, rows, loss_spec, eta: float, C: float) -> tuple:
    """One gradient step on the regularized average loss of ``rows``."""
    gW, gb = _chain_rule(rows, loss_spec.value_and_grad(W, b, rows)[1])
    W = W - eta * (gW / rows.n + W / C)
    if b is not None:
        b = b - eta * gb / rows.n
    return W, b


def phi_subgradient(W, b, data: Dataset, loss_spec, threshold: float) -> tuple:
    """Subgradient of the top-ranked loss sum: sum of per-sample gradients
    over samples whose individual loss strictly exceeds the threshold."""
    values, G = loss_spec.value_and_grad(W, b, data)
    return _chain_rule(data, G, values > threshold)


def sorr_objective(W, b, data: Dataset, loss_spec, r: RankedRange, C: float) -> float:
    """Exact regularized ranked-range sum at the current parameters."""
    losses = loss_spec.losses(W, b, data)
    srt = sort_descending(losses)
    return float(np.sum(srt[r.m:r.k])) + _reg_value(W, C)


# ---------------------------------------------------------------------------
# trainers

def holdout_error(W, b, loss_spec, data: Dataset):
    """Classification error of the current parameters on a holdout set."""
    from .metrics import error_rate

    if isinstance(loss_spec, TKMLSampleLoss):
        # rank the worst true label: fraction of samples with positive loss
        return float(np.mean(loss_spec.losses(W, b, data) > 0.0))
    scores = _scores(W, b, data.features)
    return error_rate(scores[:, 0] if data.l == 1 else scores, data.labels)


def dca_train(data: Dataset, loss_spec, config: TrainConfig,
              validation_data: Dataset | None = None,
              eval_every: int = 100) -> TrainReport:
    """Difference-of-convex descent on the ranked-range sum of individual
    losses.

    Each outer round linearizes the subtracted top-m sum through its
    subgradient at the current parameters, then runs stochastic (or full
    batch) steps on the convex surrogate jointly with the top-k threshold
    variable.  m = 0 recovers average-top-k training.

    When ``validation_data`` is given, the holdout error is probed every
    ``eval_every`` stochastic steps and the best-scoring parameters are the
    ones returned (the final iterate is returned otherwise).
    """
    rng = np.random.default_rng(config.seed)
    r = config.ranked_range(data.n)
    W, b = _init_params(data, config.use_bias, config.init_scale, rng)
    trace, lambdas = [], []
    best = (np.inf, W, b)
    full = config.batch == 0
    scale = 1.0 if full else config.batch / data.n

    for t in range(config.outer_epochs):
        # the top-m rows are the first m of the stable descending order, so
        # tied losses still select exactly m rows
        values, G = loss_spec.value_and_grad(W, b, data)
        top = np.zeros(data.n, dtype=bool)
        top[descending_order(values)[:r.m]] = True
        theta_hat_W, theta_hat_b = _chain_rule(data, G, top)

        lam = 0.0
        batches = _batches(data, rng, config.batch, config.inner_epochs)
        for step, rows in enumerate(batches):
            values, G = loss_spec.value_and_grad(W, b, rows)
            active = values > lam
            gW, gb = _chain_rule(rows, G, active)
            lam -= config.eta_inner * (r.k * scale - np.count_nonzero(active))
            W = W - config.eta_inner * (
                gW - scale * theta_hat_W + scale * W / config.C)
            if b is not None:
                b = b - config.eta_inner * (gb - scale * theta_hat_b)
            if (not full and validation_data is not None
                    and (step + 1) % eval_every == 0):
                ve = holdout_error(W, b, loss_spec, validation_data)
                if ve < best[0]:
                    best = (ve, W.copy(), None if b is None else b.copy())

        obj = sorr_objective(W, b, data, loss_spec, r, config.C)
        trace.append(_check_finite(obj, t))
        lambdas.append(LambdaPair(lam=float(lam), lam_hat=float("nan")))

    if validation_data is not None and best[0] < np.inf:
        ve = holdout_error(W, b, loss_spec, validation_data)
        if best[0] < ve:
            W, b = best[1], best[2]
    return TrainReport(_as_model(W, b, loss_spec, config), trace, lambdas)


def sgd_average_train(data: Dataset, loss_spec, config: TrainConfig) -> TrainReport:
    """(Mini-)batch gradient descent on the regularized average loss."""
    rng = np.random.default_rng(config.seed)
    W, b = _init_params(data, config.use_bias)
    trace = []
    steps = max(data.n // config.batch, 1) if config.batch else 1
    for epoch in range(config.outer_epochs):
        for rows in _batches(data, rng, config.batch, steps):
            W, b = _average_step(W, b, rows, loss_spec, config.eta_outer,
                                 config.C)
        obj = float(np.mean(loss_spec.losses(W, b, data))) + _reg_value(W, config.C)
        trace.append(_check_finite(obj, epoch))
    return TrainReport(_as_model(W, b, loss_spec, config), trace, [])


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
    if validation_data.n < 1:
        raise ValueError("validation set must be non-empty")
    rng = np.random.default_rng(config.seed)
    W, b = _init_params(train_data, config.use_bias)
    trace, lambdas = [], []

    # phase 1: average-loss warm-up with validation-based early stop
    best_val = np.inf
    stall = 0
    for epoch in range(config.warmup_epochs):
        W, b = _average_step(W, b, train_data, loss_spec, config.eta_outer,
                             config.C)
        val_mean = float(np.mean(loss_spec.losses(W, b, validation_data)))
        _check_finite(val_mean, epoch)
        if val_mean < best_val - 1e-12:
            best_val = val_mean
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break

    pair = lambda_pair_from_validation(loss_spec.losses(W, b, validation_data))
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
            if b is not None:
                b = b - config.eta_inner * (gb / rows.n - theta_hat_b)
            if (step + 1) % config.refresh_every == 0:
                val_losses = loss_spec.losses(W, b, validation_data)
                lam = float(val_losses.mean() - 2.0 * val_losses.std())
        pair = lambda_pair_from_validation(loss_spec.losses(W, b, validation_data))
        lam, lam_hat = pair.lam, pair.lam_hat
        lambdas.append(pair)
        obj = float(np.mean(loss_spec.losses(W, b, validation_data)))
        trace.append(_check_finite(obj, t))

    return TrainReport(_as_model(W, b, loss_spec, config), trace, lambdas)


def _tkml_spec(data: Dataset, config: TrainConfig) -> TKMLSampleLoss:
    if not 1 <= config.kprime < data.l:
        raise ValueError(f"kprime={config.kprime} outside 1..{data.l - 1}")
    return TKMLSampleLoss(config.kprime)


def tkml_warm_start(data: Dataset, config: TrainConfig) -> tuple:
    """(W, b) after the ``config.warmup_epochs`` full-batch average-loss
    steps that ``tkml_aorr_train`` takes from its seeded start.  They do not
    depend on ``config.m`` or ``config.k``, so one warm start serves a whole
    (m, k) grid."""
    loss_spec = _tkml_spec(data, config)
    W, b = _init_params(data, config.use_bias, config.init_scale,
                        np.random.default_rng(config.seed))
    for _ in range(config.warmup_epochs):
        W, b = _average_step(W, b, data, loss_spec, config.eta_outer, config.C)
    return W, b


def tkml_aorr_train(data: Dataset, config: TrainConfig,
                    start: tuple | None = None) -> TrainReport:
    """Simultaneous minimax updates on the combined objective: per-sample
    top-k multi-label losses aggregated through the ranked-range average,
    with joint ascent/descent steps on the two threshold variables.

    ``start`` is ``tkml_warm_start(data, config)`` when the caller already
    has it; it is computed here otherwise."""
    rng = np.random.default_rng(config.seed)
    r = config.ranked_range(data.n)
    loss_spec = _tkml_spec(data, config)
    # the seeded start's draws come first in the stream whether or not the
    # start is given, so the index draws of batch >= 1 follow them
    _init_params(data, config.use_bias, config.init_scale, rng)
    W, b = tkml_warm_start(data, config) if start is None else start
    lam = 0.0
    lam_hat = 0.0
    width = r.width
    trace, lambdas = [], []
    if config.warmup_epochs > 0:
        # place the thresholds at the analytic saddle of the warmed-up loss
        # distribution
        lam, lam_hat = tkml_saddle_point(loss_spec.losses(W, b, data), r)
    evaluated = None  # value_and_grad of every row at the current (W, b)
    batch = config.batch if config.batch < data.n else 0  # >= n: full batch
    for t, rows in enumerate(_batches(data, rng, batch, config.outer_epochs)):
        scale = data.n / rows.n
        if rows is not data or evaluated is None:
            evaluated = loss_spec.value_and_grad(W, b, rows)
        s, G = evaluated
        keep = lam_hat > np.maximum(s - lam, 0.0)
        both = keep & (s > lam)
        gW, gb = _chain_rule(rows, G, both)
        W = W - config.eta_inner * (scale * gW / width + W / config.C)
        if b is not None:
            b = b - config.eta_inner * scale * gb / width
        lam = lam - config.eta_inner * (1.0 - scale * int(both.sum()) / width)
        lam_hat = lam_hat + config.eta_inner * (
            (data.n - r.m) / width - scale * int(keep.sum()) / width)
        lambdas.append(LambdaPair(lam=float(lam), lam_hat=float(lam_hat)))
        if (t + 1) % 10 == 0 or t == config.outer_epochs - 1:
            # a full-batch step after this one reuses the evaluation
            evaluated = loss_spec.value_and_grad(W, b, data)
            obj = float(np.sum(sort_descending(evaluated[0])[r.m:r.k])) / width
            _check_finite(obj, t)
            trace.append(obj)
        else:
            evaluated = None
            trace.append(float("nan"))
    return TrainReport(_as_model(W, b, loss_spec, config), trace, lambdas)


def multilabel_lr_train(data: Dataset, config: TrainConfig) -> TrainReport:
    """Independent per-label logistic regression (surrogate hamming loss) on
    sigmoid scores; the standard multi-label baseline."""
    if not data.is_multilabel:
        raise ValueError("multilabel_lr_train requires multi-label data")
    Y = data.label_matrix.astype(np.float64)
    W = np.zeros((data.l, data.d))
    b = np.zeros(data.l) if config.use_bias else None
    trace = []
    X = data.features
    for epoch in range(config.outer_epochs):
        scores = _scores(W, b, X)
        P = 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
        G = (P - Y) / data.n
        W = W - config.eta_outer * (G.T @ X + W / config.C)
        if b is not None:
            b = b - config.eta_outer * G.sum(axis=0)
        bce = np.mean(np.logaddexp(0.0, scores) - Y * scores)
        trace.append(_check_finite(float(bce), epoch))
    model = LinearModel(weights=W, bias=b, meta={"loss_kind": "multilabel_lr"})
    return TrainReport(model, trace, [])

