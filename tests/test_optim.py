import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankedrange import (
    ConfigError,
    Dataset,
    LabelSet,
    LambdaPair,
    LinearModel,
    RankedRange,
    SyntheticSpec,
    TKMLSampleLoss,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    auto_train,
    dca_train,
    estimate_noise_count,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    lambda_pair_from_validation,
    make_loss_spec,
    phi_subgradient,
    sgd_average_train,
    sorr_objective,
    split_dataset,
    tkml_aorr_train,
    tkml_loss_subgrad,
)
from rankedrange import cli
from rankedrange.core import top_k_sum
from rankedrange.losses import MarginLossKind, margin_loss, softmax_loss_grad
from rankedrange import optim
from rankedrange.optim import (
    _PARTITION_MIN_SIZE,
    _Batch,
    _chain_rule,
)


def gathered(data, idx):
    """The rows ``idx`` of ``data`` as the batch a trainer step gathers."""
    return _Batch(data.features[idx], data.label_matrix[idx], len(idx))


def small_binary(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    w = np.array([1.0, -2.0, 0.5])
    y = np.where(X @ w + 0.3 * rng.standard_normal(n) >= 0, 1, -1)
    return Dataset(X, y.astype(np.int64), 1)


# --- phi_subgradient ------------------------------------------------------

def test_phi_subgradient_threshold_extremes():
    data = small_binary()
    spec = make_loss_spec("logistic")
    W = np.zeros((1, 3))
    b = np.zeros(1)
    losses = spec.losses(W, b, data)
    gW, _ = phi_subgradient(W, b, data, spec, float(losses.max()) + 1.0)
    assert np.all(gW == 0.0)
    gW_all, gb_all = phi_subgradient(W, b, data, spec, float(losses.min()) - 1.0)
    gW_full, gb_full = _chain_rule(data, spec.value_and_grad(W, b, data)[1])
    np.testing.assert_allclose(gW_all, gW_full)
    np.testing.assert_allclose(gb_all, gb_full)


def test_phi_subgradient_matches_topm_finite_differences():
    # at a non-degenerate point, the masked gradient is the derivative of
    # the top-m loss sum
    data = small_binary(seed=3)
    spec = make_loss_spec("logistic")
    rng = np.random.default_rng(4)
    W = rng.standard_normal((1, 3))
    b = rng.standard_normal(1)
    m = 7
    losses = spec.losses(W, b, data)
    lam_hat = float(np.sort(losses)[::-1][m])
    gW, gb = phi_subgradient(W, b, data, spec, lam_hat)
    h = 1e-6
    for _ in range(20):
        dW = rng.standard_normal((1, 3))
        db = rng.standard_normal(1)
        up = top_k_sum(spec.losses(W + h * dW, b + h * db, data), m)
        dn = top_k_sum(spec.losses(W - h * dW, b - h * db, data), m)
        fd = (up - dn) / (2 * h)
        analytic = float(np.sum(gW * dW) + gb @ db)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-7)


# --- dca_train ------------------------------------------------------------

def test_one_dimensional_mislabeled_point_excluded():
    # separable 1-D data with a single mislabeled point; trimming one value
    # (m=1) recovers a threshold that classifies every inlier correctly
    X = np.array([[-3.0], [-2.5], [-2.0], [-1.5], [1.5], [2.0], [2.5], [-2.2]])
    y = np.array([-1, -1, -1, -1, 1, 1, 1, 1], dtype=np.int64)  # last is wrong
    data = Dataset(X, y, 1)
    spec = make_loss_spec("hinge")
    config = TrainConfig(C=1e4, eta_inner=0.01, outer_epochs=6,
                         inner_epochs=3000, batch=0)
    report = dca_train(data, spec, RankedRange(1, 2), config)
    w = report.model.weights[0, 0]
    b = report.model.bias[0]
    decided = np.where(X[:, 0] * w + b >= 0, 1, -1)
    # brute-force oracle: the best threshold misclassifies only the planted
    # point, so the inliers (all but the last) must be clean
    thresholds = np.linspace(-4, 4, 2001)
    best = min(int(np.sum(np.where(X[:, 0] >= t, 1, -1) != y))
               for t in thresholds)
    assert best == 1
    assert np.all(decided[:-1] == y[:-1])


def test_full_range_reduces_to_average_descent():
    data = small_binary(seed=5)
    spec = make_loss_spec("logistic")
    # the ranked-range path sums raw gradients, the baseline averages them,
    # so matching step sizes differ by the factor n
    r = RankedRange(0, data.n)
    cfg = TrainConfig(C=1e4, eta_inner=0.01, eta_outer=0.01 * data.n,
                      outer_epochs=1, inner_epochs=400, batch=0)
    dca = dca_train(data, spec, r, cfg)
    gd = sgd_average_train(data, spec, dataclasses.replace(
        cfg, outer_epochs=400))
    obj_dca = sorr_objective(dca.model.weights, dca.model.bias, data, spec,
                             r, cfg.C) / data.n
    obj_gd = sorr_objective(gd.model.weights, gd.model.bias, data, spec,
                            r, cfg.C) / data.n
    assert obj_dca == pytest.approx(obj_gd, abs=1e-3)


def test_dca_top_m_subgradient_counts_tied_rows():
    # every row appears twice, so the 5th and 6th largest losses tie; the
    # top-m subgradient must still cover exactly m = 5 rows.  Replay one
    # full-batch step with the scalar oracle.
    base = small_binary(seed=19, n=8)
    data = Dataset(np.repeat(base.features, 2, axis=0),
                   np.repeat(base.labels, 2), 1)
    m, k, eta, C, seed, scale = 5, 12, 0.01, 1e4, 3, 0.5
    cfg = TrainConfig(C=C, eta_inner=eta, outer_epochs=1, inner_epochs=1,
                      batch=0, seed=seed, init_scale=scale)
    report = dca_train(data, make_loss_spec("logistic"), RankedRange(m, k),
                       cfg)

    rng = np.random.default_rng(seed)  # the trainer's random start
    W = scale * rng.standard_normal((1, 3))
    b = scale * rng.standard_normal(1)
    evals = [margin_loss(MarginLossKind.LOGISTIC, y * (x @ W[0] + b[0]))
             for x, y in zip(data.features, data.labels)]
    values = np.array([v for v, _ in evals])
    order = sorted(range(data.n), key=lambda i: (-values[i], i))
    assert values[order[m - 1]] == values[order[m]]

    def grad_sum(rows):
        gW, gb = np.zeros((1, 3)), np.zeros(1)
        for i in rows:
            coeff = evals[i][1] * data.labels[i]
            gW[0] += coeff * data.features[i]
            gb += coeff
        return gW, gb

    theta_W, theta_b = grad_sum(order[:m])
    gW, gb = grad_sum(range(data.n))  # lambda = 0 < every logistic loss
    np.testing.assert_allclose(report.model.weights,
                               W - eta * (gW - theta_W + W / C), atol=1e-12)
    np.testing.assert_allclose(report.model.bias,
                               b - eta * (gb - theta_b), atol=1e-12)


def test_dca_seed_determinism():
    data = small_binary(seed=6)
    spec = make_loss_spec("logistic")
    r = RankedRange(2, 10)
    cfg = TrainConfig(eta_inner=0.01, outer_epochs=3, inner_epochs=300,
                      batch=1, seed=42)
    a = dca_train(data, spec, r, cfg)
    b = dca_train(data, spec, r, cfg)
    assert a.objective_trace == b.objective_trace
    np.testing.assert_array_equal(a.model.weights, b.model.weights)


@pytest.mark.parametrize("loss", ["logistic", "tkml"])
def test_dca_train_returns_the_best_probed_iterate(loss):
    # the snapshots scored every EVAL_EVERY steps keep the best iterate;
    # these runs end on an iterate that scores worse
    from rankedrange import error_rate, topk_multilabel_accuracy
    from rankedrange.model import predict_matrix

    if loss == "logistic":
        data = gen_synthetic(SyntheticSpec(balanced=False, n_outliers=5,
                                           seed=1))
        spec = make_loss_spec("logistic")
        r, cfg = RankedRange(1, 20), TrainConfig(batch=4, seed=1)
    else:
        data = gen_multilabel_synthetic(120, 5, 5, seed=1, score_noise=2.0)
        spec = make_loss_spec("tkml", 2, 5)
        r, cfg = RankedRange(0, 30), TrainConfig(kprime=2, batch=8, seed=2)
    cfg = dataclasses.replace(cfg, outer_epochs=1, inner_epochs=500,
                              eta_inner=0.5)
    tr, va = split_dataset(data, (0.6, 0.4), seed=0)
    probes = []

    def score(model):
        scores = predict_matrix(model, va.features)
        key = (error_rate(scores[:, 0], va.labels) if loss == "logistic"
               else -topk_multilabel_accuracy(scores, va.label_matrix, 2))
        probes.append((key, model))
        return key

    got = dca_train(tr, spec, r, cfg, score=score).model
    final = dca_train(tr, spec, r, cfg).model
    # five snapshots, then the final iterate
    keys = [key for key, _ in probes]
    assert len(keys) == 6
    np.testing.assert_array_equal(probes[-1][1].weights, final.weights)
    best = keys.index(min(keys[:-1]))
    assert keys[best] < keys[-1]
    assert got is probes[best][1]
    assert not np.array_equal(got.weights, final.weights)


def test_dca_descent_small_full_batch():
    data = gen_synthetic(SyntheticSpec(balanced=True, n_outliers=1, seed=0))
    data = data.subset(np.arange(0, 200, 8))  # 25 samples
    spec = make_loss_spec("logistic")
    cfg = TrainConfig(C=1e4, eta_inner=0.002, outer_epochs=6,
                      inner_epochs=3000, batch=0)
    trace = dca_train(data, spec, RankedRange(2, 8), cfg).objective_trace
    assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))


def test_lambda_dynamics_expected_increment():
    # with all-zero features only the bias moves the logistic losses, so
    # they stay near 1.0, the sampled indicator is always on while lambda
    # stays below them, and every step moves lambda by exactly
    # -eta*(k/n - 1) > 0
    n, k = 50, 10
    data = Dataset(np.zeros((n, 3)),
                   np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64),
                   1)
    spec = make_loss_spec("logistic")
    eta = 0.01
    steps = 100  # keeps lambda below the constant loss level 1.0
    cfg = TrainConfig(eta_inner=eta, outer_epochs=1, inner_epochs=steps,
                      batch=1, seed=8)
    report = dca_train(data, spec, RankedRange(0, k), cfg)
    lam = report.lambdas[0].lam
    expected = -eta * (k / n - 1.0) * steps
    assert lam == pytest.approx(expected, abs=1e-9)


# --- threshold learning ---------------------------------------------------

def test_lambda_pair_hand_computed():
    pair = lambda_pair_from_validation([1.0, 2.0, 3.0])
    assert pair.lam_hat == pytest.approx(2.0 + np.sqrt(2.0 / 3.0))
    assert pair.lam == pytest.approx(2.0 - 2.0 * np.sqrt(2.0 / 3.0))


def test_lambda_pair_constant_losses():
    pair = lambda_pair_from_validation([4.0, 4.0, 4.0])
    assert pair.lam_hat == pytest.approx(4.0)
    assert pair.lam == pytest.approx(4.0 - 1e-6)


def test_lambda_pair_ordering():
    rng = np.random.default_rng(9)
    for _ in range(100):
        pair = lambda_pair_from_validation(rng.uniform(0, 5, size=20))
        assert pair.lam_hat > pair.lam


def test_estimate_noise_count_trivials():
    assert estimate_noise_count([1.0, 2.0, 3.0, 4.0], 5.0) == 0
    assert estimate_noise_count([1.0, 2.0, 3.0, 4.0], 2.5) == 2


# --- auto_train -----------------------------------------------------------

def test_auto_train_lambda_hat_above_lambda():
    data = gen_multiclass_blobs(600, 10, 4, seed=10, separation=3.0)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(C=1e4, eta_outer=0.3, eta_inner=0.02, outer_epochs=3,
                      inner_epochs=50, warmup_epochs=100, batch=32)
    report = auto_train(tr, va, spec, cfg)
    assert report.lambdas
    for pair in report.lambdas:
        assert pair.lam_hat > pair.lam


def test_auto_train_clean_data_matches_average_baseline():
    data = gen_multiclass_blobs(1500, 20, 5, seed=11, separation=3.0)
    tr, va, te = split_dataset(data, (0.6, 0.2, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(C=1e4, eta_outer=0.4, eta_inner=0.02, outer_epochs=5,
                      inner_epochs=100, warmup_epochs=400, batch=64,
                      patience=50)
    auto = auto_train(tr, va, spec, cfg)
    avg = sgd_average_train(tr, spec, dataclasses.replace(
        cfg, outer_epochs=400, batch=0))
    from rankedrange.metrics import error_rate
    from rankedrange.model import predict_matrix
    acc_auto = 1 - error_rate(predict_matrix(auto.model, te.features), te.labels)
    acc_avg = 1 - error_rate(predict_matrix(avg.model, te.features), te.labels)
    assert acc_auto >= acc_avg - 0.005


def test_auto_train_full_batch_ignores_the_seed():
    # batch 0 is the full batch: no rows are drawn, so the seed has no say
    data = gen_multiclass_blobs(200, 5, 3, seed=29)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(eta_outer=0.3, eta_inner=0.02, outer_epochs=2,
                      inner_epochs=30, warmup_epochs=20, batch=0)
    a = auto_train(tr, va, spec, dataclasses.replace(cfg, seed=1))
    b = auto_train(tr, va, spec, dataclasses.replace(cfg, seed=2))
    np.testing.assert_array_equal(a.model.weights, b.model.weights)
    np.testing.assert_array_equal(a.model.bias, b.model.bias)


# --- exact replays of the trainer loops -----------------------------------
# Each reference is a trainer written as one self-contained loop that draws
# its indices one step at a time and indexes the rows at each use; the
# trainers must match it bit for bit.

def _start(rng, data, config):
    if config.init_scale > 0.0:
        return (config.init_scale * rng.standard_normal((data.l, data.d)),
                config.init_scale * rng.standard_normal(data.l))
    return np.zeros((data.l, data.d)), np.zeros(data.l)


def _draw(rng, data, batch):
    return np.arange(data.n) if batch == 0 else rng.integers(
        0, data.n, size=batch)


def _dca_reference(data, spec, r, config, score):
    rng = np.random.default_rng(config.seed)
    X, C, eta = data.features, config.C, config.eta_inner
    W, b = _start(rng, data, config)
    full = config.batch == 0
    scale = 1.0 if full else config.batch / data.n
    best = (np.inf, W, b)
    trace, lambdas = [], []
    for _ in range(config.outer_epochs):
        values, G = spec.value_and_grad(W, b, data)
        top = np.zeros(data.n, dtype=bool)
        top[np.argsort(-values, kind="stable")[:r.m]] = True
        G = G * top[:, None]
        theta_W, theta_b = G.T @ X, G.sum(axis=0)
        lam = 0.0
        for step in range(config.inner_epochs):
            idx = _draw(rng, data, config.batch)
            values, G = spec.value_and_grad(W, b, gathered(data, idx))
            active = values > lam
            G = G * active[:, None]
            gW, gb = G.T @ X[idx], G.sum(axis=0)
            lam -= eta * (r.k * scale - np.count_nonzero(active))
            W = W - eta * (gW - scale * theta_W + scale * W / C)
            b = b - eta * (gb - scale * theta_b)
            if not full and (step + 1) % 100 == 0:
                key = score(LinearModel(weights=W, bias=b))
                if key < best[0]:
                    best = (key, W.copy(), b.copy())
        trace.append(sorr_objective(W, b, data, spec, r, C))
        lambdas.append(lam)
    if best[0] < score(LinearModel(weights=W, bias=b)):
        W, b = best[1], best[2]
    return trace, lambdas, W, b


@pytest.mark.parametrize("batch", [0, 1, 16])
def test_dca_train_matches_reference_loop(batch):
    data = small_binary(seed=30, n=60)
    validation = small_binary(seed=31, n=30)
    spec = make_loss_spec("logistic")
    # at batch 1 a snapshot scores below the final iterate and is returned
    r = RankedRange(4, 40)
    cfg = TrainConfig(eta_inner=0.2, outer_epochs=3, inner_epochs=250,
                      batch=batch, seed=32, init_scale=0.3)

    def score(model):  # the validation error
        margins = validation.features @ model.weights[0] + model.bias[0]
        return np.mean(np.where(margins >= 0, 1, -1) != validation.labels)

    trace, lambdas, W, b = _dca_reference(data, spec, r, cfg, score)
    report = dca_train(data, spec, r, cfg, score=score)
    np.testing.assert_array_equal(report.objective_trace, trace)
    np.testing.assert_array_equal([p.lam for p in report.lambdas], lambdas)
    np.testing.assert_array_equal(report.model.weights, W)
    np.testing.assert_array_equal(report.model.bias, b)


def _auto_reference(train, validation, spec, config):
    rng = np.random.default_rng(config.seed)
    X, n, C = train.features, train.n, config.C
    W, b = np.zeros((train.l, train.d)), np.zeros(train.l)
    best_val, stall = np.inf, 0
    for _ in range(config.warmup_epochs):
        G = spec.value_and_grad(W, b, train)[1]
        W = W - config.eta_outer * ((G.T @ X) / n + W / C)
        b = b - config.eta_outer * G.sum(axis=0) / n
        val_mean = float(np.mean(spec.losses(W, b, validation)))
        if val_mean < best_val - 1e-12:
            best_val, stall = val_mean, 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    pair = lambda_pair_from_validation(spec.losses(W, b, validation))
    lam, lam_hat = pair.lam, pair.lam_hat
    trace, lambdas = [], []
    for _ in range(config.outer_epochs):
        values, G = spec.value_and_grad(W, b, train)
        G = G * (values > lam_hat)[:, None]
        theta_W, theta_b = (G.T @ X) / n, G.sum(axis=0) / n
        for step in range(config.inner_epochs):
            idx = _draw(rng, train, config.batch)
            values, G = spec.value_and_grad(W, b, gathered(train, idx))
            G = G * (values > lam)[:, None]
            gW, gb = G.T @ X[idx], G.sum(axis=0)
            W = W - config.eta_inner * (
                gW / len(idx) - theta_W + W / (C * n))
            b = b - config.eta_inner * (gb / len(idx) - theta_b)
            if (step + 1) % config.refresh_every == 0:
                val_losses = spec.losses(W, b, validation)
                lam = float(val_losses.mean() - 2.0 * val_losses.std())
        pair = lambda_pair_from_validation(spec.losses(W, b, validation))
        lam, lam_hat = pair.lam, pair.lam_hat
        lambdas.append((pair.lam, pair.lam_hat))
        trace.append(float(np.mean(spec.losses(W, b, validation))))
    return trace, lambdas, W, b


def test_auto_train_matches_reference_loop():
    data = gen_multiclass_blobs(300, 6, 4, seed=33)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(eta_outer=0.3, eta_inner=0.02, outer_epochs=3,
                      inner_epochs=60, warmup_epochs=30, batch=32,
                      refresh_every=7, seed=34)
    trace, lambdas, W, b = _auto_reference(tr, va, spec, cfg)
    report = auto_train(tr, va, spec, cfg)
    np.testing.assert_array_equal(report.objective_trace, trace)
    assert [(p.lam, p.lam_hat) for p in report.lambdas] == lambdas
    np.testing.assert_array_equal(report.model.weights, W)
    np.testing.assert_array_equal(report.model.bias, b)


_AUTO_CFG = TrainConfig(eta_outer=0.3, eta_inner=0.02, outer_epochs=3,
                        inner_epochs=60, warmup_epochs=30, batch=32,
                        refresh_every=10, seed=34)


@pytest.mark.parametrize("changes", [
    {},  # the last inner step refreshes the validation losses
    {"warmup_epochs": 0},
    {"warmup_epochs": 200, "patience": 1, "eta_outer": 3.0},  # stops early
], ids=["last-step-refresh", "no-warmup", "early-stop"])
def test_auto_train_reuse_matches_reference_loop(changes):
    data = gen_multiclass_blobs(300, 6, 4, seed=33)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = dataclasses.replace(_AUTO_CFG, **changes)
    trace, lambdas, W, b = _auto_reference(tr, va, spec, cfg)
    report = auto_train(tr, va, spec, cfg)
    np.testing.assert_array_equal(report.objective_trace, trace)
    assert [(p.lam, p.lam_hat) for p in report.lambdas] == lambdas
    np.testing.assert_array_equal(report.model.weights, W)
    np.testing.assert_array_equal(report.model.bias, b)


class _CountingSpec:
    """A loss spec that counts its passes over the rows ``watched``."""

    def __init__(self, spec, watched):
        self.spec, self.watched, self.passes = spec, watched, 0

    def value_and_grad(self, W, b, rows):
        self.passes += rows is self.watched
        return self.spec.value_and_grad(W, b, rows)

    def losses(self, W, b, rows):
        return self.value_and_grad(W, b, rows)[0]


def test_auto_train_evaluates_validation_once_per_parameters():
    data = gen_multiclass_blobs(300, 6, 4, seed=33)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    reference = _CountingSpec(make_loss_spec("softmax"), va)
    _auto_reference(tr, va, reference, _AUTO_CFG)
    spec = _CountingSpec(make_loss_spec("softmax"), va)
    auto_train(tr, va, spec, _AUTO_CFG)
    assert reference.passes - spec.passes == 1 + 2 * _AUTO_CFG.outer_epochs


def _sgd_average_reference(data, spec, config):
    rng = np.random.default_rng(config.seed)
    X, C, eta = data.features, config.C, config.eta_outer
    W, b = np.zeros((data.l, data.d)), np.zeros(data.l)
    steps = 1 if config.batch == 0 else max(data.n // config.batch, 1)
    trace = []
    for _ in range(config.outer_epochs):
        for _ in range(steps):
            idx = _draw(rng, data, config.batch)
            G = spec.value_and_grad(W, b, gathered(data, idx))[1]
            W = W - eta * ((G.T @ X[idx]) / len(idx) + W / C)
            b = b - eta * G.sum(axis=0) / len(idx)
        trace.append(float(np.mean(spec.losses(W, b, data)))
                     + float(np.sum(W ** 2)) / (2.0 * C))
    return trace, W, b


@pytest.mark.parametrize("batch", [0, 8])
def test_sgd_average_train_matches_reference_loop(batch):
    data = gen_multiclass_blobs(90, 5, 3, seed=35)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(eta_outer=0.2, outer_epochs=12, batch=batch, seed=36)
    trace, W, b = _sgd_average_reference(data, spec, cfg)
    report = sgd_average_train(data, spec, cfg)
    np.testing.assert_array_equal(report.objective_trace, trace)
    np.testing.assert_array_equal(report.model.weights, W)
    np.testing.assert_array_equal(report.model.bias, b)


# --- combined sample/label minimax ----------------------------------------

def _warm_start(data, spec, cfg):
    """The average-loss warm start that run_experiment gives tkml_aorr_train:
    cfg.warmup_epochs full-batch epochs, none at 0."""
    if cfg.warmup_epochs == 0:
        return None
    warm = dataclasses.replace(cfg, batch=0, outer_epochs=cfg.warmup_epochs)
    return sgd_average_train(data, spec, warm).model


def _tkml_aorr(data, r, cfg):
    """tkml_aorr_train on the range r from its own warm start."""
    spec = make_loss_spec("tkml", cfg.kprime, data.l)
    return tkml_aorr_train(data, spec, r, cfg, _warm_start(data, spec, cfg))


def test_tkml_aorr_cold_start_threshold_updates():
    # with zero parameters every per-sample loss is positive but both
    # indicators are false, so theta stays put while lambda falls by eta
    # and lambda_hat rises by eta*(n-m)/(k-m) each step
    data = gen_multilabel_synthetic(6, 3, 4, seed=12)
    eta = 0.01
    cfg = TrainConfig(kprime=1, eta_inner=eta, outer_epochs=3,
                      inner_epochs=1, warmup_epochs=0, batch=0, C=1e8)
    report = _tkml_aorr(data, RankedRange(2, 5), cfg)
    np.testing.assert_allclose(report.model.weights, 0.0)
    n, m, width = 6, 2, 3
    for t, pair in enumerate(report.lambdas, start=1):
        assert pair.lam == pytest.approx(-eta * t)
        assert pair.lam_hat == pytest.approx(eta * t * (n - m) / width)


def test_tkml_aorr_one_step_hand_check():
    # reproduce one full-batch joint update from the warm-started state
    # using only scalar per-sample losses and subgradients
    data = gen_multilabel_synthetic(8, 4, 5, seed=13, min_labels=1,
                                    max_labels=2)
    eta = 0.05
    m, k, kprime = 2, 6, 1
    warm = 20
    cfg = TrainConfig(kprime=kprime, eta_inner=eta, eta_outer=0.1,
                      outer_epochs=1, inner_epochs=1, warmup_epochs=warm,
                      batch=0, C=1e4)
    report = _tkml_aorr(data, RankedRange(m, k), cfg)

    # independent replay: average-loss warm-up with the scalar-path loss
    W = np.zeros((5, 4))
    b = np.zeros(5)
    def sample_losses(W, b):
        out = []
        for i in range(8):
            scores = W @ data.features[i] + b
            Y = LabelSet(np.flatnonzero(data.labels[i]) + 1, 5)
            out.append(tkml_loss_subgrad(scores, Y, kprime))
        return out
    for _ in range(warm):
        gW = np.zeros_like(W)
        gb = np.zeros(5)
        for i, (_, coeffs) in enumerate(sample_losses(W, b)):
            for lab, c in coeffs.items():
                gW[lab - 1] += c * data.features[i]
                gb[lab - 1] += c
        W = W - 0.1 * (gW / 8 + W / 1e4)
        b = b - 0.1 * gb / 8
    evals = sample_losses(W, b)
    s = np.array([v for v, _ in evals])
    srt = np.sort(s)[::-1]
    lam, lam_hat = float(srt[k - 1]), float(srt[m - 1] - srt[k - 1])
    width = k - m
    keep = lam_hat > np.maximum(s - lam, 0.0)
    both = keep & (s > lam)
    gW = np.zeros_like(W)
    for i in np.flatnonzero(both):
        for lab, c in evals[i][1].items():
            gW[lab - 1] += c * data.features[i]
    W_next = W - eta * (gW / width + W / 1e4)
    lam_next = lam - eta * (1.0 - int(both.sum()) / width)
    lam_hat_next = lam_hat + eta * ((8 - m) / width - int(keep.sum()) / width)

    np.testing.assert_allclose(report.model.weights, W_next, atol=1e-8)
    assert report.lambdas[0].lam == pytest.approx(lam_next)
    assert report.lambdas[0].lam_hat == pytest.approx(lam_hat_next)


def _tkml_aorr_reference(data, r, config):
    """tkml_aorr_train as one self-contained loop: its own warm-up on every
    call and a separate objective pass every 10th epoch."""
    rng = np.random.default_rng(config.seed)
    spec = TKMLSampleLoss(config.kprime)
    X, n, width = data.features, data.n, r.k - r.m
    W, b = np.zeros((data.l, data.d)), np.zeros(data.l)
    if config.init_scale > 0.0:
        W = config.init_scale * rng.standard_normal((data.l, data.d))
        b = config.init_scale * rng.standard_normal(data.l)
    lam = lam_hat = 0.0
    if config.warmup_epochs > 0:
        for _ in range(config.warmup_epochs):
            G = spec.value_and_grad(W, b, data)[1]
            W = W - config.eta_outer * ((G.T @ X) / n + W / config.C)
            b = b - config.eta_outer * G.sum(axis=0) / n
        srt = -np.sort(-spec.losses(W, b, data))
        lam = float(srt[r.k - 1])
        lam_hat = float((srt[r.m - 1] if r.m >= 1 else srt[0]) - lam)
    trace, lambdas = [], []
    for t in range(config.outer_epochs):
        idx, scale = np.arange(n), 1.0
        if 1 <= config.batch < n:
            idx = rng.integers(0, n, size=config.batch)
            scale = n / config.batch
        s, G = spec.value_and_grad(W, b, gathered(data, idx))
        keep = lam_hat > np.maximum(s - lam, 0.0)
        both = keep & (s > lam)
        G = G * both[:, None]
        gW, gb = G.T @ X[idx], G.sum(axis=0)
        W = W - config.eta_inner * (scale * gW / width + W / config.C)
        b = b - config.eta_inner * scale * gb / width
        lam = lam - config.eta_inner * (1.0 - scale * int(both.sum()) / width)
        lam_hat = lam_hat + config.eta_inner * (
            (n - r.m) / width - scale * int(keep.sum()) / width)
        lambdas.append((lam, lam_hat))
        if (t + 1) % 10 == 0 or t == config.outer_epochs - 1:
            full = -np.sort(-spec.losses(W, b, data))
            trace.append(float(np.sum(full[r.m:r.k])) / width)
    return trace, lambdas, W, b


@pytest.mark.parametrize("batch, init_scale, warmup", [
    (0, 0.0, 15), (0, 0.2, 15), (16, 0.0, 15), (16, 0.2, 15), (0, 0.2, 0)])
def test_tkml_aorr_matches_reference_loop(batch, init_scale, warmup):
    # the trainer reuses the objective pass for the next full-batch step;
    # that must not change the trace or any iterate
    data = gen_multilabel_synthetic(60, 4, 5, seed=26, max_labels=2)
    r = RankedRange(5, 40)
    cfg = TrainConfig(kprime=2, eta_inner=0.2, eta_outer=0.3,
                      outer_epochs=33, warmup_epochs=warmup, batch=batch,
                      init_scale=init_scale, seed=27)
    trace, lambdas, W, b = _tkml_aorr_reference(data, r, cfg)
    report = _tkml_aorr(data, r, cfg)
    np.testing.assert_array_equal(report.objective_trace, trace)
    assert [(p.lam, p.lam_hat) for p in report.lambdas] == lambdas
    np.testing.assert_array_equal(report.model.weights, W)
    np.testing.assert_array_equal(report.model.bias, b)


def test_tkml_aorr_saddle_point_pass_is_the_first_step_evaluation():
    # at batch 0 the all-row pass that places the thresholds serves the
    # first step too, so a warm start adds no pass to a cell
    data = gen_multilabel_synthetic(60, 4, 5, seed=26, max_labels=2)
    passes = []
    for warmup in (0, 15):
        cfg = TrainConfig(kprime=2, outer_epochs=33, batch=0,
                          warmup_epochs=warmup, seed=27)
        start = _warm_start(data, make_loss_spec("tkml", 2), cfg)
        spec = _CountingSpec(make_loss_spec("tkml", 2), data)
        tkml_aorr_train(data, spec, RankedRange(5, 40), cfg, start)
        passes.append(spec.passes)
    assert passes[1] == passes[0] == 34  # 30 steps, 4 objective passes


@pytest.mark.parametrize("batch, init_scale", [(0, 0.0), (16, 0.0), (16, 0.2)])
def test_tkml_aorr_grid_shares_warm_start(monkeypatch, batch, init_scale):
    # run_experiment trains the warm start once per repeat and hands it to
    # every (m, k) cell; training each cell from its own warm-up must give
    # the same report
    text = (
        "task = multilabel\nloss = tkml\naggregate = tkml_aorr\n"
        "dataset = multilabel-synth\nsplit = 0.8, 0.2\nrepeats = 2\n"
        "eval_k = 2\nml.n = 90\nml.d = 4\nml.l = 5\nml.max = 2\n"
        "train.kprime = 2\ntrain.outer_epochs = 25\n"
        "train.warmup_epochs = 12\ntrain.eta_inner = 0.2\n"
        "train.eta_outer = 0.3\ngrid.m = 4, 9\ngrid.k = 40, 60\n"
        f"train.batch = {batch}\ntrain.init_scale = {init_scale}\n")
    cfg = cli.parse_config(text)
    shared = json.dumps(cli.run_experiment(cfg), sort_keys=True)

    def own_warm_up(data, spec, r, config, start):
        trace, lambdas, W, b = _tkml_aorr_reference(data, r, config)
        model = LinearModel(weights=W, bias=b)
        return TrainReport(model, trace, [LambdaPair(*p) for p in lambdas])

    monkeypatch.setattr(cli, "sgd_average_train",
                        lambda data, spec, config: TrainReport(None, [], []))
    monkeypatch.setattr(cli, "tkml_aorr_train", own_warm_up)
    assert json.dumps(cli.run_experiment(cfg), sort_keys=True) == shared


def test_tkml_aorr_kprime_range_checked():
    # tkml_aorr_train takes the caller's tkml spec, which checks that its
    # top k' leave a label out
    with pytest.raises(ConfigError):
        make_loss_spec("tkml", 4, 4)
    assert make_loss_spec("tkml", 3, 4).kprime == 3


# --- baselines ------------------------------------------------------------

def test_sgd_average_full_batch_monotone():
    data = small_binary(seed=15)
    spec = make_loss_spec("logistic")
    cfg = TrainConfig(eta_outer=0.1, outer_epochs=100, batch=0)
    trace = sgd_average_train(data, spec, cfg).objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("trainer", ["sgd_average_train", "auto_train"])
@pytest.mark.parametrize("batch", [0, 8])
def test_average_descent_starts_from_init_scale(trainer, batch):
    data = gen_multiclass_blobs(90, 5, 3, seed=35)
    tr, va = split_dataset(data, (0.8, 0.2), seed=0)
    spec = make_loss_spec("softmax")
    cfg = TrainConfig(eta_outer=0.2, outer_epochs=3, inner_epochs=10,
                      warmup_epochs=3, batch=batch, seed=36)
    train = {"sgd_average_train": lambda cfg: sgd_average_train(tr, spec, cfg),
             "auto_train": lambda cfg: auto_train(tr, va, spec, cfg)}[trainer]
    zero, drawn = (train(dataclasses.replace(cfg, init_scale=scale)).model
                   for scale in (0.0, 0.5))
    assert not np.array_equal(zero.weights, drawn.weights)
    assert not np.array_equal(zero.bias, drawn.bias)


def test_full_batch_sgd_average_reuses_each_objective_pass():
    # the pass that gives an epoch's objective also gives the next step
    data = gen_multiclass_blobs(90, 5, 3, seed=35)
    spec = _CountingSpec(make_loss_spec("softmax"), data)
    sgd_average_train(data, spec, TrainConfig(outer_epochs=12, batch=0))
    assert spec.passes == 12 + 1


def test_tkml_warm_up_divergence_names_its_epoch():
    data = gen_multilabel_synthetic(40, 4, 5, seed=26)
    cfg = TrainConfig(kprime=2, eta_outer=1e300, C=1e-300, warmup_epochs=5,
                      outer_epochs=3, batch=0)
    with pytest.raises(TrainingDiverged) as exc, np.errstate(all="ignore"):
        _tkml_aorr(data, RankedRange(2, 20), cfg)
    assert exc.value.epoch < cfg.warmup_epochs


def _multilabel_lr_reference(data, config):
    """Independent per-label logistic regression as one self-contained
    loop: full-batch steps on the mean of the per-label losses, each step's
    gradient scaled by 1/n before the product with X.  trace[e] is the
    regularized mean over rows of the summed per-label losses after step
    e."""
    Y = data.label_matrix.astype(np.float64)
    X, C, eta = data.features, config.C, config.eta_outer
    W, b = np.zeros((data.l, data.d)), np.zeros(data.l)
    trace = []
    for _ in range(config.outer_epochs):
        P = 1.0 / (1.0 + np.exp(-np.clip(X @ W.T + b, -500, 500)))
        G = (P - Y) / data.n
        W = W - eta * (G.T @ X + W / C)
        b = b - eta * G.sum(axis=0)
        scores = X @ W.T + b
        losses = np.logaddexp(0.0, scores) - Y * scores
        trace.append(float(np.mean(losses.sum(axis=1)))
                     + float(np.sum(W ** 2)) / (2.0 * C))
    return trace, W, b


def test_multilabel_lr_is_the_average_of_a_per_label_logistic_spec():
    from rankedrange import (MultilabelLogisticLoss, average_precision,
                             topk_multilabel_accuracy)
    from rankedrange.model import predict_matrix

    data = gen_multilabel_synthetic(300, 12, 6, seed=40, max_labels=3,
                                    score_noise=2.0)
    tr, te = split_dataset(data, (0.8, 0.2), seed=41)
    cfg = TrainConfig(eta_outer=0.5, outer_epochs=200, batch=0)
    trace, W, b = _multilabel_lr_reference(tr, cfg)
    report = sgd_average_train(tr, MultilabelLogisticLoss(), cfg)
    np.testing.assert_allclose(report.model.weights, W, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.model.bias, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.objective_trace, trace, rtol=1e-12)
    ours, theirs = (predict_matrix(model, te.features) for model in (
        report.model, LinearModel(weights=W, bias=b)))
    for k in (1, 2, 3):
        assert topk_multilabel_accuracy(ours, te.label_matrix, k) == \
            topk_multilabel_accuracy(theirs, te.label_matrix, k)
    assert average_precision(ours, te.label_matrix) == \
        average_precision(theirs, te.label_matrix)


def test_sgd_average_separable_data_perfect():
    rng = np.random.default_rng(16)
    X = np.vstack([rng.normal(2, 0.3, size=(30, 2)),
                   rng.normal(-2, 0.3, size=(30, 2))])
    y = np.array([1] * 30 + [-1] * 30, dtype=np.int64)
    data = Dataset(X, y, 1)
    spec = make_loss_spec("logistic")
    cfg = TrainConfig(eta_outer=0.5, outer_epochs=500, batch=0)
    report = sgd_average_train(data, spec, cfg)
    margins = y * (X @ report.model.weights[0] + report.model.bias[0])
    assert np.all(margins > 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(C=0.0)
    with pytest.raises(ValueError):
        TrainConfig(outer_epochs=0)


def test_negative_batch_rejected():
    with pytest.raises(ValueError, match="batch"):
        TrainConfig(batch=-1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(10, 300), batch=st.integers(10, 150),
       blocks=st.integers(0, 2), extra=st.integers(0, 400))
@example(n=5, d=256, batch=128, blocks=2, extra=0)  # one step per block
@example(n=7, d=72, batch=16, blocks=1, extra=5)  # 28 steps per block
def test_batches_gather_the_rows_of_a_per_step_take(n, d, batch, blocks, extra):
    # the steps' rows, gathered a block at a time, are byte for byte those of
    # a take per step from the same one draw of indices; the steps need not
    # fill their last block
    rng = np.random.default_rng(n * d + batch)
    data = Dataset(rng.standard_normal((n, d)), rng.integers(1, 4, size=n), 3)
    block = max(optim._BLOCK_VALUES // (batch * d), 1)
    steps = max(blocks * block + extra % block, 1)
    draw = np.random.default_rng(5)
    got = list(optim._batches(data, draw, batch, steps))
    reference = np.random.default_rng(5)
    idx = reference.integers(0, n, size=(steps, batch))
    assert draw.bit_generator.state == reference.bit_generator.state
    assert len(got) == steps
    for rows, step_idx in zip(got, idx):
        assert rows.n == batch
        for have, full in ((rows.features, data.features),
                           (rows.label_matrix, data.label_matrix)):
            want = full.take(step_idx, axis=0)
            assert have.shape == want.shape and have.dtype == want.dtype
            assert have.tobytes() == want.tobytes()


def test_tkml_sample_loss_matches_scalar_path():
    data = gen_multilabel_synthetic(30, 6, 5, seed=17, min_labels=1,
                                    max_labels=3)
    spec = TKMLSampleLoss(2)
    rng = np.random.default_rng(18)
    W = rng.standard_normal((5, 6))
    b = rng.standard_normal(5)
    batch = spec.losses(W, b, data)
    for i in range(30):
        scores = W @ data.features[i] + b
        value, _ = tkml_loss_subgrad(
            scores, LabelSet(np.flatnonzero(data.labels[i]) + 1, 5), 2)
        assert batch[i] == pytest.approx(value, abs=1e-12)


def test_tkml_losses_on_short_lived_subsets():
    # each subset is dropped right after use, so a later one may reuse its
    # id(); the label sets must still come from the subset at hand
    base = gen_multilabel_synthetic(60, 4, 5, seed=20)
    spec = TKMLSampleLoss(1)
    rng = np.random.default_rng(21)
    W = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    for _ in range(50):
        idx = rng.choice(base.n, size=10, replace=False)
        values = spec.losses(W, b, base.subset(idx))
        for value, i in zip(values, idx):
            Y = LabelSet(np.flatnonzero(base.labels[i]) + 1, 5)
            expected, _ = tkml_loss_subgrad(W @ base.features[i] + b, Y, 1)
            assert value == pytest.approx(expected, abs=1e-12)


def _scalar_loss_grad(kind, scores, label, l):
    """Value and score gradient of one row from the scalar oracles."""
    if kind in ("logistic", "hinge"):
        value, deriv = margin_loss(MarginLossKind(kind), label * scores[0])
        return value, np.array([deriv * label])
    if kind == "softmax":
        return softmax_loss_grad(scores, int(label))
    Y = LabelSet(np.flatnonzero(label) + 1, l)
    value, coeffs = tkml_loss_subgrad(scores, Y, 2)
    grad = np.zeros(l)
    for lab, c in coeffs.items():
        grad[lab - 1] += c
    return value, grad


@pytest.mark.parametrize("kind", ["logistic", "hinge", "softmax", "tkml"])
def test_value_and_grad_matches_scalar_oracles(kind):
    if kind == "softmax":
        data = gen_multiclass_blobs(30, 4, 5, seed=22)
    elif kind == "tkml":
        data = gen_multilabel_synthetic(30, 4, 5, seed=22, max_labels=2)
    else:
        data = small_binary(seed=22, n=30)
    spec = make_loss_spec(kind, kprime=2)
    rng = np.random.default_rng(23)
    W = rng.standard_normal((data.l, data.d))
    b = rng.standard_normal(data.l)
    rows = np.array([3, 7, 7, 0, 12, 3, 29, 3])
    mask = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
    batch = gathered(data, rows)
    values, G = spec.value_and_grad(W, b, batch)
    gW, gb = _chain_rule(batch, G, mask)

    expect_W, expect_b = np.zeros_like(W), np.zeros(data.l)
    for pos, i in enumerate(rows):
        value, grad = _scalar_loss_grad(kind, W @ data.features[i] + b,
                                        data.labels[i], data.l)
        assert values[pos] == pytest.approx(value, abs=1e-12)
        if mask[pos]:
            expect_W += np.outer(grad, data.features[i])
            expect_b += grad
    np.testing.assert_allclose(gW, expect_W, atol=1e-12)
    np.testing.assert_allclose(gb, expect_b, atol=1e-12)


def _softmax_fresh_arrays(W, b, rows):
    """Softmax values and G with a fresh array for each intermediate."""
    scores = rows.features @ W.T
    scores += b
    shifted = scores - scores.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    onehot = rows.label_matrix
    probs = np.exp(shifted - logz[:, None])
    return logz - shifted[onehot], probs - onehot


def test_softmax_value_and_grad_in_one_buffer_is_exact():
    # the spec reuses the scores' buffer; every entry must stay bit for bit
    data = gen_multiclass_blobs(500, 10, 7, seed=26)
    rng = np.random.default_rng(27)
    W = 3.0 * rng.standard_normal((data.l, data.d))
    b = rng.standard_normal(data.l)
    spec = make_loss_spec("softmax")
    for rows in (data, gathered(data, rng.integers(0, data.n, size=64))):
        values, G = spec.value_and_grad(W, b, rows)
        want_values, want_G = _softmax_fresh_arrays(W, b, rows)
        assert G.shape == (rows.n, data.l) and G.dtype == np.float64
        assert values.tobytes() == want_values.tobytes()
        assert G.tobytes() == want_G.tobytes()


def _tied_tkml_cases():
    """Integer features with every row twice, and (W, b) whose scores tie
    across labels: zero, integer bias only, and integer-rounded W and b."""
    l = 6
    base = gen_multilabel_synthetic(400, 3, l, seed=24, max_labels=4)
    rng = np.random.default_rng(25)
    X = rng.integers(-2, 3, size=(400, 3)).astype(np.float64)
    data = Dataset(np.vstack([X, X]), np.vstack([base.labels, base.labels]), l)
    zero = (np.zeros((l, 3)), np.zeros(l))
    bias = (np.zeros((l, 3)), np.array([1.0, 0.0, 1.0, 2.0, 0.0, 1.0]))
    rounded = (np.round(rng.standard_normal((l, 3))),
               np.round(rng.standard_normal(l)))
    return data, [zero, bias, rounded]


@pytest.mark.parametrize("kprime", range(1, 6))
def test_tkml_value_and_grad_ties_match_scalar_oracle_exactly(kprime):
    # the rank-(k'+1) label under ties must be the stable order's lowest
    # label index, as in the scalar oracle, with no tolerance; the small
    # index batch takes the argsort path and the others the label-major
    # path with its tie fallback
    data, cases = _tied_tkml_cases()
    spec = TKMLSampleLoss(kprime)
    small = np.array([0, 400, 0, 5, 405, 5, 5, 799, 0])
    large = np.random.default_rng(28).integers(0, data.n, size=data.n)
    assert small.size * data.l < _PARTITION_MIN_SIZE <= large.size * data.l
    positive_ties = 0
    for W, b in cases:
        scores = data.features @ W.T + b  # integer-valued, so exact
        for rows in (None, small, large):
            values, G = spec.value_and_grad(
                W, b, data if rows is None else gathered(data, rows))
            for pos, i in enumerate(range(data.n) if rows is None else rows):
                value, coeffs = tkml_loss_subgrad(
                    scores[i], LabelSet(np.flatnonzero(data.labels[i]) + 1, data.l),
                    kprime)
                grad = np.zeros(data.l)
                for lab, c in coeffs.items():
                    grad[lab - 1] += c
                assert values[pos] == value
                np.testing.assert_array_equal(G[pos], grad)
                hinges = np.maximum(
                    1.0 + scores[i] - scores[i][data.labels[i]].min(), 0.0)
                positive_ties += value > 0.0 and np.sum(hinges == value) > 1
    assert positive_ties > 0  # the cases do reach the tie rule


def _stable_rank_reference(scores, label_matrix, kprime):
    """TKML values and G row by row from a stable argsort of the negated
    hinges; unlike the scalar oracle it takes non-finite scores."""
    values, G = np.empty(len(scores)), np.zeros_like(scores)
    for i, (s, mask) in enumerate(zip(scores, label_matrix)):
        y = np.argmin(np.where(mask, s, np.inf))
        hinges = np.maximum(1.0 + s - s[y], 0.0)
        j = np.argsort(-hinges, kind="stable")[kprime]
        values[i] = hinges[j]
        if hinges[j] > 0.0:
            G[i, j] += 1.0
            G[i, y] -= 1.0
    return values, G


@pytest.mark.parametrize("kprime", range(1, 6))
def test_tkml_large_path_matches_stable_rank_with_non_finite_and_zero_ties(
        kprime):
    # a large matrix with inf or NaN scores, which the stable argsort
    # ranks, and rows whose zero hinges tie at rank k'+1; NaN values
    # compare equal
    data, (_, _, rounded) = _tied_tkml_cases()
    X = data.features.copy()
    X[::7, 0] = np.inf
    X[3::11, 1] = -np.inf
    X[5::13, 2] = np.nan
    rows = Dataset(X, data.labels, data.l)
    assert rows.n * rows.l >= _PARTITION_MIN_SIZE
    W, b = rounded
    with np.errstate(invalid="ignore"):
        values, G = TKMLSampleLoss(kprime).value_and_grad(W, b, rows)
        scores = X @ W.T + b
        expect_values, expect_G = _stable_rank_reference(
            scores, rows.label_matrix, kprime)
        ranked = -np.sort(-np.maximum(
            1.0 + scores - np.where(rows.label_matrix, scores, np.inf).min(
                axis=1, keepdims=True), 0.0), axis=1)  # hinges, descending
    np.testing.assert_array_equal(values, expect_values)
    np.testing.assert_array_equal(G, expect_G)
    # the cases reach NaN values, infinite hinges, and zero ties below
    # rank k'+1
    assert np.isnan(values).any() and np.isinf(ranked).any()
    if kprime + 1 < rows.l:
        assert np.any((values == 0.0) & (ranked[:, kprime + 1] == 0.0))


def _tied_rows(l, kprime):
    """Two rows that the label-major pass must hand to the stable argsort or
    get right on its own: one whose rank-(k'+1) label is its lowest true
    label (G is zero, the loss 1), and one whose two true labels tie at the
    lowest score, with a positive loss."""
    lowest_is_ranked = np.full(l, -5.0)
    lowest_is_ranked[:kprime] = 5.0
    lowest_is_ranked[kprime] = 0.0
    tied_lowest = np.concatenate([[0.0, 0.0], np.arange(1.0, l - 1.0)])
    scores = np.vstack([lowest_is_ranked, tied_lowest])
    labels = np.zeros((2, l), dtype=bool)
    labels[0, kprime] = labels[1, :2] = True
    return scores, labels


@st.composite
def _integer_tkml_cases(draw):
    """Integer scores in -3..3 (ties everywhere), label sets, k' in 1..l-2,
    and at least _PARTITION_MIN_SIZE score entries."""
    l = draw(st.integers(3, 14))
    kprime = draw(st.integers(1, l - 2))
    n = -(-_PARTITION_MIN_SIZE // l) + draw(st.integers(0, 20))
    scores = draw(hnp.arrays(np.int8, (n, l), elements=st.integers(-3, 3)))
    labels = draw(hnp.arrays(np.bool_, (n, l)))
    rows = np.arange(n)
    labels[rows, rows % l] |= ~labels.any(axis=1)  # no empty label set
    labels[rows, (rows + 1) % l] &= ~labels.all(axis=1)  # nor a full one
    return scores.astype(np.float64), labels, kprime, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_integer_tkml_cases())
def test_tkml_label_major_path_matches_stable_rank(case):
    # every row of a large finite matrix, ties included, gets the stable
    # argsort's value and G exactly; the scores are the features times the
    # identity plus a zero bias, so they are exact
    scores, labels, kprime, as_dataset = case
    extra_scores, extra_labels = _tied_rows(scores.shape[1], kprime)
    scores = np.vstack([extra_scores, scores])
    labels = np.vstack([extra_labels, labels])
    n, l = scores.shape
    if as_dataset:
        rows = Dataset(scores, tuple(frozenset(np.flatnonzero(y) + 1)
                                     for y in labels), l)
        np.testing.assert_array_equal(rows.label_matrix, labels)
    else:
        rows = _Batch(scores, labels, n)
    values, G = TKMLSampleLoss(kprime).value_and_grad(np.eye(l), np.zeros(l),
                                                      rows)
    expect_values, expect_G = _stable_rank_reference(scores, labels, kprime)
    np.testing.assert_array_equal(values, expect_values)
    np.testing.assert_array_equal(G, expect_G)
    assert values[0] == 1.0 and not G[0].any()  # rank k'+1 is the lowest
    assert values[1] > 0.0 and G[1, 1] == 0.0  # not the second of the tied


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_tkml_one_non_finite_score_sends_the_matrix_to_stable_rank(
        monkeypatch, bad):
    data, (_, _, rounded) = _tied_tkml_cases()
    X = data.features.copy()
    X[123, 1] = bad
    rows = Dataset(X, data.labels, data.l)
    ranked = []
    stable_rank = optim._stable_rank

    def recording(scores, *args):
        ranked.append(scores.shape[0])
        return stable_rank(scores, *args)

    monkeypatch.setattr(optim, "_stable_rank", recording)
    W, b = rounded
    with np.errstate(invalid="ignore"):
        values, G = TKMLSampleLoss(2).value_and_grad(W, b, rows)
        expect_values, expect_G = _stable_rank_reference(
            X @ W.T + b, rows.label_matrix, 2)
    assert ranked == [rows.n]  # the whole matrix, in one call
    np.testing.assert_array_equal(values, expect_values)
    np.testing.assert_array_equal(G, expect_G)


def test_tkml_chain_rule_on_label_major_g_matches_c_order():
    # the label-major G is the transpose of an l x n array; the parameter
    # gradients must not depend on that layout, bit for bit
    data = gen_multilabel_synthetic(1933, 103, 14, seed=29, min_labels=3,
                                    max_labels=6)
    rng = np.random.default_rng(30)
    W = 0.1 * rng.standard_normal((14, 103))
    b = 0.1 * rng.standard_normal(14)
    _, G = TKMLSampleLoss(4).value_and_grad(W, b, data)
    assert G.flags.f_contiguous and not G.flags.c_contiguous
    C = np.ascontiguousarray(G)
    assert G.any()
    for mask in (None, rng.random(data.n) < 0.5):
        got, want = _chain_rule(data, G, mask), _chain_rule(data, C, mask)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_make_loss_spec_rejects_an_unknown_kind_at_the_loss_key():
    with pytest.raises(ConfigError) as info:
        make_loss_spec("bogus")
    assert str(info.value) == "config key 'loss': unknown loss kind 'bogus'"
