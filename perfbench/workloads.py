"""The benchmark's workloads: inputs made from the seed, the set-up a run
pays before training, one timed execution, and the output checks.

Nothing here imports ``rankedrange`` at module level, so that a set-up
measurement can start its clock before the cold import.  Configs are
written out as config-file text and read back with the public
``parse_config``, and datasets are generated in-process or written by the
benchmark into its own work directory; nothing reads the repository's
``data/`` directory.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

# seed-to-run spacing: repeats of one benchmark seed never share a run seed
# with the next benchmark seed
SEED_STRIDE = 10


def config_text(entries: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def _emotions_like(seed: int) -> dict:
    # emotions-shaped multilabel stand-in, stochastic top-k multi-label
    # training: batch 16 x 8000 steps, validation probe every 100 steps
    return {
        "task": "multilabel", "loss": "tkml", "aggregate": "tkml",
        "dataset": "multilabel-synth", "split": "0.6, 0.2, 0.2",
        "repeats": 2, "eval_k": 1, "base_seed": SEED_STRIDE * seed,
        "ml.n": 593, "ml.d": 72, "ml.l": 6, "ml.min": 1, "ml.max": 3,
        "ml.noise": 2.0,
        "train.C": 1e4, "train.eta_outer": 0.1, "train.eta_inner": 0.1,
        "train.outer_epochs": 1, "train.inner_epochs": 8000,
        "train.batch": 16, "train.kprime": 1,
    }


def _yeast_like(seed: int) -> dict:
    # yeast-shaped noisy multilabel stand-in, full-batch minimax training
    # on a 2x2 (m, k) grid; n_train = int(0.8 * 2417) = 1933
    n_train = int(0.8 * 2417)
    return {
        "task": "multilabel", "loss": "tkml", "aggregate": "tkml_aorr",
        "dataset": "multilabel-synth", "split": "0.8, 0.2",
        "repeats": 1, "eval_k": 4, "base_seed": SEED_STRIDE * seed,
        "noise.mode": "multilabel_symmetric", "noise.p": 0.3,
        "noise.seed": 80,
        "ml.n": 2417, "ml.d": 103, "ml.l": 14, "ml.min": 3, "ml.max": 6,
        "ml.noise": 1.0,
        "train.C": 1e4, "train.eta_outer": 0.3, "train.eta_inner": 0.3,
        "train.outer_epochs": 1000, "train.warmup_epochs": 300,
        "train.batch": 0, "train.kprime": 4,
        "grid.m": f"{n_train // 4}, {n_train // 3}",
        "grid.k": f"{n_train // 2}, {3 * n_train // 4}",
    }


BLOBS_N, BLOBS_D, BLOBS_L, BLOBS_SEP = 13000, 200, 10, 4.0


def _mnist_like(seed: int, csv_path: str) -> dict:
    # mnist-shaped noisy multiclass problem from a CSV file, threshold
    # learning (auto_aorr) with outer_epochs cut from 40 to 8
    return {
        "task": "multiclass", "loss": "softmax", "aggregate": "auto_aorr",
        "dataset": csv_path, "format": "csv",
        "split": f"{10 / 13!r}, {2 / 13!r}, {1 / 13!r}",
        "repeats": 1, "base_seed": SEED_STRIDE * seed,
        "noise.mode": "symmetric", "noise.p": 0.2, "noise.seed": 1000,
        "train.C": 1e4, "train.eta_outer": 0.4, "train.eta_inner": 0.02,
        "train.outer_epochs": 8, "train.inner_epochs": 200,
        "train.warmup_epochs": 300, "train.batch": 128, "train.patience": 3,
        "train.refresh_every": 50,
    }


def write_blobs_csv(seed: int, work: str) -> str:
    """The noisy_softmax_csv input file for ``seed``, written once per seed.

    Gaussian class blobs at random unit directions scaled by BLOBS_SEP.
    Files of other seeds are removed so the work directory holds one.
    """
    import numpy as np

    path = os.path.join(work, f"blobs-seed{seed}.csv")
    if os.path.exists(path):
        return path
    for old in glob.glob(os.path.join(work, "blobs-seed*.csv*")):
        os.remove(old)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((BLOBS_L, BLOBS_D))
    centers *= BLOBS_SEP / np.linalg.norm(centers, axis=1, keepdims=True)
    y = rng.integers(1, BLOBS_L + 1, size=BLOBS_N)
    X = centers[y - 1] + rng.standard_normal((BLOBS_N, BLOBS_D))
    header = ",".join(["label"] + [f"f{j}" for j in range(BLOBS_D)])
    tmp = f"{path}.{os.getpid()}.tmp"
    np.savetxt(tmp, np.column_stack([y, X]), delimiter=",", header=header,
               comments="", fmt=["%d"] + ["%.6f"] * BLOBS_D)
    os.replace(tmp, path)
    return path


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _setup_training(entries: dict) -> None:
    """Import, then the data-layer calls one run makes before training."""
    from dataclasses import replace

    import rankedrange as rr
    from rankedrange.cli import parse_config

    cfg = parse_config(config_text(entries))
    seed = cfg.base_seed
    if cfg.dataset == "multilabel-synth":
        data = rr.gen_multilabel_synthetic(
            cfg.ml_n, cfg.ml_d, cfg.ml_l, seed=seed, min_labels=cfg.ml_min,
            max_labels=cfg.ml_max, score_noise=cfg.ml_noise)
    else:
        data = rr.load_dataset(cfg.dataset, cfg.format)
    parts = rr.split_dataset(data, cfg.split, seed=seed)
    parts, _, _ = rr.standardize(*parts)
    if cfg.noise is not None:
        rr.inject_noise(parts[0], replace(cfg.noise, seed=cfg.noise.seed + seed))


def _run_training(entries: dict) -> dict:
    """One ``run_experiment`` call on the config."""
    from rankedrange import cli

    cfg = cli.parse_config(config_text(entries))
    t0 = time.perf_counter()
    report = cli.run_experiment(cfg)
    run_s = time.perf_counter() - t0
    agg = report["aggregates"]
    objectives = [r["objective_last"] for r in report["runs"]]
    final = math.nan if None in objectives else sum(objectives) / len(objectives)
    return {
        "run_s": run_s,
        "digest": _digest(json.dumps(report, sort_keys=True).encode()),
        "topk_accuracy": agg["topk_accuracy"]["mean"],
        "average_precision": agg["average_precision"]["mean"],
        "final_objective": final,
    }


def _run_cli(entries: dict) -> dict:
    """One ``rankedrange train --config`` invocation through ``cli.main``;
    the report files are read back from disk."""
    from rankedrange import cli

    cfg_path = os.path.abspath("noisy_softmax.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(config_text(entries))
    out_dir = os.path.abspath("reports")
    argv = ["train", "--config", cfg_path, "--out", out_dir, "--name", "bench"]
    t0 = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - t0
    with open(os.path.join(out_dir, "bench.json"), "rb") as fh:
        raw_json = fh.read()
    with open(os.path.join(out_dir, "bench.csv"), "rb") as fh:
        raw_csv = fh.read()
    run = json.loads(raw_json)["runs"][0]
    est, true = run["noise_estimate"], run["true_flips"]
    return {
        "run_s": run_s,
        "exit_code": code,
        "digest": _digest(raw_json, raw_csv),
        "test_accuracy": run["metrics"]["accuracy"],
        "final_objective": run["objective_last"],
        "noise_estimate": est,
        "true_flips": true,
        "noise_count_rel_err": abs(est - true) / true,
    }


RISK_N, RISK_R, RISK_DELTA, RISK_TRIALS = 100, (5, 20), 0.1, 2000
CVAR_SAMPLE = 20000
# n*alpha = 1000 (integral: sort path) and 1000.3 (breakpoint search)
CVAR_ALPHAS = (0.05, 0.050015)


def beta_sampler(rng, size):
    return rng.beta(2.0, 5.0, size)


def cvar_oracle(values, alpha: float) -> float:
    """CVaR by sorting and interpolating the fractional top value:
    (sum of the floor(k) largest + (k - floor(k)) * next largest) / k."""
    import numpy as np

    s = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    k = s.size * alpha
    whole = int(math.floor(k + 1e-9))
    frac = k - whole
    total = float(np.sum(s[:whole]))
    if frac > 1e-9:
        total += frac * float(s[whole])
    return total / k


def _setup_risk() -> None:
    import rankedrange  # noqa: F401  (set-up is the import alone)


def _run_risk(seed: int, inputs: dict, tracer) -> dict:
    import numpy as np

    from rankedrange import RankedRange, cvar_bound_check, empirical_cvar

    sampler = beta_sampler
    if tracer is not None:
        from boundaries import SAMPLER_SPAN

        sampler = tracer.wrap(SAMPLER_SPAN, SAMPLER_SPAN, beta_sampler)
    sample = beta_sampler(np.random.default_rng(seed), CVAR_SAMPLE)
    t0 = time.perf_counter()
    upper, lower = cvar_bound_check(
        sampler, n=RISK_N, r=RankedRange(*RISK_R), delta=RISK_DELTA,
        trials=RISK_TRIALS, seed=SEED_STRIDE * seed)
    cvars = [empirical_cvar(sample, a) for a in CVAR_ALPHAS]
    run_s = time.perf_counter() - t0
    oracle = [cvar_oracle(sample, a) for a in CVAR_ALPHAS]
    rel_err = max(abs(c - o) / abs(o) for c, o in zip(cvars, oracle))
    values = [upper, lower, *cvars]
    return {
        "run_s": run_s,
        "digest": _digest(json.dumps([v.hex() for v in values]).encode()),
        "violation_upper": upper,
        "violation_lower": lower,
        "bound_coverage": 1.0 - max(upper, lower),
        "cvar_integral": cvars[0],
        "cvar_fractional": cvars[1],
        "cvar_oracle_rel_err": rel_err,
    }


def _check_training(out: dict, floors: dict) -> list:
    problems = []
    if not math.isfinite(out["final_objective"]):
        problems.append(f"final_objective {out['final_objective']} not finite")
    for key, floor in floors.items():
        if not out[key] >= floor:
            problems.append(f"{key} {out[key]:.4f} below floor {floor}")
    return problems


def _check_cli(out: dict) -> list:
    problems = [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]
    problems += _check_training(out, {"test_accuracy": 0.9})
    if not out["noise_count_rel_err"] <= 0.6:
        problems.append(f"noise count relative error "
                        f"{out['noise_count_rel_err']:.3f} above 0.6")
    return problems


def _check_risk(out: dict) -> list:
    problems = []
    for side in ("violation_upper", "violation_lower"):
        if not out[side] <= RISK_DELTA:
            problems.append(f"{side} {out[side]} above delta {RISK_DELTA}")
    if not out["cvar_oracle_rel_err"] <= 1e-9:
        problems.append(f"empirical_cvar off the sort-and-interpolate oracle "
                        f"by {out['cvar_oracle_rel_err']:.3g} (relative)")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup_repeats: int
    quality: str  # outcome key reported as the end-to-end ``quality``
    expected: tuple  # groups a traced execution must record calls in
    setup: Callable  # (seed, inputs); starts with the cold import
    execute: Callable  # (seed, inputs, tracer) -> outcome with run_s, digest
    check: Callable  # outcome -> list of problems
    prepare: Callable = lambda seed, work: {}  # inputs, before any timing


TRAINING_GROUPS = ("data.prep", "optim.train", "optim.spec", "model.predict",
                   "metrics", "cli.run_experiment")

WORKLOADS = {w.name: w for w in (
    Workload(
        "stochastic_tkml", setup_repeats=5, quality="average_precision",
        expected=TRAINING_GROUPS + ("data.generate", "core"),
        setup=lambda seed, inputs: _setup_training(_emotions_like(seed)),
        execute=lambda seed, inputs, tracer: _run_training(
            _emotions_like(seed)),
        check=lambda out: _check_training(
            out, {"topk_accuracy": 0.6, "average_precision": 0.65})),
    Workload(
        "fullbatch_grid", setup_repeats=5, quality="average_precision",
        expected=TRAINING_GROUPS + ("data.generate", "core"),
        setup=lambda seed, inputs: _setup_training(_yeast_like(seed)),
        execute=lambda seed, inputs, tracer: _run_training(
            _yeast_like(seed)),
        check=lambda out: _check_training(
            out, {"topk_accuracy": 0.25, "average_precision": 0.7})),
    Workload(
        "noisy_softmax_csv", setup_repeats=3, quality="test_accuracy",
        expected=TRAINING_GROUPS + ("data.load", "cli.main",
                                    "cli.report_write"),
        prepare=lambda seed, work: {"csv": write_blobs_csv(seed, work)},
        setup=lambda seed, inputs: _setup_training(
            _mnist_like(seed, inputs["csv"])),
        execute=lambda seed, inputs, tracer: _run_cli(
            _mnist_like(seed, inputs["csv"])),
        check=_check_cli),
    Workload(
        "risk_tail", setup_repeats=5, quality="bound_coverage",
        expected=("riskmeasure.bound_check", "riskmeasure.cvar",
                  "riskmeasure.icvar", "riskmeasure.sampler", "core"),
        setup=lambda seed, inputs: _setup_risk(),
        execute=_run_risk,
        check=_check_risk),
)}
