"""Batch experiment harness: seeded train/evaluate runs from plain-text
configs, grid sweeps, dataset utilities, and a registry of desk-scale
benchmark reproductions.  Reports are machine readable (JSON + flat CSV)
and byte-identical across re-runs of the same config.

Config files are plain text, one ``key = value`` per line, ``#`` starts a
comment.  Every key has a default (see ``DEFAULTS``); the resolved config
is embedded in every report so runs are self-describing.  The keys are the
fields of the config dataclasses: ``train.f`` and ``noise.f`` name fields
of TrainConfig and NoiseSpec, any other ``a.b`` names the ExperimentConfig
field ``a_b``, and each field's annotation picks its value parser.

Keys
----
task              binary | multiclass | multilabel
loss              logistic | hinge | softmax | tkml
aggregate         average | max | median | atk | aorr | topk | tkml |
                  tkml_aorr | auto_aorr | lr
dataset           monk | synthetic | blobs | multilabel-synth | <file path>
format            csv | libsvm (for file datasets)
split             comma list of fractions (train first, test last; a middle
                  fraction becomes the validation part)
repeats           number of seeded runs
restarts          random restarts per run for aggregate=aorr (best picked
                  on the validation part)
base_seed         run i uses seed base_seed + i
eval_k            k for top-k metrics (multiclass / multilabel)
noise.mode        none | symmetric | asymmetric_map | multilabel_symmetric
                  (the other noise.* keys need a mode other than none)
noise.p           flip probability (train part only)
noise.map         asymmetric map, e.g. "1:2,2:3"
noise.seed        offset added to the run seed for the noise draw
synth.balanced    2-D generator: balanced classes (true/false)
synth.outliers    2-D generator: planted outlier count
blobs.n/.d/.l     multiclass blob generator dimensions
blobs.sep         blob center separation
ml.n/.d/.l        multilabel generator dimensions
ml.min/.max       label-set size range
ml.noise          score noise of the multilabel generator
grid.m, grid.k    comma lists: (m, k) grid for aggregate=tkml_aorr
train.*           any TrainConfig field

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    DataParseError,
    Dataset,
    NoiseSpec,
    SyntheticSpec,
    flip_count,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    inject_noise,
    load_dataset,
    monk_dataset,
    split_dataset,
    standardize,
    write_csv,
)
from .metrics import (
    average_precision,
    error_rate,
    topk_accuracy,
    topk_multilabel_accuracy,
)
from .model import load_model, predict_matrix
from .optim import (
    TKMLSampleLoss,
    TrainConfig,
    TrainingDiverged,
    auto_train,
    dca_train,
    estimate_noise_count,
    holdout_error,
    make_loss_spec,
    multilabel_lr_train,
    sgd_average_train,
    tkml_aorr_train,
    tkml_warm_start,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

AGGREGATES = ("average", "max", "median", "atk", "aorr", "topk", "tkml",
              "tkml_aorr", "auto_aorr", "lr")
TASKS = ("binary", "multiclass", "multilabel")
LOSSES = ("logistic", "hinge", "softmax", "tkml")


class ConfigError(ValueError):
    """Invalid experiment config; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key {key!r}: {message}")
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "binary"
    loss: str = "logistic"
    aggregate: str = "average"
    dataset: str = "synthetic"
    format: str = "csv"
    split: tuple[float, ...] = (0.5, 0.25, 0.25)
    repeats: int = 1
    restarts: int = 1
    base_seed: int = 0
    eval_k: int = 1
    noise: NoiseSpec | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    grid_m: tuple[int, ...] = ()
    grid_k: tuple[int, ...] = ()
    synth_balanced: bool = True
    synth_outliers: int = 1
    blobs_n: int = 2000
    blobs_d: int = 20
    blobs_l: int = 10
    blobs_sep: float = 2.0
    ml_n: int = 600
    ml_d: int = 72
    ml_l: int = 6
    ml_min: int = 1
    ml_max: int = 3
    ml_noise: float = 0.5

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError("task", f"must be one of {TASKS}")
        if self.loss not in LOSSES:
            raise ConfigError("loss", f"must be one of {LOSSES}")
        if self.aggregate not in AGGREGATES:
            raise ConfigError("aggregate", f"must be one of {AGGREGATES}")
        if not 2 <= len(self.split) <= 3:
            raise ConfigError("split", "need 2 or 3 fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError("split", f"fractions {self.split} do not sum to 1")
        if self.repeats < 1 or self.restarts < 1:
            raise ConfigError("repeats", "repeats and restarts must be >= 1")
        if self.eval_k < 1:
            raise ConfigError("eval_k", "must be >= 1")
        # aggregate/loss/task combinations
        if self.task == "binary":
            if self.loss not in ("logistic", "hinge"):
                raise ConfigError("loss", "binary task needs logistic or hinge")
            if self.aggregate in ("tkml", "tkml_aorr", "lr"):
                raise ConfigError("aggregate",
                                  f"{self.aggregate} needs label-set data")
        elif self.task == "multiclass":
            if self.loss not in ("softmax", "tkml"):
                raise ConfigError("loss", "multiclass task needs softmax or "
                                          "tkml (singleton label sets)")
            if self.loss == "tkml" and self.aggregate not in ("tkml", "average"):
                raise ConfigError("aggregate",
                                  "tkml loss on multiclass supports the "
                                  "tkml/average aggregates")
            if self.loss == "softmax" and self.aggregate in (
                    "tkml", "tkml_aorr", "lr"):
                raise ConfigError("aggregate",
                                  f"{self.aggregate} does not combine with "
                                  "softmax")
        else:  # multilabel
            if self.loss != "tkml":
                raise ConfigError("loss", "multilabel task uses the tkml loss")
            if self.aggregate in ("max", "median", "topk", "auto_aorr"):
                raise ConfigError("aggregate",
                                  f"{self.aggregate} is not defined for "
                                  "multilabel training")
        if self.aggregate in ("atk", "topk") and self.train.k < 1 \
                and not self.grid_k:
            raise ConfigError("train.k", f"{self.aggregate} needs train.k >= 1")
        if self.aggregate == "aorr" and self.task != "multilabel" \
                and self.train.m < 1:
            raise ConfigError("train.m", "aorr needs train.m >= 1")
        if self.aggregate == "auto_aorr" and len(self.split) != 3:
            raise ConfigError("split", "auto_aorr needs a validation part")
        if self.restarts > 1 and len(self.split) != 3:
            raise ConfigError("restarts", "restarts > 1 needs a validation "
                                          "part to select on")


DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
            if f.name not in ("noise", "train", "split", "grid_m", "grid_k")}


def _parse_bool(value):
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false")


def _parse_tuple(cast):
    return lambda value: tuple(cast(v) for v in value.split(",") if v.strip())


def _parse_map(value):
    pairs = (item.partition(":") for item in value.split(","))
    return {int(src): int(dst) for src, _, dst in pairs}


# one parser per field annotation of the config dataclasses
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_tuple(float),
    "tuple[int, ...]": _parse_tuple(int),
    "dict | None": _parse_map,
}
_SECTIONS = {"train": TrainConfig, "noise": NoiseSpec}


def _parse_value(key: str, annotation: str, value: str):
    try:
        return _PARSERS[annotation](value)
    except ValueError:
        raise ConfigError(key, f"expected {annotation}, got {value!r}") from None


def _config_field(key: str) -> tuple:
    """(section, field name, annotation) named by a config key: ``train.f``
    and ``noise.f`` are fields of TrainConfig and NoiseSpec (``noise.map``
    is ``flip_map``); any other ``a.b`` is the ExperimentConfig field a_b."""
    section, _, name = key.partition(".")
    if section in _SECTIONS:
        cls = _SECTIONS[section]
        name = "flip_map" if key == "noise.map" else name
    else:
        section, cls, name = "", ExperimentConfig, key.replace(".", "_")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    if name not in types:
        raise ConfigError(key, "unknown key")
    return section, name, types[name]


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key=value config document into an ExperimentConfig."""
    parts: dict = {"": {}, "train": {}, "noise": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        section, name, annotation = _config_field(key)
        parts[section][name] = _parse_value(key, annotation, value)
    plain, noise = parts[""], parts["noise"]
    if noise.get("mode", "none") != "none":
        try:
            plain["noise"] = NoiseSpec(**noise)
        except (TypeError, ValueError) as exc:
            raise ConfigError("noise", str(exc)) from None
    elif set(noise) - {"mode"}:
        raise ConfigError("noise.mode", "noise fields are set but there is no "
                                        "noise mode")
    try:
        plain["train"] = TrainConfig(**parts["train"])
    except ValueError as exc:
        raise ConfigError("train", str(exc)) from None
    return ExperimentConfig(**plain)


def resolved_config(cfg: ExperimentConfig) -> dict:
    """Config with all defaults expanded, as a JSON-friendly dict."""
    out = dataclasses.asdict(cfg)
    out["split"] = list(cfg.split)
    out["grid_m"], out["grid_k"] = list(cfg.grid_m), list(cfg.grid_k)
    if cfg.noise is None:
        out["noise"] = {"mode": "none"}
    return out


# ---------------------------------------------------------------------------
# experiment execution

def _load_data(cfg: ExperimentConfig, seed: int) -> Dataset:
    if cfg.dataset == "monk":
        return monk_dataset()
    if cfg.dataset == "synthetic":
        return gen_synthetic(SyntheticSpec(balanced=cfg.synth_balanced,
                                           n_outliers=cfg.synth_outliers,
                                           seed=seed))
    if cfg.dataset == "blobs":
        return gen_multiclass_blobs(cfg.blobs_n, cfg.blobs_d, cfg.blobs_l,
                                    seed=seed, separation=cfg.blobs_sep)
    if cfg.dataset == "multilabel-synth":
        return gen_multilabel_synthetic(
            cfg.ml_n, cfg.ml_d, cfg.ml_l, seed=seed, min_labels=cfg.ml_min,
            max_labels=cfg.ml_max, score_noise=cfg.ml_noise)
    return load_dataset(cfg.dataset, cfg.format)


def _as_labelsets(data: Dataset) -> Dataset:
    """Wrap single labels into singleton label sets (top-k multiclass)."""
    if data.is_multilabel:
        return data
    labels = tuple(frozenset((int(y),)) for y in data.labels)
    return Dataset(data.features, labels, data.l,
                   data.provenance + "; singleton label sets")


def _best_of_restarts(train_data, validation_data, loss_spec, base: TrainConfig,
                      restarts: int, seed: int):
    """Seeded random restarts; the validation error picks the winner."""
    best = None
    for rst in range(restarts):
        cfg = replace(base, seed=seed * 100 + rst,
                      init_scale=0.0 if rst == 0 else 0.5)
        report = dca_train(train_data, loss_spec, cfg,
                           validation_data=validation_data)
        ve = holdout_error(report.model.weights, report.model.bias, loss_spec,
                           validation_data)
        if best is None or ve < best[0]:
            best = (ve, report)
    return best[1]


def _check_range(cfg: ExperimentConfig, train: TrainConfig, n: int) -> None:
    """Reject, as a config error, a trainer's (m, k) that does not fit the
    n training rows."""
    try:
        train.ranked_range(n)
    except ValueError as exc:
        which = "k" if train.k > n else "m"
        grid = cfg.loss == "tkml" and getattr(cfg, f"grid_{which}")
        raise ConfigError(f"{'grid' if grid else 'train'}.{which}",
                          str(exc)) from None


def _train_model(cfg: ExperimentConfig, tr: Dataset, va: Dataset | None,
                 seed: int, holdout: Dataset | None = None):
    """Dispatch on (task, aggregate); returns (TrainReport, extras dict)."""
    agg = cfg.aggregate
    base = replace(cfg.train, seed=seed)
    extras: dict = {}

    if cfg.task == "multilabel" or cfg.loss == "tkml":
        tr = _as_labelsets(tr)
        va = None if va is None else _as_labelsets(va)
        spec = TKMLSampleLoss(base.kprime)
        if agg == "lr":
            return multilabel_lr_train(tr, base), extras
        if agg == "average":
            return sgd_average_train(tr, spec, replace(base, batch=0)), extras
        if agg == "tkml":
            # stochastic average-loss descent with periodic validation
            # snapshots (m=0, k=n makes every sample active)
            cfg2 = replace(base, m=0, k=0)
            return dca_train(tr, spec, cfg2, validation_data=va), extras
        if agg in ("atk", "aorr", "tkml_aorr"):
            ms = (0,) if agg == "atk" else cfg.grid_m or (base.m,)
            ks = cfg.grid_k or (base.k,)
            for m in ms:
                for k in ks:
                    _check_range(cfg, replace(base, m=m, k=k), tr.n)
            best = None
            # select the trimming range on held-out data; the noisy
            # training set saturates once every cell fits the clean part
            probe = va if va is not None else holdout
            probe = _as_labelsets(probe) if probe is not None else tr
            start = tkml_warm_start(tr, base)  # shared: (m, k) is not used
            for m in ms:
                for k in ks:
                    report = tkml_aorr_train(tr, replace(base, m=m, k=k), start)
                    acc = topk_multilabel_accuracy(
                        predict_matrix(report.model, probe.features),
                        probe.labels, cfg.eval_k)
                    if best is None or acc > best[0]:
                        best = (acc, report, m, k)
            extras["grid_choice"] = {"m": best[2], "k": best[3]}
            return best[1], extras
        raise ConfigError("aggregate", f"{agg} unsupported for label sets")

    spec = make_loss_spec(cfg.loss, base.kprime)
    if agg == "average":
        return sgd_average_train(tr, spec, base), extras
    if agg == "lr":
        raise ConfigError("aggregate", "lr needs multilabel data")
    if agg == "auto_aorr":
        report = auto_train(tr, va, spec, base)
        lam_hat = report.lambdas[-1].lam_hat
        extras["noise_estimate"] = estimate_noise_count(
            spec.losses(report.model.weights, report.model.bias, tr), lam_hat)
        try:
            extras["true_flips"] = flip_count(tr)
        except ValueError:
            pass
        return report, extras

    # the remaining aggregates are ranked-range special cases of dca_train
    if agg == "max":
        base = replace(base, m=0, k=1)
    elif agg == "median":
        k = (tr.n + 1) // 2
        base = replace(base, m=k - 1, k=k)
    elif agg == "atk":
        base = replace(base, m=0)
    elif agg == "topk":
        base = replace(base, m=base.k - 1)
    if agg in ("atk", "aorr", "topk"):
        _check_range(cfg, base, tr.n)
    if agg == "aorr" and cfg.restarts > 1:
        return _best_of_restarts(tr, va, spec, base, cfg.restarts, seed), extras
    return dca_train(tr, spec, base, validation_data=va), extras


def _evaluate(cfg: ExperimentConfig, model, te: Dataset) -> dict:
    scores = predict_matrix(model, te.features)
    if cfg.task == "binary":
        err = error_rate(scores[:, 0], te.labels)
        return {"error": err, "accuracy": 1.0 - err}
    if cfg.task == "multiclass":
        if cfg.loss == "tkml" or cfg.eval_k > 1:
            acc = topk_accuracy(scores, te.labels, cfg.eval_k)
            return {"topk_accuracy": acc, "error": 1.0 - acc}
        err = error_rate(scores, te.labels)
        return {"error": err, "accuracy": 1.0 - err}
    acc = topk_multilabel_accuracy(scores, te.labels, cfg.eval_k)
    return {"topk_accuracy": acc,
            "average_precision": average_precision(scores, te.labels)}


def _thin(seq, limit=50):
    if len(seq) <= limit:
        return list(seq)
    idx = np.linspace(0, len(seq) - 1, limit).astype(int)
    return [seq[i] for i in idx]


def _single_run(cfg: ExperimentConfig, run: int) -> dict:
    seed = cfg.base_seed + run
    data = _load_data(cfg, seed)
    parts = split_dataset(data, cfg.split, seed=seed)
    parts, _, _ = standardize(*parts)
    tr, te = parts[0], parts[-1]
    va = parts[1] if len(parts) == 3 else None
    if cfg.noise is not None:
        tr = inject_noise(tr, replace(cfg.noise, seed=cfg.noise.seed + seed))
    report, extras = _train_model(cfg, tr, va, seed, holdout=te)
    metrics = _evaluate(cfg, report.model, te)
    trace = [x for x in report.objective_trace if np.isfinite(x)]
    record = {
        "run": run,
        "seed": seed,
        "metrics": metrics,
        "objective_first": trace[0] if trace else None,
        "objective_last": trace[-1] if trace else None,
        "lambda_trace": _thin([[p.lam, p.lam_hat] for p in report.lambdas]),
    }
    record.update(extras)
    return record


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   name: str = "experiment", reference: dict | None = None) -> dict:
    """Execute ``cfg.repeats`` seeded runs and assemble the report.

    The report is deterministic in (config, seeds): metric sections are
    byte-identical across re-runs.  When ``out_dir`` is given, writes
    ``<name>.json`` and ``<name>.csv`` there.
    """
    runs = [_single_run(cfg, i) for i in range(cfg.repeats)]
    metric_names = sorted(runs[0]["metrics"])
    aggregates = {}
    for key in metric_names:
        vals = np.array([r["metrics"][key] for r in runs])
        aggregates[key] = {"mean": float(vals.mean()),
                           "std": float(vals.std())}
    report = {
        "name": name,
        "config": resolved_config(cfg),
        "runs": runs,
        "aggregates": aggregates,
    }
    if reference:
        report["reference"] = reference
    if out_dir is not None:
        write_report(report, out_dir, name)
    return report


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def write_report(report: dict, out_dir: str, name: str) -> tuple:
    """Write ``<name>.json`` plus a flat ``<name>.csv`` of the headline
    metrics (one row per run, then mean and std rows)."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, f"{name}.json")
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    metric_names = sorted(report["aggregates"])
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["run", "seed"] + metric_names)
        for r in report["runs"]:
            writer.writerow([r["run"], r["seed"]] +
                            [_fmt(r["metrics"][k]) for k in metric_names])
        writer.writerow(["mean", ""] +
                        [_fmt(report["aggregates"][k]["mean"]) for k in metric_names])
        writer.writerow(["std", ""] +
                        [_fmt(report["aggregates"][k]["std"]) for k in metric_names])
    return json_path, csv_path


# ---------------------------------------------------------------------------
# reproduction registry: desk-scale reruns of the published comparisons,
# reported side by side with the published reference numbers

def _maybe_real(path: str, fallback: str) -> str:
    """Use a local CSV copy of the benchmark when present, otherwise the
    documented synthetic stand-in."""
    return path if os.path.exists(path) else fallback


def _monk_cfg(aggregate: str, repeats: int = 10, **train_kw) -> ExperimentConfig:
    defaults = dict(m=20, k=70, C=1e4, eta_inner=0.01, outer_epochs=5,
                    inner_epochs=2000, batch=1)
    defaults.update(train_kw)
    return ExperimentConfig(
        task="binary", loss="logistic", aggregate=aggregate, dataset="monk",
        split=(0.5, 0.25, 0.25), repeats=repeats,
        restarts=5 if aggregate == "aorr" else 1,
        train=TrainConfig(**defaults))


def _repro_table3(out_dir, subsample, full):
    configs = {
        "maximum": _monk_cfg("max", batch=0, eta_inner=0.005,
                             inner_epochs=1000),
        "average": _monk_cfg("average", eta_outer=0.1, outer_epochs=2000,
                             batch=0, inner_epochs=1),
        "atk": _monk_cfg("atk", m=0),
        "aorr": _monk_cfg("aorr"),
    }
    reference = {"maximum": 22.41, "average": 20.46, "atk": 16.76,
                 "aorr": 12.69, "units": "error %"}
    rows = []
    for label, cfg in configs.items():
        rep = run_experiment(cfg, out_dir, f"table3_{label}",
                             reference={label: reference[label]})
        rows.append([label, _fmt(100 * rep["aggregates"]["error"]["mean"]),
                     _fmt(100 * rep["aggregates"]["error"]["std"]),
                     _fmt(reference[label])])
    _write_table(out_dir, "table3",
                 ["aggregate", "error_mean_pct", "error_std_pct",
                  "reference_pct"], rows)


def _mnist_like_cfg(aggregate: str, p: float, subsample: int) -> ExperimentConfig:
    path = _maybe_real("data/mnist.csv", "blobs")
    n_total = int(subsample * 1.3)
    if aggregate == "auto_aorr":
        train = TrainConfig(C=1e4, eta_outer=0.4, eta_inner=0.02,
                            outer_epochs=40, inner_epochs=200,
                            warmup_epochs=300, batch=128, patience=3,
                            refresh_every=50)
    else:
        train = TrainConfig(C=1e4, eta_outer=0.4, outer_epochs=400, batch=0)
    return ExperimentConfig(
        task="multiclass", loss="softmax", aggregate=aggregate, dataset=path,
        split=(10 / 13, 2 / 13, 1 / 13), repeats=3,
        noise=NoiseSpec(mode="symmetric", p=p, seed=1000),
        blobs_n=n_total, blobs_d=200, blobs_l=10, blobs_sep=4.0, train=train)


def _repro_table5(out_dir, subsample, full):
    if full:
        subsample = 60000
    reference = {"average": {0.2: 89.69, 0.3: 88.71, 0.4: 87.77},
                 "aorr": {0.2: 92.42, 0.3: 92.26, 0.4: 91.87}}
    rows = []
    for p in (0.2, 0.3, 0.4):
        for label, agg in (("average", "average"), ("aorr", "auto_aorr")):
            cfg = _mnist_like_cfg(agg, p, subsample)
            rep = run_experiment(cfg, out_dir, f"table5_{label}_p{int(p*10)}")
            rows.append([label, _fmt(p),
                         _fmt(100 * rep["aggregates"]["accuracy"]["mean"]),
                         _fmt(reference[label][p])])
    _write_table(out_dir, "table5",
                 ["aggregate", "noise_p", "accuracy_pct", "reference_pct"],
                 rows)


def _repro_table6(out_dir, subsample, full):
    if full:
        subsample = 60000
    reference = {0.2: (10000, 11722), 0.3: (15000, 16431), 0.4: (20000, 21026)}
    rows = []
    for p in (0.2, 0.3, 0.4):
        cfg = _mnist_like_cfg("auto_aorr", p, subsample)
        rep = run_experiment(cfg, out_dir, f"table6_p{int(p*10)}")
        est = float(np.mean([r["noise_estimate"] for r in rep["runs"]]))
        true = float(np.mean([r["true_flips"] for r in rep["runs"]]))
        ref_true, ref_est = reference[p]
        rows.append([_fmt(p), _fmt(true), _fmt(est), ref_true, ref_est])
    _write_table(out_dir, "table6",
                 ["noise_p", "ground_truth", "estimate",
                  "reference_truth", "reference_estimate"], rows)


def _emotions_cfg(aggregate: str, eval_k: int, repeats: int = 5) -> ExperimentConfig:
    path = _maybe_real("data/emotions.csv", "multilabel-synth")
    if aggregate == "lr":
        train = TrainConfig(C=1e4, eta_outer=0.5, outer_epochs=1000)
    else:
        train = TrainConfig(C=1e4, eta_outer=0.1, eta_inner=0.1,
                            outer_epochs=1, inner_epochs=8000, batch=16,
                            kprime=eval_k)
    return ExperimentConfig(
        task="multilabel", loss="tkml", aggregate=aggregate, dataset=path,
        split=(0.6, 0.2, 0.2), repeats=repeats, eval_k=eval_k,
        ml_n=593, ml_d=72, ml_l=6, ml_min=1, ml_max=3, ml_noise=2.0,
        train=train)


def _repro_table7(out_dir, subsample, full):
    reference = {"tkml": {1: 76.80, 2: 62.11, 3: 77.62},
                 "lr": {1: 73.54, 2: 57.48, 3: 73.20}}
    rows = []
    for k in (1, 2, 3):
        for label in ("lr", "tkml"):
            rep = run_experiment(_emotions_cfg(label, k), out_dir,
                                 f"table7_{label}_k{k}")
            rows.append([label, k,
                         _fmt(100 * rep["aggregates"]["topk_accuracy"]["mean"]),
                         _fmt(reference[label][k])])
    _write_table(out_dir, "table7",
                 ["method", "k", "topk_accuracy_pct", "reference_pct"], rows)


def _repro_table8(out_dir, subsample, full):
    reference = {"tkml": 84.82, "lr": 74.85}
    rows = []
    for label in ("lr", "tkml"):
        rep = run_experiment(_emotions_cfg(label, 1), out_dir,
                             f"table8_{label}")
        rows.append([label,
                     _fmt(100 * rep["aggregates"]["average_precision"]["mean"]),
                     _fmt(reference[label])])
    _write_table(out_dir, "table8",
                 ["method", "average_precision_pct", "reference_pct"], rows)


def _repro_table10(out_dir, subsample, full):
    if full:
        subsample = 60000
    # published baseline is a capped top-k SVM, out of scope here; the
    # reference column still shows both published numbers
    reference = {0.2: (83.06, 78.33), 0.3: (80.13, 74.65), 0.4: (75.0, 68.32)}
    n_total = int(subsample * 1.3)
    rows = []
    for p in (0.2, 0.3, 0.4):
        flip = {c: c % 10 + 1 for c in range(1, 11)}
        cfg = ExperimentConfig(
            task="multiclass", loss="tkml", aggregate="tkml",
            dataset="blobs", split=(10 / 13, 2 / 13, 1 / 13), repeats=3,
            eval_k=1,
            noise=NoiseSpec(mode="asymmetric_map", p=p, flip_map=flip,
                            seed=1000),
            blobs_n=n_total, blobs_d=200, blobs_l=10, blobs_sep=4.0,
            train=TrainConfig(C=1e4, eta_inner=0.05, outer_epochs=1,
                              inner_epochs=6000, batch=16, kprime=1))
        rep = run_experiment(cfg, out_dir, f"table10_p{int(p*10)}")
        ref_tkml, ref_base = reference[p]
        rows.append([_fmt(p),
                     _fmt(100 * rep["aggregates"]["topk_accuracy"]["mean"]),
                     _fmt(ref_tkml), _fmt(ref_base)])
    _write_table(out_dir, "table10",
                 ["noise_p", "top1_accuracy_pct", "reference_pct",
                  "reference_baseline_pct"], rows)


def _yeast_cfg(aggregate: str, repeats: int = 5) -> ExperimentConfig:
    path = _maybe_real("data/yeast.csv", "multilabel-synth")
    n = 2417
    train = TrainConfig(C=1e4, eta_outer=0.3, eta_inner=0.3, outer_epochs=1000,
                        warmup_epochs=300, batch=0, kprime=4)
    kw = dict(task="multilabel", loss="tkml", aggregate=aggregate,
              dataset=path, split=(0.8, 0.2), repeats=repeats, eval_k=4,
              noise=NoiseSpec(mode="multilabel_symmetric", p=0.3, seed=80),
              ml_n=n, ml_d=103, ml_l=14, ml_min=3, ml_max=6, ml_noise=1.0)
    n_train = int(0.8 * n)
    if aggregate == "average":
        kw["train"] = replace(train, outer_epochs=300)
    elif aggregate == "atk":
        kw["train"] = train
        kw["grid_k"] = (n_train // 2, 3 * n_train // 4)
    else:  # tkml_aorr
        kw["train"] = train
        kw["grid_m"] = (n_train // 4, n_train // 3)
        kw["grid_k"] = (n_train // 2, 3 * n_train // 4)
    return ExperimentConfig(**kw)


def _repro_table11(out_dir, subsample, full):
    reference = {"average": 33.78, "atk": 36.90, "tkml_aorr": 44.71}
    rows = []
    for label in ("average", "atk", "tkml_aorr"):
        rep = run_experiment(_yeast_cfg(label), out_dir, f"table11_{label}")
        rows.append([label,
                     _fmt(100 * rep["aggregates"]["topk_accuracy"]["mean"]),
                     _fmt(reference[label])])
    _write_table(out_dir, "table11",
                 ["aggregate", "topk_accuracy_pct", "reference_pct"], rows)


def _synthetic_cfg(aggregate: str, balanced: bool, outliers: int,
                   repeats: int = 10) -> ExperimentConfig:
    train = TrainConfig(m=1, k=2, C=1e4, eta_inner=0.005, outer_epochs=8,
                        inner_epochs=2000, batch=0)
    if aggregate == "average":
        train = replace(train, eta_outer=0.1, outer_epochs=2000)
    return ExperimentConfig(
        task="binary", loss="logistic", aggregate=aggregate,
        dataset="synthetic", split=(0.7, 0.3), repeats=repeats,
        synth_balanced=balanced, synth_outliers=outliers, train=train)


def _repro_fig_synthetic(out_dir, name, balanced, outliers):
    rows = []
    for label in ("average", "max", "atk", "aorr"):
        rep = run_experiment(_synthetic_cfg(label, balanced, outliers),
                             out_dir, f"{name}_{label}")
        rows.append([label, _fmt(100 * rep["aggregates"]["error"]["mean"]),
                     _fmt(100 * rep["aggregates"]["error"]["std"])])
    _write_table(out_dir, name,
                 ["aggregate", "error_mean_pct", "error_std_pct"], rows)


def _repro_fig4(out_dir, subsample, full):
    _repro_fig_synthetic(out_dir, "fig4", balanced=True, outliers=1)


def _repro_fig5(out_dir, subsample, full):
    _repro_fig_synthetic(out_dir, "fig5", balanced=False, outliers=5)


def _repro_fig6(out_dir, subsample, full):
    rows = []
    for m in range(0, 61, 10):
        cfg = _monk_cfg("aorr" if m else "atk", repeats=3, m=m)
        rep = run_experiment(cfg, out_dir, f"fig6_m{m}")
        rows.append([m, _fmt(100 * rep["aggregates"]["error"]["mean"])])
    _write_table(out_dir, "fig6", ["m", "error_mean_pct"], rows)


def _repro_fig8(out_dir, subsample, full):
    rows = []
    for k in (1, 2, 3, 4, 5):
        rep = run_experiment(_emotions_cfg("tkml", k, repeats=3), out_dir,
                             f"fig8_k{k}")
        rows.append([k, _fmt(100 * rep["aggregates"]["topk_accuracy"]["mean"])])
    _write_table(out_dir, "fig8", ["k", "topk_accuracy_pct"], rows)


def _repro_fig9(out_dir, subsample, full):
    base = _yeast_cfg("tkml_aorr", repeats=3)
    n_train = int(0.8 * base.ml_n)
    rows = []
    for m in (0, n_train // 8, n_train // 4, n_train // 3, n_train // 2):
        cfg = replace(base, grid_m=(m,), grid_k=(3 * n_train // 4,),
                      aggregate="tkml_aorr" if m else "atk")
        rep = run_experiment(cfg, out_dir, f"fig9_m{m}")
        rows.append([m, _fmt(100 * rep["aggregates"]["topk_accuracy"]["mean"])])
    _write_table(out_dir, "fig9", ["m", "topk_accuracy_pct"], rows)


def _write_table(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


REPRO_REGISTRY = {
    "table3": _repro_table3,
    "table5": _repro_table5,
    "table6": _repro_table6,
    "table7": _repro_table7,
    "table8": _repro_table8,
    "table10": _repro_table10,
    "table11": _repro_table11,
    "fig4": _repro_fig4,
    "fig5": _repro_fig5,
    "fig6": _repro_fig6,
    "fig8": _repro_fig8,
    "fig9": _repro_fig9,
}


# ---------------------------------------------------------------------------
# command line front end

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rankedrange",
                     description="ranked-range loss experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override base_seed")
    p.add_argument("--out", default="reports")
    p.add_argument("--name", default="experiment")

    p = sub.add_parser("repro", help="rerun a registered benchmark table")
    p.add_argument("name")
    p.add_argument("--out", default="reports")
    p.add_argument("--subsample", type=int, default=10000,
                   help="training points for the large-scale tables")
    p.add_argument("--full", action="store_true",
                   help="full-size run (overrides --subsample)")

    p = sub.add_parser("sweep", help="grid sweep over one parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True,
                   help="any config key; a bare TrainConfig field name "
                        "(m, k, kprime, C, ...) means train.<name>, and p "
                        "means noise.p")
    p.add_argument("--range", required=True, dest="range_",
                   metavar="START:STOP[:STEP]")
    p.add_argument("--out", default="reports")

    p = sub.add_parser("gen-synth", help="write a synthetic dataset as CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=("synthetic", "blobs", "multilabel"),
                   default="synthetic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--imbalanced", action="store_true")
    p.add_argument("--outliers", type=int, default=1)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--l", type=int, default=10)

    p = sub.add_parser("noise", help="inject label noise into a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="symmetric",
                   choices=("symmetric", "asymmetric_map",
                            "multilabel_symmetric"))
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--map", default=None, help="src:dst pairs, comma separated")

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "libsvm"))
    p.add_argument("--k", type=int, default=1)
    return parser


def _cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    report = run_experiment(cfg, args.out, args.name)
    for key, stats in sorted(report["aggregates"].items()):
        print(f"{key}: mean={_fmt(stats['mean'])} std={_fmt(stats['std'])}")
    return EXIT_OK


def _cmd_repro(args) -> int:
    fn = REPRO_REGISTRY.get(args.name)
    if fn is None:
        known = ", ".join(sorted(REPRO_REGISTRY))
        print(f"unknown repro name {args.name!r}; registry: {known}",
              file=sys.stderr)
        return EXIT_USAGE
    fn(args.out, args.subsample, args.full)
    return EXIT_OK


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("--range", f"expected START:STOP[:STEP], got {text!r}")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ConfigError("--range", f"non-numeric bound in {text!r}") from None
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1.0
    if step <= 0 or stop < start:
        raise ConfigError("--range", "need STOP >= START and STEP > 0")
    out, v = [], start
    while v <= stop + 1e-9:
        out.append(v)
        v += step
    return out


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    key = args.param
    if key == "p":
        key = "noise.p"
    elif key in {f.name for f in dataclasses.fields(TrainConfig)}:
        key = f"train.{key}"
    values = _parse_range(args.range_)
    # each swept value is one more config line, checked like a config file
    configs = [parse_config(f"{text}\n{key} = "
                            f"{int(v) if v.is_integer() else repr(v)}\n")
               for v in values]
    rows, header = [], None
    for v, cfg in zip(values, configs):
        rep = run_experiment(cfg)
        if header is None:
            header = [args.param] + sorted(rep["aggregates"])
        rows.append([_fmt(v)] + [_fmt(rep["aggregates"][k]["mean"])
                                 for k in header[1:]])
    _write_table(args.out, f"sweep_{args.param}", header, rows)
    return EXIT_OK


def _cmd_gen_synth(args) -> int:
    if args.kind == "synthetic":
        data = gen_synthetic(SyntheticSpec(balanced=not args.imbalanced,
                                           n_outliers=args.outliers,
                                           seed=args.seed))
    elif args.kind == "blobs":
        data = gen_multiclass_blobs(args.n, args.d, args.l, seed=args.seed)
    else:
        data = gen_multilabel_synthetic(args.n, args.d, args.l, seed=args.seed)
    write_csv(data, args.out)
    print(f"wrote {args.out} ({data.n} samples, {data.d} features)")
    return EXIT_OK


def _cmd_noise(args) -> int:
    data = load_dataset(args.data)
    flip_map = _parse_value("--map", "dict | None", args.map) if args.map else None
    try:
        spec = NoiseSpec(mode=args.mode, p=args.p, flip_map=flip_map,
                         seed=args.seed)
    except ValueError as exc:
        raise ConfigError("noise", str(exc)) from None
    noisy = inject_noise(data, spec)
    write_csv(noisy, args.out)
    print(f"wrote {args.out} ({flip_count(noisy)} labels flipped)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data, args.format, l=model.l)
    scores = predict_matrix(model, data.features)
    if data.is_multilabel:
        metrics = {
            "topk_accuracy": topk_multilabel_accuracy(scores, data.labels,
                                                      args.k),
            "average_precision": average_precision(scores, data.labels),
        }
    elif data.l == 1:
        err = error_rate(scores[:, 0], data.labels)
        metrics = {"error": err, "accuracy": 1.0 - err}
    else:
        metrics = {"error": error_rate(scores, data.labels),
                   "topk_accuracy": topk_accuracy(scores, data.labels, args.k)}
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "repro": _cmd_repro,
    "sweep": _cmd_sweep,
    "gen-synth": _cmd_gen_synth,
    "noise": _cmd_noise,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataParseError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
