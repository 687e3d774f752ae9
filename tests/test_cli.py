import dataclasses
import itertools
import json
import os
import pickle

import pytest

from rankedrange import (
    DataParseError,
    LabelError,
    ModelParseError,
    NoiseSpec,
    SyntheticSpec,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    cli,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    split_dataset,
)
from rankedrange.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    DEFAULTS,
    REPRO_REGISTRY,
    ExperimentConfig,
    _PARSERS,
    _parse_range,
    main,
    parse_config,
    repro_configs,
    resolved_config,
    run_experiment,
)

SMALL_CONFIG = """
# binary trimmed-range run on the 2-D generator
task = binary
loss = logistic
aggregate = aorr
dataset = synthetic
split = 0.7,0.3
repeats = 2
train.m = 1
train.k = 2
train.batch = 0
train.eta_inner = 0.005
train.outer_epochs = 4
train.inner_epochs = 500
"""


def test_defaults_cover_every_simple_key():
    cfg = parse_config("task = binary")
    for key, default in DEFAULTS.items():
        assert getattr(cfg, key) == default or key == "task"


def test_parse_config_round_trip_values():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.aggregate == "aorr"
    assert cfg.split == (0.7, 0.3)
    assert cfg.train.m == 1 and cfg.train.k == 2
    assert cfg.train.batch == 0
    assert cfg.noise is None


def test_parse_config_noise_section():
    cfg = parse_config(
        "task = multiclass\nloss = softmax\naggregate = average\n"
        "dataset = blobs\nnoise.mode = asymmetric_map\nnoise.p = 0.4\n"
        "noise.map = 2:7,3:8\n")
    assert cfg.noise.p == 0.4
    assert cfg.noise.flip_map == {2: 7, 3: 8}


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("bogus = 1")
    with pytest.raises(ConfigError):
        parse_config("train.bogus = 1")
    with pytest.raises(ConfigError):
        parse_config("just a line without equals")


# every field differs from its default, so each key has to take effect
_EVERY_FIELD = ExperimentConfig(
    task="multilabel", loss="tkml", aggregate="tkml_aorr", dataset="blobs",
    format="libsvm", split=(0.6, 0.3, 0.1), repeats=2, restarts=3,
    base_seed=7, eval_k=2, grid_m=(1, 2), grid_k=(5, 9),
    synth_balanced=False, synth_outliers=4, blobs_n=50, blobs_d=3, blobs_l=4,
    blobs_sep=1.5, ml_n=40, ml_d=5, ml_l=7, ml_min=2, ml_max=4,
    ml_noise=0.25,
    noise=NoiseSpec(mode="asymmetric_map", p=0.35, flip_map={1: 2, 3: 1},
                    seed=9),
    train=TrainConfig(m=3, k=9, kprime=2, C=0.5, eta_outer=0.2,
                      eta_inner=0.03, outer_epochs=7, inner_epochs=11,
                      warmup_epochs=13, batch=4, seed=5, patience=6,
                      refresh_every=8, use_bias=False, init_scale=0.125))


def _config_line(key, value):
    if isinstance(value, tuple):
        value = ",".join(repr(v) for v in value)
    elif isinstance(value, dict):
        value = ",".join(f"{a}:{b}" for a, b in value.items())
    elif isinstance(value, float):
        value = repr(value)
    return f"{key} = {value}\n"


def test_every_config_field_is_a_key():
    lines = []
    for obj, section in ((_EVERY_FIELD, None), (_EVERY_FIELD.train, "train"),
                         (_EVERY_FIELD.noise, "noise")):
        for f in dataclasses.fields(obj):
            if f.name in ("noise", "train"):
                continue
            assert f.type in _PARSERS, f"{f.name}: no parser for {f.type}"
            value = getattr(obj, f.name)
            assert value != f.default, f"{f.name} left at its default"
            if section is None:
                prefix, _, rest = f.name.partition("_")
                documented = prefix in ("grid", "synth", "blobs", "ml")
                key = f"{prefix}.{rest}" if documented else f.name
            else:
                name = "map" if f.name == "flip_map" else f.name
                key = f"{section}.{name}"
            lines.append(_config_line(key, value))
    assert len(lines) == 43
    assert parse_config("".join(lines)) == _EVERY_FIELD


def test_invalid_combinations_rejected():
    with pytest.raises(ConfigError):
        parse_config("task = binary\naggregate = tkml")
    with pytest.raises(ConfigError):
        parse_config("task = multilabel\nloss = logistic")
    with pytest.raises(ConfigError):
        parse_config("task = binary\nloss = softmax")
    with pytest.raises(ConfigError):
        # trimmed range needs m >= 1
        parse_config("task = binary\naggregate = aorr\ntrain.k = 5")
    with pytest.raises(ConfigError):
        # threshold-learning mode needs a validation part
        parse_config("task = multiclass\nloss = softmax\n"
                     "aggregate = auto_aorr\nsplit = 0.8,0.2")


class _Reached(Exception):
    """Raised by a stand-in trainer: the dispatch got that far."""


def test_every_valid_triple_reaches_a_trainer(monkeypatch):
    # parse_config rejects each (task, loss, aggregate) that _train_model
    # has no trainer for, so the dispatch needs no fallback error of its own
    trainers = ("sgd_average_train", "dca_train", "auto_train",
                "tkml_aorr_train")
    for name in trainers:
        def trainer(*args, _name=name, **kwargs):
            raise _Reached(_name)
        monkeypatch.setattr(cli, name, trainer)
    monkeypatch.setattr(cli, "tkml_warm_start", lambda data, config: None)
    data = {
        "binary": gen_synthetic(SyntheticSpec(seed=1)),
        "multiclass": gen_multiclass_blobs(60, 3, 4, seed=1),
        "multilabel": gen_multilabel_synthetic(60, 3, 4, seed=1),
    }
    reached = set()
    for task, loss, agg in itertools.product(cli.TASKS, cli.LOSSES,
                                             cli.AGGREGATES):
        try:
            cfg = parse_config(f"task = {task}\nloss = {loss}\n"
                               f"aggregate = {agg}\ntrain.m = 1\n"
                               "train.k = 5\n")
        except ConfigError:
            continue
        tr, va = split_dataset(data[task], (0.7, 0.3), seed=0)
        with pytest.raises(_Reached) as exc:
            cli._train_model(cfg, tr, va, seed=0)
        reached.add(str(exc.value))
    assert reached == set(trainers)


def test_resolved_config_expands_defaults():
    cfg = parse_config(SMALL_CONFIG)
    out = resolved_config(cfg)
    assert out["restarts"] == 1
    assert out["noise"] == {"mode": "none"}
    assert out["train"]["C"] == 1e4


def test_run_experiment_report_shape(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    report = run_experiment(cfg, out_dir=str(tmp_path), name="shape")
    assert len(report["runs"]) == 2
    assert report["runs"][0]["seed"] == 0
    assert report["runs"][1]["seed"] == 1
    assert set(report["aggregates"]) == {"error", "accuracy"}
    loaded = json.loads((tmp_path / "shape.json").read_text())
    assert loaded["config"]["train"]["k"] == 2
    csv_lines = (tmp_path / "shape.csv").read_text().splitlines()
    assert csv_lines[0] == "run,seed,accuracy,error"
    assert len(csv_lines) == 1 + 2 + 2  # header, runs, mean, std


def test_run_experiment_byte_identical(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    run_experiment(cfg, out_dir=str(tmp_path / "a"), name="rep")
    run_experiment(cfg, out_dir=str(tmp_path / "b"), name="rep")
    assert (tmp_path / "a" / "rep.json").read_bytes() == \
        (tmp_path / "b" / "rep.json").read_bytes()
    assert (tmp_path / "a" / "rep.csv").read_bytes() == \
        (tmp_path / "b" / "rep.csv").read_bytes()


def test_seed_changes_results(tmp_path):
    cfg = parse_config(SMALL_CONFIG)
    a = run_experiment(cfg)
    import dataclasses
    b = run_experiment(dataclasses.replace(cfg, base_seed=100))
    assert a["runs"][0]["seed"] != b["runs"][0]["seed"]


# --- front end ------------------------------------------------------------

def test_main_train_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out"), "--name", "t"]) == EXIT_OK
    assert (tmp_path / "out" / "t.json").exists()
    assert (tmp_path / "out" / "t.csv").exists()


def test_main_usage_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    # a usage error gives its reason, not the usage line alone
    capsys.readouterr()
    assert main(["train"]) == EXIT_USAGE
    assert ("the following arguments are required: --config"
            in capsys.readouterr().err)
    assert main(["train", "--help"]) == EXIT_OK
    assert main(["repro", "no-such-table"]) == EXIT_USAGE
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert main(["train", "--config", str(bad)]) == EXIT_USAGE


def test_main_data_errors(tmp_path):
    cfg_path = tmp_path / "missing.cfg"
    cfg_path.write_text("task = binary\ndataset = /nonexistent/file.csv\n"
                        "split = 0.7,0.3\n")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    malformed = tmp_path / "mal.csv"
    malformed.write_text("label,f0\n1,0.5\nnot-a-number,1\n")
    cfg2 = tmp_path / "mal.cfg"
    cfg2.write_text(f"task = binary\ndataset = {malformed}\nsplit = 0.7,0.3\n")
    assert main(["train", "--config", str(cfg2)]) == EXIT_DATA


_RUN = ("task = binary\ndataset = synthetic\nsplit = 0.7,0.3\n"
        "train.batch = 0\ntrain.outer_epochs = 1\ntrain.inner_epochs = 5\n")


@pytest.mark.parametrize("line", [
    "train.k = abc",
    "repeats = x",
    "split = a,b",
    "split = 0.5,0.2",
    "synth.balanced = maybe",
    "noise.p = 0.3",  # no noise.mode
    "noise.mode = symmetric",  # no noise.p
    "aggregate = atk\ntrain.k = 1000",  # the training part has 140 rows
])
def test_main_config_errors_exit_1(tmp_path, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_RUN + line + "\n")
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


_MULTILABEL = ("task = multilabel\nloss = tkml\ndataset = multilabel-synth\n"
               "split = 0.7,0.3\nml.n = 40\nml.d = 4\n")  # 6 labels
_MULTICLASS = ("task = multiclass\nloss = softmax\ndataset = blobs\n"
               "split = 0.7,0.3\nblobs.n = 40\nblobs.d = 4\nblobs.l = 3\n")


@pytest.mark.parametrize("text", [
    _MULTILABEL + "aggregate = tkml\ntrain.kprime = 9",
    _MULTILABEL + "aggregate = tkml_aorr\ntrain.kprime = 9",
    _MULTILABEL + "aggregate = tkml\neval_k = 6",
    _MULTICLASS + "aggregate = average\neval_k = 4",
], ids=["tkml-kprime", "tkml_aorr-kprime", "multilabel-eval_k",
        "multiclass-eval_k"])
def test_label_rank_beyond_l_exits_1_before_training(tmp_path, monkeypatch,
                                                      text):
    import rankedrange.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    for trainer in ("dca_train", "sgd_average_train", "tkml_warm_start",
                    "tkml_aorr_train"):
        monkeypatch.setattr(cli, trainer, no_training)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text + "\n")
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE


_KIND_FILES = {
    "3-class": lambda: gen_multiclass_blobs(30, 2, 3, seed=0),
    "sign": lambda: gen_synthetic(SyntheticSpec(seed=0)),
    "label-set": lambda: gen_multilabel_synthetic(30, 2, 4, seed=0),
}


@pytest.mark.parametrize("task, loss, dataset, kind", [
    ("binary", "logistic", "3-class", "multiclass"),
    ("binary", "logistic", "blobs", "multiclass"),
    ("binary", "logistic", "label-set", "multilabel"),
    ("multilabel", "tkml", "3-class", "multiclass"),
    ("multilabel", "tkml", "blobs", "multiclass"),
    ("multiclass", "tkml", "multilabel-synth", "multilabel"),
    ("multiclass", "softmax", "monk", "binary"),
    ("multiclass", "softmax", "sign", "binary"),
    ("multiclass", "softmax", "label-set", "multilabel"),
])
def test_labels_that_do_not_fit_the_task_exit_1_before_training(
        tmp_path, monkeypatch, capsys, task, loss, dataset, kind):
    from rankedrange import write_csv

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "_train_model", no_training)
    if dataset in _KIND_FILES:
        path = tmp_path / f"{dataset}.csv"
        write_csv(_KIND_FILES[dataset](), path)
        dataset = str(path)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"task = {task}\nloss = {loss}\ndataset = {dataset}\n"
                        "split = 0.7,0.3\nblobs.n = 30\nml.n = 30\n")
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'task'" in err and repr(dataset) in err and f"{kind} labels" in err


def test_lr_trains_the_per_label_logistic_spec_on_the_full_batch(monkeypatch):
    # train.batch is 1 by default; the baseline is full-batch descent
    train, calls = cli.sgd_average_train, []

    def recording(data, spec, config):
        calls.append((type(spec).__name__, config.batch))
        return train(data, spec, config)

    monkeypatch.setattr(cli, "sgd_average_train", recording)
    run_experiment(parse_config(_MULTILABEL + "aggregate = lr\n"
                                "train.outer_epochs = 3\n"))
    assert calls == [("MultilabelLogisticLoss", 0)]


def test_split_part_without_rows_exits_1_before_training(tmp_path, monkeypatch,
                                                         capsys):
    import rankedrange.cli as cli
    from rankedrange import gen_multiclass_blobs, write_csv

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "sgd_average_train", no_training)
    data_path = tmp_path / "twenty.csv"
    write_csv(gen_multiclass_blobs(20, 3, 3, seed=0), data_path)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(f"task = multiclass\nloss = softmax\n"
                        f"dataset = {data_path}\nsplit = 0.98, 0.02\n")
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'split'" in err and "part 1 (fraction 0.02)" in err
    assert "n=20" in err


@pytest.mark.parametrize("name, body, line", [
    ("empty.csv", b"\n\n", 0),
    ("header-only.csv", b"\n\nlabel,f0\n\n", 3),
    ("latin-1.csv", b"label,f0\n1,0.5\n-1,\xe90.5\n", 3),
    ("empty.svm", b"\n", 0),
    ("latin-1.svm", b"1 1:0.5\n-1 1:\xe9\n", 2),
], ids=["empty-csv", "header-only-csv", "latin-1-csv", "empty-libsvm",
        "latin-1-libsvm"])
def test_unusable_data_files_exit_2_at_their_line(tmp_path, capsys, name,
                                                  body, line):
    path = tmp_path / name
    path.write_bytes(body)
    fmt = "libsvm" if name.endswith(".svm") else "csv"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN.replace("synthetic", str(path))
                        + f"format = {fmt}\n")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    assert f"{path}:{line}: " in capsys.readouterr().err


_MODEL = ("format_version = 1\nl = 1\nd = 2\nloss_kind = logistic\nk = 0\n"
          "m = 0\nkprime = 0\nweights = 1.0 -1.0\nbias = 0.5\n")


@pytest.mark.parametrize("old, new, where", [
    ("l = 1", "l = one", "model:2"),
    ("kprime = 0", "kprime = 0.5", "model:7"),
    ("-1.0", "nan", "model:8"),
    ("bias = 0.5", "bias = x", "model:9"),
    ("logistic", "logistic\xe9", "model:4"),
    ("d = 2\n", "d = 3\n", "model:8"),
    ("d = 2\n", "d = 3\n", None),
], ids=["l", "kprime", "nan-weight", "bias", "latin-1", "weight-count",
        "data-d"])
def test_eval_unusable_model_or_data_exits_2(tmp_path, capsys, old, new,
                                             where):
    text = _MODEL.replace(old, new)
    if where is None:  # a valid d = 3 model, for data with two features
        text = text.replace("1.0 -1.0", "1.0 -1.0 2.0")
    model_path, data_path = tmp_path / "model", tmp_path / "data"
    model_path.write_bytes(text.encode("latin-1"))
    data_path.write_text("label,f0,f1\n1,0.5,1.0\n-1,2.0,0.0\n")
    assert main(["eval", "--model", str(model_path),
                 "--data", str(data_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{tmp_path / (where or 'data:0')}: " in err


def test_internal_value_error_is_not_a_data_error(tmp_path, monkeypatch):
    # a ValueError that no input check raised is a bug: it propagates with
    # its traceback, and never reads as exit 2
    def broken(*args, **kwargs):
        raise ValueError("a bug in the trainer")

    monkeypatch.setattr(cli, "sgd_average_train", broken)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN)
    with pytest.raises(ValueError, match="a bug in the trainer"):
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path)])


def test_main_non_finite_feature_is_data_error(tmp_path):
    data_path = tmp_path / "nan.csv"
    data_path.write_text("label,f0\n1,0.5\n-1,nan\n1,1.5\n-1,-0.5\n")
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN.replace("synthetic", str(data_path)))
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_file_dataset_loaded_once_per_experiment(tmp_path, monkeypatch):
    import rankedrange.cli as cli
    from rankedrange import SyntheticSpec, gen_synthetic, write_csv

    data_path = tmp_path / "synth.csv"
    write_csv(gen_synthetic(SyntheticSpec(seed=0)), data_path)
    cfg = parse_config(_RUN.replace("synthetic", str(data_path)) + "repeats = 3\n")
    # one byte per load, appended to a file: repeats may run in forked
    # processes, which do not share an in-process list
    calls = tmp_path / "loads"
    calls.write_bytes(b"")
    load = cli.load_dataset

    def counting_load(*args):
        with open(calls, "ab") as fh:
            fh.write(b".")
        return load(*args)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    run_experiment(cfg, str(tmp_path / "shared"), "r")
    assert len(calls.read_bytes()) == 1
    # the same experiment with the file loaded again on every repeat
    monkeypatch.setitem(cli._GENERATORS, str(data_path),
                        lambda cfg, seed: cli.load_dataset(cfg.dataset, cfg.format))
    run_experiment(cfg, str(tmp_path / "each"), "r")
    assert len(calls.read_bytes()) == 4
    for name in ("r.json", "r.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "each" / name).read_bytes()


def test_restarts_apply_to_every_ranked_range():
    # restarts used to be ignored by every aggregate but aorr
    text = _RUN + ("aggregate = atk\ntrain.k = 20\ntrain.batch = 1\n"
                   "train.inner_epochs = 50\nsplit = 0.5,0.25,0.25\n"
                   "base_seed = 1\n")
    runs = [run_experiment(parse_config(text + f"restarts = {restarts}\n"))
            ["runs"] for restarts in (1, 3)]
    assert json.dumps(runs[0], sort_keys=True) != \
        json.dumps(runs[1], sort_keys=True)


def test_the_first_best_candidate_wins(monkeypatch):
    # a candidate's model is its TrainConfig here, and its metric table is
    # looked up by (seed, m, k)
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "dca_train", lambda data, spec, config,
                        validation_data=None: TrainReport(config, [], []))
    monkeypatch.setattr(cli, "tkml_aorr_train", lambda data, config, start:
                        TrainReport(config, [], []))
    monkeypatch.setattr(cli, "tkml_warm_start", lambda data, config: None)
    tables, scored = {}, []

    def evaluate(model, rows, k, topk):
        scored.append(rows)
        return tables[model.seed, model.m, model.k]

    monkeypatch.setattr(cli, "_evaluate", evaluate)
    # binary restarts 100..103 by least error: 101 and 102 tie
    binary = parse_config("task = binary\naggregate = aorr\ntrain.m = 1\n"
                          "train.k = 5\nsplit = 0.5,0.25,0.25\nrestarts = 4\n")
    tr, va, te = split_dataset(gen_synthetic(SyntheticSpec(seed=1)),
                               binary.split, seed=0)
    for seed, err in zip(range(100, 104), (0.3, 0.1, 0.1, 0.2)):
        tables[seed, 1, 5] = {"error": err, "accuracy": 1.0 - err}
    report, _ = cli._train_model(binary, tr, va, 1, holdout=te)
    assert report.model.seed == 101
    assert scored == [va] * 4
    # multilabel grid cells by top accuracy, on the test part when there is
    # no validation part: (1, 9) and (2, 5) tie
    grid = parse_config("task = multilabel\nloss = tkml\naggregate = tkml_aorr\n"
                        "grid.m = 1,2\ngrid.k = 5,9\nsplit = 0.7,0.3\n")
    tr, te = split_dataset(gen_multilabel_synthetic(60, 3, 4, seed=1),
                           grid.split, seed=0)
    for (m, k), acc in zip(((1, 5), (1, 9), (2, 5), (2, 9)),
                           (0.5, 0.7, 0.7, 0.6)):
        tables[1, m, k] = {"topk_accuracy": acc, "average_precision": 1.0}
    scored.clear()
    report, extras = cli._train_model(grid, tr, None, 1, holdout=te)
    assert (report.model.m, report.model.k) == (1, 9)
    assert extras["grid_choice"] == {"m": 1, "k": 9}
    assert scored == [te] * 4
    # a lone candidate is not scored
    scored.clear()
    cli._train_model(dataclasses.replace(grid, grid_m=(1,), grid_k=(5,)),
                     tr, None, 1, holdout=te)
    assert scored == []


def test_eval_reports_the_train_metric_table(tmp_path, capsys):
    # eval printed error and topk_accuracy for a softmax model at --k 1,
    # where a train report holds error and accuracy
    from rankedrange import LinearModel, load_dataset, load_model, save_model, \
        write_csv
    import numpy as np

    data_path, model_path = tmp_path / "blobs.csv", tmp_path / "model.txt"
    write_csv(gen_multiclass_blobs(60, 3, 4, seed=2), data_path)
    rng = np.random.default_rng(3)
    save_model(LinearModel(weights=rng.standard_normal((4, 3)),
                           bias=rng.standard_normal(4),
                           meta={"loss_kind": "softmax"}), model_path)
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--k", "1"]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert sorted(printed) == ["accuracy", "error"]
    assert printed == cli._evaluate(
        load_model(model_path), load_dataset(str(data_path), "csv", l=4), 1,
        False)


# --- repeats and grid cells on forked processes ----------------------------

def _cpus(monkeypatch, count):
    """Make this process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


_needs_openblas = pytest.mark.skipif(
    cli._openblas_threads() is None,
    reason="no OpenBLAS thread setter, so every map runs serially")

_GRID = ("task = multilabel\nloss = tkml\naggregate = tkml_aorr\n"
         "dataset = multilabel-synth\nsplit = 0.6,0.2,0.2\nml.n = 200\n"
         "ml.d = 8\nml.l = 5\neval_k = 2\ngrid.m = 10,20\ngrid.k = 60,90\n"
         "train.kprime = 2\ntrain.outer_epochs = 30\n"
         "train.warmup_epochs = 10\ntrain.batch = 0\n")
_DCA_REPEATS = _RUN + "aggregate = aorr\ntrain.m = 2\ntrain.k = 20\nrepeats = 3\n"
_DCA_RESTARTS = _RUN + ("aggregate = aorr\ntrain.m = 2\ntrain.k = 20\n"
                        "split = 0.5,0.25,0.25\nrestarts = 3\n")


@pytest.mark.parametrize("text", [_GRID, _GRID + "restarts = 3\n",
                                  _DCA_REPEATS, _DCA_RESTARTS],
                         ids=["tkml_aorr-grid", "tkml_aorr-grid-restarts",
                              "dca-repeats", "dca-restarts"])
def test_reports_do_not_depend_on_cpu_count(tmp_path, monkeypatch, text):
    cfg = parse_config(text)
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        run_experiment(cfg, str(tmp_path / str(cpus)), "r")
    for name in ("r.json", "r.csv"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


@_needs_openblas
def test_ordered_map_returns_items_in_order(monkeypatch):
    _cpus(monkeypatch, 2)
    out = cli._ordered_map(lambda x: (x * x, os.getpid()), range(5))
    assert [value for value, _ in out] == [0, 1, 4, 9, 16]
    # the caller runs items 0, 2 and 4, one forked worker items 1 and 3
    pids = [pid for _, pid in out]
    assert pids[0] == pids[2] == pids[4] == os.getpid()
    assert pids[1] == pids[3] != os.getpid()


def test_ordered_map_on_one_cpu_stays_in_process(monkeypatch):
    _cpus(monkeypatch, 1)
    assert cli._ordered_map(lambda x: os.getpid(), range(3)) == [os.getpid()] * 3


def test_nested_ordered_map_runs_serially(monkeypatch):
    _cpus(monkeypatch, 2)
    out = cli._ordered_map(
        lambda x: (os.getpid(), cli._ordered_map(lambda y: os.getpid(),
                                                 range(3))), range(2))
    for pid, inner in out:
        assert inner == [pid] * 3


@_needs_openblas
def test_ordered_map_restores_blas_threads(monkeypatch):
    get_threads, set_threads = cli._openblas_threads()
    _cpus(monkeypatch, 2)
    original = get_threads()
    set_threads(2)
    try:
        before = get_threads()
        inside = cli._ordered_map(lambda x: get_threads(), range(2))
        assert inside == [1, 1]
        assert get_threads() == before
    finally:
        set_threads(original)


# d = 200 is large enough for OpenBLAS to split the products over two
# threads, and so to round differently from one thread
_WIDE = ("task = multiclass\nloss = softmax\ndataset = blobs\n"
         "split = 0.6,0.2,0.2\nblobs.n = 1300\nblobs.d = 200\nblobs.l = 10\n"
         "blobs.sep = 4.0\ntrain.eta_outer = 0.4\ntrain.outer_epochs = 30\n"
         "train.batch = 0\n")


@_needs_openblas
def test_reports_do_not_depend_on_repeat_count_or_blas_threads(monkeypatch):
    # a 1-repeat map runs serially, a 2-repeat one on two processes; both
    # must hold OpenBLAS at one thread, whatever the caller set
    get_threads, set_threads = cli._openblas_threads()
    _cpus(monkeypatch, 2)
    original = get_threads()
    set_threads(2)
    try:
        runs = [run_experiment(parse_config(_WIDE + f"repeats = {repeats}\n"))
                ["runs"][0] for repeats in (1, 2)]
    finally:
        set_threads(original)
    assert json.dumps(runs[0], sort_keys=True) == \
        json.dumps(runs[1], sort_keys=True)


@_needs_openblas
def test_every_command_runs_at_one_blas_thread(monkeypatch):
    get_threads, set_threads = cli._openblas_threads()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "eval",
                        lambda args: seen.append(get_threads()) or EXIT_OK)
    original = get_threads()
    set_threads(2)
    try:
        assert main(["eval", "--model", "m.txt", "--data", "d.csv"]) == EXIT_OK
        assert get_threads() == 2
    finally:
        set_threads(original)
    assert seen == [1]


@_needs_openblas
def test_ordered_map_raises_a_worker_error_in_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)

    def fail_in_worker(x):
        if x == 1:  # item 1 of 3 runs in the forked worker
            raise ConfigError("train.k", "raised in a worker")
        return x

    with pytest.raises(ConfigError) as exc:
        cli._ordered_map(fail_in_worker, range(3))
    assert exc.value.key == "train.k"
    assert str(exc.value) == "config key 'train.k': raised in a worker"


def test_ordered_map_raises_the_first_error_in_item_order(monkeypatch):
    _cpus(monkeypatch, 2)

    def fail(x):
        if x:
            raise TrainingDiverged(x)
        return x

    with pytest.raises(TrainingDiverged) as exc:
        cli._ordered_map(fail, range(4))
    assert exc.value.epoch == 1


@pytest.mark.parametrize("error, attr, value", [
    (ConfigError("k", "m"), "key", "k"),
    (DataParseError("data.csv", 3, "x"), "lineno", 3),
    (TrainingDiverged(7), "epoch", 7),
    (ModelParseError("model.txt", 2, "y"), "lineno", 2),
    (LabelError(4, "label 3 outside 1..2"), "row", 4),
], ids=["ConfigError", "DataParseError", "TrainingDiverged", "ModelParseError",
        "LabelError"])
def test_errors_survive_pickling(error, attr, value):
    # a worker's error reaches the caller pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, attr) == value


def test_eval_rejects_labels_the_model_cannot_score(tmp_path):
    data_path = tmp_path / "three.csv"
    data_path.write_text("label,f0,f1\n1,0.5,1.0\n2,2.0,0.0\n3,1.5,-1.0\n")
    from rankedrange import LinearModel, save_model
    import numpy as np
    model_path = tmp_path / "binary.txt"
    save_model(LinearModel(weights=np.array([[1.0, 0.0]]),
                           bias=np.array([0.0])), model_path)
    assert main(["eval", "--model", str(model_path),
                 "--data", str(data_path)]) == EXIT_DATA


@pytest.mark.parametrize("args", [
    ["--mode", "asymmetric_map", "--p", "0.1", "--map", "1:x"],
    ["--mode", "asymmetric_map", "--p", "0.1"],  # no --map
    ["--p", "1.5"],
])
def test_noise_argument_errors_exit_1(tmp_path, args):
    data_path = tmp_path / "synth.csv"
    assert main(["gen-synth", "--out", str(data_path)]) == EXIT_OK
    assert main(["noise", "--data", str(data_path),
                 "--out", str(tmp_path / "n.csv")] + args) == EXIT_USAGE


def test_gen_synth_noise_eval_pipeline(tmp_path, capsys):
    data_path = tmp_path / "synth.csv"
    assert main(["gen-synth", "--out", str(data_path), "--seed", "1"]) == EXIT_OK
    noisy_path = tmp_path / "noisy.csv"
    assert main(["noise", "--data", str(data_path), "--out", str(noisy_path),
                 "--p", "0.1", "--seed", "2"]) == EXIT_OK
    # train on the clean file, then score it with the eval command
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"task = binary\naggregate = average\ndataset = {data_path}\n"
        "split = 0.7,0.3\ntrain.eta_outer = 0.5\ntrain.outer_epochs = 200\n"
        "train.batch = 0\n")
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    # persist a trivial model by hand for the eval round-trip
    from rankedrange import LinearModel, save_model
    import numpy as np
    model_path = tmp_path / "model.txt"
    save_model(LinearModel(weights=np.array([[1.0, 0.0]]),
                           bias=np.array([0.0])), model_path)
    capsys.readouterr()
    assert main(["eval", "--model", str(model_path),
                 "--data", str(data_path)]) == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["error"] <= 1.0


def test_noise_command_counts_changed_labels(tmp_path, capsys):
    # the 1:1 entry selects rows of class 1 but leaves their labels
    from rankedrange import load_dataset

    data_path, noisy_path = tmp_path / "blobs.csv", tmp_path / "noisy.csv"
    assert main(["gen-synth", "--out", str(data_path), "--kind", "blobs",
                 "--n", "300", "--d", "2", "--l", "3"]) == EXIT_OK
    capsys.readouterr()
    assert main(["noise", "--data", str(data_path), "--out", str(noisy_path),
                 "--mode", "asymmetric_map", "--map", "1:1,2:3", "--p", "0.5",
                 "--seed", "4"]) == EXIT_OK
    clean, noisy = load_dataset(data_path), load_dataset(noisy_path)
    changed = int((clean.labels != noisy.labels).sum())
    assert changed > 0
    assert capsys.readouterr().out.strip() == \
        f"wrote {noisy_path} ({changed} labels flipped)"


def test_auto_aorr_true_flips_count_changed_training_labels():
    text = ("task = multiclass\nloss = softmax\naggregate = auto_aorr\n"
            "dataset = blobs\nsplit = 0.6,0.2,0.2\nblobs.n = 150\n"
            "blobs.d = 3\nblobs.l = 3\ntrain.outer_epochs = 1\n"
            "train.inner_epochs = 2\ntrain.warmup_epochs = 2\n")
    noise = ("noise.mode = asymmetric_map\nnoise.map = 1:1,2:3\n"
             "noise.p = 0.5\nnoise.seed = 7\n")
    cfg = parse_config(text + noise)
    run = run_experiment(cfg)["runs"][0]
    train = split_dataset(cli._GENERATORS["blobs"](cfg, cfg.base_seed),
                          cfg.split, seed=cfg.base_seed)[0]
    noisy = cli.inject_noise(train, dataclasses.replace(
        cfg.noise, seed=cfg.noise.seed + cfg.base_seed))
    assert run["true_flips"] == int((train.labels != noisy.labels).sum()) > 0
    assert "true_flips" not in run_experiment(parse_config(text))["runs"][0]


def test_sweep_range_parsing():
    assert _parse_range("1:5") == [1, 2, 3, 4, 5]
    assert _parse_range("0:10:5") == [0, 5, 10]
    with pytest.raises(ConfigError):
        _parse_range("5:1")
    with pytest.raises(ConfigError):
        _parse_range("a:b")


def test_sweep_range_steps_in_decimal():
    assert _parse_range("0:1:0.1") == [i / 10 for i in range(11)]
    assert _parse_range("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    for text in ("0:inf", "nan:1"):
        with pytest.raises(ConfigError):
            _parse_range(text)


def test_sweep_command(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "task = binary\naggregate = atk\ndataset = synthetic\n"
        "split = 0.7,0.3\ntrain.k = 2\ntrain.batch = 0\n"
        "train.eta_inner = 0.005\ntrain.outer_epochs = 3\n"
        "train.inner_epochs = 300\n")
    assert main(["sweep", "--config", str(cfg_path), "--param", "k",
                 "--range", "2:6:2", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep_k.csv").read_text().splitlines()
    assert lines[0].startswith("k,")
    assert len(lines) == 4


def test_sweep_any_key(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN + "aggregate = atk\ntrain.k = 2\n")
    assert main(["sweep", "--config", str(cfg_path), "--param",
                 "synth.outliers", "--range", "0:2:2",
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep_synth.outliers.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["synth.outliers", "0", "2"]


@pytest.mark.parametrize("param, range_", [
    ("k", "2:3:0.5"),  # a non-integral value for an int key
    ("p", "0.1:0.2:0.1"),  # no noise.mode in the config
    ("k", "2:1000:997"),  # k = 999 exceeds the 140 training rows
    ("bogus", "1:2"),
])
def test_sweep_config_errors_exit_1(tmp_path, param, range_):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN + "aggregate = atk\ntrain.k = 2\n")
    assert main(["sweep", "--config", str(cfg_path), "--param", param,
                 "--range", range_, "--out", str(tmp_path)]) == EXIT_USAGE


def test_registry_names_complete():
    assert set(REPRO_REGISTRY) == {
        "table3", "table5", "table6", "table7", "table8", "table10",
        "table11", "fig4", "fig5", "fig6", "fig8", "fig9"}


# header and first row of each table, with every report stubbed to mean 0.5,
# std 0.25, 12 true flips and an estimate of 10
_REPRO_TABLES = {
    "table3": ("aggregate,error_mean_pct,error_std_pct,reference_pct",
               "maximum,50,25,22.41", 4),
    "table5": ("aggregate,noise_p,accuracy_pct,reference_pct",
               "average,0.2,50,89.69", 6),
    "table6": ("noise_p,ground_truth,estimate,reference_truth,"
               "reference_estimate", "0.2,12,10,10000,11722", 3),
    "table7": ("method,k,topk_accuracy_pct,reference_pct", "lr,1,50,73.54", 6),
    "table8": ("method,average_precision_pct,reference_pct", "lr,50,74.85", 2),
    "table10": ("noise_p,top1_accuracy_pct,reference_pct,"
                "reference_baseline_pct", "0.2,50,83.06,78.33", 3),
    "table11": ("aggregate,topk_accuracy_pct,reference_pct",
                "average,50,33.78", 3),
    "fig4": ("aggregate,error_mean_pct,error_std_pct", "average,50,25", 4),
    "fig5": ("aggregate,error_mean_pct,error_std_pct", "average,50,25", 4),
    "fig6": ("m,error_mean_pct", "0,50", 7),
    "fig8": ("k,topk_accuracy_pct", "1,50", 5),
    "fig9": ("m,topk_accuracy_pct", "0,50", 5),
}


@pytest.fixture
def stub_runs(monkeypatch):
    """Replace training in the repro driver; returns the (name, config) of
    each run."""
    import rankedrange.cli as cli

    runs = []

    def run(cfg, out_dir=None, name="experiment", reference=None):
        runs.append((name, cfg))
        stats = {"mean": 0.5, "std": 0.25}
        return {"aggregates": dict.fromkeys(
                    ("error", "accuracy", "topk_accuracy",
                     "average_precision"), stats),
                "runs": [{"true_flips": 12, "noise_estimate": 10}] * cfg.repeats}

    monkeypatch.setattr(cli, "run_experiment", run)
    return runs


@pytest.mark.parametrize("name", sorted(_REPRO_TABLES))
def test_repro_entry_writes_its_table(tmp_path, stub_runs, name):
    assert main(["repro", name, "--out", str(tmp_path)]) == EXIT_OK
    header, first, count = _REPRO_TABLES[name]
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines[0] == header
    assert lines[1] == first
    assert len(lines) == 1 + count
    assert stub_runs == repro_configs(name)


def test_repro_runs_several_names(tmp_path, stub_runs):
    assert main(["repro", "table3", "fig4", "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig4.csv",
                                                          "table3.csv"]
    assert len(stub_runs) == 8
    # every name is checked before anything runs
    assert main(["repro", "fig5", "no-such-table",
                 "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert len(stub_runs) == 8 and not (tmp_path / "x").exists()


def test_repro_size_and_real_data_lines(tmp_path, stub_runs, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for args, n in (([], 13000), (["--subsample", "500"], 650),
                    (["--full"], 78000)):
        stub_runs.clear()
        assert main(["repro", "table10", "--out", "out"] + args) == EXIT_OK
        assert {cfg.blobs_n for _, cfg in stub_runs} == {n}
    assert {cfg.dataset for _, cfg in repro_configs("table5")} == {"blobs"}
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "mnist.csv").write_text("label,f0\n1,0.5\n")
    assert {cfg.dataset for _, cfg in repro_configs("table5")} == \
        {"data/mnist.csv"}
    assert {cfg.dataset for _, cfg in repro_configs("table7")} == \
        {"multilabel-synth"}


# small valid runs; each row of _CONFIG_ERRORS appends the lines that break
# one, and a later line overrides an earlier one
_BINARY = "task = binary\ndataset = synthetic\nsplit = 0.7,0.3\ntrain.batch = 0\n"
_BLOBS3 = ("task = multiclass\nloss = softmax\ndataset = blobs\n"
           "split = 0.7,0.3\nblobs.n = 60\nblobs.d = 2\nblobs.l = 3\n")
_ML6 = ("task = multilabel\nloss = tkml\naggregate = tkml\n"
        "dataset = multilabel-synth\nsplit = 0.7,0.3\nml.n = 60\nml.d = 3\n"
        "ml.l = 6\n")
_SYMMETRIC = "noise.mode = symmetric\nnoise.p = 0.2\n"

# (config text, or command line after the command, expected key); {data} is
# a 4-class CSV and {model} a 4-label model that scores it
_CONFIG_ERRORS = {
    "noise.map-vs-labels": (_BLOBS3 + "noise.mode = asymmetric_map\n"
                            "noise.p = 0.5\nnoise.map = 1:9\n", "noise.map"),
    "multilabel-noise-on-binary": (_BINARY + "noise.mode = multilabel_symmetric\n"
                                   "noise.p = 0.2\n", "noise.mode"),
    "format": ("task = multiclass\nloss = softmax\ndataset = {data}\n"
               "format = xml\nsplit = 0.5,0.5\n", "format"),
    "train.C": (_BINARY + "train.C = 0\n", "train.C"),
    "train.eta_outer": (_BINARY + "train.eta_outer = -0.1\n", "train.eta_outer"),
    "train.eta_inner": (_BINARY + "train.eta_inner = 0\n", "train.eta_inner"),
    # unused by an average run, so a NaN rate used to train silently
    "train.eta_inner-nan": (_BINARY + "train.eta_inner = nan\n",
                            "train.eta_inner"),
    "train.outer_epochs": (_BINARY + "train.outer_epochs = 0\n",
                           "train.outer_epochs"),
    "train.inner_epochs": (_BINARY + "train.inner_epochs = -1\n",
                           "train.inner_epochs"),
    "train.batch": (_BINARY + "train.batch = -1\n", "train.batch"),
    "noise.p": (_BINARY + _SYMMETRIC + "noise.p = 2\n", "noise.p"),
    "noise-mode-without-p": (_BINARY + "noise.mode = symmetric\n", "noise.p"),
    # an unknown mode is named before the missing p
    "noise-mode-unknown-without-p": (_BINARY + "noise.mode = bogus\n",
                                     "noise.mode"),
    "synth.outliers": (_BINARY + "synth.outliers = 50\n", "synth.outliers"),
    "blobs.n": (_BLOBS3 + "blobs.n = 0\n", "blobs.n"),
    "blobs.d": (_BLOBS3 + "blobs.d = 0\n", "blobs.d"),
    "ml.d": (_ML6 + "ml.d = 0\n", "ml.d"),
    "ml.min": (_ML6 + "ml.min = 0\n", "ml.min"),
    "ml.max-vs-ml.l": (_ML6 + "ml.max = 6\n", "ml.max"),
    "ml.max-below-ml.min": (_ML6 + "ml.min = 3\nml.max = 2\n", "ml.max"),
    "blobs.l": (_BLOBS3 + "blobs.l = 1\n", "blobs.l"),
    "gen-synth-outliers": (["gen-synth", "--outliers", "50"], "synth.outliers"),
    # wrote labels that all read 1, which load back as binary data
    "gen-synth-blobs-l": (["gen-synth", "--kind", "blobs", "--l", "1"], "--l"),
    "gen-synth-blobs-n": (["gen-synth", "--kind", "blobs", "--n", "0"], "--n"),
    # the generator's label sets hold up to 3 labels
    "gen-synth-multilabel-l": (["gen-synth", "--kind", "multilabel",
                                "--l", "3"], "--l"),
    # a flag that the kind does not read was ignored
    "gen-synth-synthetic-n": (["gen-synth", "--n", "0", "--l", "1"], "--n"),
    "gen-synth-synthetic-l": (["gen-synth", "--kind", "synthetic", "--l", "5"],
                              "--l"),
    "gen-synth-blobs-outliers": (["gen-synth", "--kind", "blobs",
                                  "--outliers", "5"], "--outliers"),
    "gen-synth-multilabel-imbalanced": (["gen-synth", "--kind", "multilabel",
                                         "--imbalanced"], "--imbalanced"),
    "eval-k": (["eval", "--model", "{model}", "--data", "{data}", "--k", "9"],
               "--k"),
    # guards: these exited 1 at their key before the checks moved
    "train.kprime": (_ML6 + "train.kprime = 9\n", "train.kprime"),
    "split": (_BINARY + "split = 0.999,0.001\n", "split"),
    # restarts were ignored by the aggregates that train one model
    "restarts-average": (_BINARY + "split = 0.5,0.25,0.25\nrestarts = 3\n",
                         "restarts"),
    "restarts-auto_aorr": (_BINARY + "aggregate = auto_aorr\n"
                           "split = 0.5,0.25,0.25\nrestarts = 3\n", "restarts"),
    "restarts-lr": (_ML6 + "aggregate = lr\nsplit = 0.5,0.25,0.25\n"
                    "restarts = 3\n", "restarts"),
}


@pytest.mark.parametrize("row", sorted(_CONFIG_ERRORS))
def test_config_errors_exit_1_at_their_key(tmp_path, capsys, row):
    from rankedrange import LinearModel, save_model
    import numpy as np

    given, key = _CONFIG_ERRORS[row]
    paths = {"data": tmp_path / "four.csv", "model": tmp_path / "model.txt"}
    paths["data"].write_text("label,f0,f1\n1,0.5,1.0\n2,2.0,0.0\n3,1.5,-1.0\n"
                             "4,0.0,0.5\n")
    save_model(LinearModel(weights=np.ones((4, 2)), bias=np.zeros(4)),
               paths["model"])
    if isinstance(given, str):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(given.format(**paths))
        argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path)]
    else:
        argv = [arg.format(**paths) for arg in given]
        if argv[0] == "gen-synth":
            argv += ["--out", str(tmp_path / "synth.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert f"config key {key!r}" in capsys.readouterr().err


# runs whose inner steps overflow, so each trainer's losses go non-finite,
# and the epoch that reports it
_DIVERGED = {
    # the third step's losses are non-finite; checked only on the every-10th
    # objective pass, they were reported at epoch 9
    "tkml_aorr": (_ML6 + ("aggregate = tkml_aorr\ngrid.m = 1,2\n"
                          "grid.k = 20,30\ntrain.batch = 0\n"
                          "train.warmup_epochs = 5\ntrain.outer_epochs = 20\n"),
                  2),
    "aorr": (_BINARY + ("aggregate = aorr\ntrain.m = 2\ntrain.k = 50\n"
                        "train.outer_epochs = 3\ntrain.inner_epochs = 20\n"),
             0),
    "auto_aorr": (_BINARY + ("aggregate = auto_aorr\nsplit = 0.5,0.25,0.25\n"
                             "train.warmup_epochs = 5\n"
                             "train.outer_epochs = 3\ntrain.inner_epochs = 20\n"),
                  0),
}


@pytest.mark.parametrize("aggregate", sorted(_DIVERGED))
def test_diverged_trainer_exits_3(tmp_path, capsys, aggregate):
    # the non-finite losses used to reach a value-set check first and read
    # as a data error
    import numpy as np

    cfg_path = tmp_path / "exp.cfg"
    text, epoch = _DIVERGED[aggregate]
    cfg_path.write_text(text + "train.eta_inner = 1e300\n")
    capsys.readouterr()
    with np.errstate(all="ignore"):
        status = main(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path)])
    assert status == EXIT_NUMERIC
    assert (f"objective became non-finite at epoch {epoch}\n"
            in capsys.readouterr().err)
