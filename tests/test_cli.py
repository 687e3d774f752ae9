import dataclasses
import itertools
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from rankedrange import (
    DataParseError,
    LabelError,
    ModelParseError,
    NoiseSpec,
    RankedRange,
    SyntheticSpec,
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    cli,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    optim,
    split_dataset,
)
from rankedrange.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
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
grid.m = 1
grid.k = 2
train.batch = 0
train.eta_inner = 0.005
train.outer_epochs = 4
train.inner_epochs = 500
"""


def test_defaults_cover_every_simple_key():
    cfg = parse_config("task = binary")
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in ("noise", "train", "split"):
            assert getattr(cfg, f.name) == f.default or f.name == "task"


def test_parse_config_round_trip_values():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.aggregate == "aorr"
    assert cfg.split == (0.7, 0.3)
    assert cfg.grid_m == (1,) and cfg.grid_k == (2,)
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
    train=TrainConfig(kprime=2, C=0.5, eta_outer=0.2,
                      eta_inner=0.03, outer_epochs=7, inner_epochs=11,
                      warmup_epochs=13, batch=4, patience=6,
                      refresh_every=8, init_scale=0.125))


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
            if f.name in ("noise", "train") or (section, f.name) == ("train",
                                                                      "seed"):
                continue  # train.seed is no key: each run sets its seed
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
    assert len(lines) == 39
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
        parse_config("task = binary\naggregate = aorr\ngrid.k = 5")
    with pytest.raises(ConfigError):
        # threshold-learning mode needs a validation part
        parse_config("task = multiclass\nloss = softmax\n"
                     "aggregate = auto_aorr\nsplit = 0.8,0.2")


def _grid_lines(aggregate):
    """``grid.m = 1`` and ``grid.k = 5``, each line when ``aggregate`` reads
    its key."""
    reads = cli._RANGES.get(aggregate, ({},))[0]
    return "".join(f"{key} = {value}\n" for key, value
                   in (("grid.m", 1), ("grid.k", 5)) if key in reads)


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
    data = {
        "binary": gen_synthetic(SyntheticSpec(seed=1)),
        "multiclass": gen_multiclass_blobs(60, 3, 4, seed=1),
        "multilabel": gen_multilabel_synthetic(60, 3, 4, seed=1),
    }
    reached = set()
    losses = dict.fromkeys(loss for _, loss in cli._TRAINS)
    aggregates = dict.fromkeys(agg for aggs in cli._TRAINS.values()
                               for agg in aggs)
    for task, loss, agg in itertools.product(cli.TASKS, losses, aggregates):
        # no warm start, whose sgd_average_train would stand in for
        # tkml_aorr_train
        text = (f"task = {task}\nloss = {loss}\naggregate = {agg}\n"
                f"{_grid_lines(agg)}train.warmup_epochs = 0\n")
        if agg not in cli._TRAINS.get((task, loss), ()):
            with pytest.raises(ConfigError):
                parse_config(text)
            continue
        cfg = parse_config(text)
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
    assert loaded["config"]["grid_k"] == [2]
    assert "reference" not in loaded
    reference = {"reference_pct": 12.69}
    assert run_experiment(cfg, reference=reference)["reference"] == reference
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


def test_main_usage_errors(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    # a usage error gives its reason, not the usage line alone
    capsys.readouterr()
    assert main(["train"]) == EXIT_USAGE
    assert ("the following arguments are required: --config"
            in capsys.readouterr().err)
    assert main(["train", "--help"]) == EXIT_OK
    assert main(["repro", "no-such-table"]) == EXIT_USAGE


def test_main_data_errors(tmp_path, capsys):
    cfg_path = tmp_path / "missing.cfg"
    cfg_path.write_text("task = binary\ndataset = /nonexistent/file.csv\n"
                        "split = 0.7,0.3\n")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_DATA
    assert "/nonexistent/file.csv" in capsys.readouterr().err
    malformed = tmp_path / "mal.csv"
    malformed.write_text("label,f0\n1,0.5\nnot-a-number,1\n")
    cfg2 = tmp_path / "mal.cfg"
    cfg2.write_text(f"task = binary\ndataset = {malformed}\nsplit = 0.7,0.3\n")
    assert main(["train", "--config", str(cfg2)]) == EXIT_DATA
    assert f"{malformed}:3: " in capsys.readouterr().err


_RUN = ("task = binary\ndataset = synthetic\nsplit = 0.7,0.3\n"
        "train.batch = 0\ntrain.outer_epochs = 1\ntrain.inner_epochs = 5\n")


_MULTILABEL = ("task = multilabel\nloss = tkml\ndataset = multilabel-synth\n"
               "split = 0.7,0.3\nml.n = 40\nml.d = 4\n")  # 6 labels
_MULTICLASS = ("task = multiclass\nloss = softmax\ndataset = blobs\n"
               "split = 0.7,0.3\nblobs.n = 40\nblobs.d = 4\nblobs.l = 3\n")


@pytest.mark.parametrize("text, key", [
    (_MULTILABEL + "aggregate = tkml\ntrain.kprime = 9", "train.kprime"),
    (_MULTILABEL + "aggregate = tkml_aorr\ngrid.m = 1\ntrain.kprime = 9",
     "train.kprime"),
    (_MULTILABEL + "aggregate = tkml\neval_k = 6", "eval_k"),
    (_MULTICLASS + "aggregate = average\neval_k = 4", "eval_k"),
], ids=["tkml-kprime", "tkml_aorr-kprime", "multilabel-eval_k",
        "multiclass-eval_k"])
def test_label_rank_beyond_l_exits_1_before_training(tmp_path, monkeypatch,
                                                      capsys, text, key):
    import rankedrange.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    for trainer in ("dca_train", "sgd_average_train", "tkml_aorr_train"):
        monkeypatch.setattr(cli, trainer, no_training)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"config key {key!r}" in capsys.readouterr().err


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


def _average_runs(monkeypatch, text):
    """(spec class name, batch) of each sgd_average_train call of a run."""
    train, calls = cli.sgd_average_train, []

    def recording(data, spec, config):
        calls.append((type(spec).__name__, config.batch))
        return train(data, spec, config)

    monkeypatch.setattr(cli, "sgd_average_train", recording)
    run_experiment(parse_config(text))
    return calls


def test_lr_trains_the_per_label_logistic_spec_on_the_full_batch(monkeypatch):
    assert _average_runs(monkeypatch, _MULTILABEL + "loss = multilabel_lr\n"
                         "aggregate = average\ntrain.outer_epochs = 3\n"
                         "train.batch = 0\n") == \
        [("MultilabelLogisticLoss", 0)]


def test_average_on_the_tkml_loss_trains_at_train_batch(monkeypatch):
    # the tkml loss's average and lr runs trained on the full batch,
    # whatever train.batch said
    assert _average_runs(monkeypatch, _MULTILABEL + "aggregate = average\n"
                         "train.outer_epochs = 3\ntrain.batch = 4\n") == \
        [("TKMLSampleLoss", 4)]


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
    # a lone CR ends a line, as the parsers count lines
    ("cr-latin-1.csv", b"label,f0\r1,0.5\r-1,\xff\r", 3),
    ("cr-latin-1.svm", b"1 1:0.5\r-1 1:\xe9\r", 2),
], ids=["empty-csv", "header-only-csv", "latin-1-csv", "empty-libsvm",
        "latin-1-libsvm", "cr-latin-1-csv", "cr-latin-1-libsvm"])
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
    ("-1.0", "nan", "model:8"),
    ("bias = 0.5", "bias = x", "model:9"),
    ("bias = 0.5", "bias = nan", "model:9"),
    ("bias = 0.5", "bias = -inf", "model:9"),
    ("logistic", "logistic\xe9", "model:4"),
    ("d = 2\n", "d = 3\n", "model:8"),
    ("d = 2\n", "d = 3\n", None),
    ("l = 1", "l 1", "model:2"),
], ids=["l", "nan-weight", "bias", "nan-bias", "inf-bias", "latin-1",
        "weight-count", "data-d", "no-equals"])
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


def test_eval_densifies_libsvm_rows_to_the_model_d(tmp_path, capsys):
    # LIBSVM leaves out zero features: a file whose highest index is 2 was
    # read as d = 2 and refused by a d = 3 model
    text = _MODEL.replace("d = 2\n", "d = 3\n").replace("1.0 -1.0",
                                                       "1.0 -1.0 2.0")
    model_path = tmp_path / "model"
    model_path.write_text(text)
    sparse, dense = tmp_path / "e.svm", tmp_path / "e.csv"
    sparse.write_text("1 1:0.5 2:1.0\n-1 1:2.0\n1 2:-1.5\n")
    dense.write_text("label,f0,f1,f2\n1,0.5,1.0,0\n-1,2.0,0,0\n1,0,-1.5,0\n")
    tables = []
    for path, fmt in ((sparse, "libsvm"), (dense, "csv")):
        assert main(["eval", "--model", str(model_path), "--data", str(path),
                     "--format", fmt]) == EXIT_OK
        tables.append(json.loads(capsys.readouterr().out))
    assert tables[0] == tables[1]
    # an index above the model's d is still a data error, at its line
    sparse.write_text("1 1:0.5 2:1.0\n-1 4:2.0\n")
    assert main(["eval", "--model", str(model_path), "--data", str(sparse),
                 "--format", "libsvm"]) == EXIT_DATA
    assert f"{sparse}:2: feature index 4 is above d=3" in capsys.readouterr().err


def test_internal_value_error_is_not_a_data_error(tmp_path, monkeypatch,
                                                  capsys):
    # a ValueError that no input check raised is a bug: it is a crash, with
    # its traceback, and never reads as exit 2
    def broken(*args, **kwargs):
        raise ValueError("a bug in the trainer")

    monkeypatch.setattr(cli, "sgd_average_train", broken)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN)
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == cli.EXIT_CRASH
    assert "ValueError: a bug in the trainer" in capsys.readouterr().err


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


def _binary_csv(path, n, d):
    """A binary CSV of n rows of d normal features."""
    import numpy as np
    from rankedrange import Dataset, write_csv

    rng = np.random.default_rng(6)
    X = rng.standard_normal((n, d))
    y = np.where(X[:, 0] + rng.standard_normal(n) > 0, 1, -1)
    write_csv(Dataset(X, y, 1), path)
    return path


@pytest.mark.parametrize("source, repeats, alive", [
    ("load_dataset", 1, [False]),
    ("_generate", 1, [False]),
    # two serial repeats share one load: repeat 1 still needs it while
    # repeat 0 trains, and nothing needs it while repeat 1 trains
    ("load_dataset", 2, [True, False]),
], ids=["csv", "generated", "csv-two-repeats"])
def test_dataset_is_dropped_before_training(tmp_path, monkeypatch, source,
                                            repeats, alive):
    # a repeat trains on its z-scored parts alone: the loaded or generated
    # dataset is gone once no later repeat in the process needs it
    import weakref

    _cpus(monkeypatch, 1)
    text = _RUN + f"repeats = {repeats}\n"
    if source == "load_dataset":
        text = text.replace("synthetic", str(_binary_csv(tmp_path / "r.csv", 60, 3)))
    refs, seen = [], []
    make, train = getattr(cli, source), cli.sgd_average_train

    def watched(*args):
        data = make(*args)
        refs.append(weakref.ref(data))
        return data

    def watching_train(*args, **kwargs):
        seen.append(refs[-1]() is not None)
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, source, watched)
    monkeypatch.setattr(cli, "sgd_average_train", watching_train)
    run_experiment(parse_config(text))
    assert len(refs) == 1
    assert seen == alive


def test_training_holds_one_copy_of_the_rows(tmp_path, monkeypatch):
    # at trainer start the traced memory is the z-scored parts and little
    # else; the loaded matrix beside them would make it about twice that
    import tracemalloc

    data_path = _binary_csv(tmp_path / "rows.csv", 4000, 50)
    feature_bytes = 4000 * 50 * 8  # the parts partition the rows
    traced = []
    train = cli.sgd_average_train

    def measuring_train(*args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return train(*args, **kwargs)

    monkeypatch.setattr(cli, "sgd_average_train", measuring_train)
    cfg = parse_config(_RUN.replace("synthetic", str(data_path)))
    tracemalloc.start()
    try:
        run_experiment(cfg)
    finally:
        tracemalloc.stop()
    assert len(traced) == 1
    assert traced[0] <= 1.2 * feature_bytes


def test_a_csv_run_holds_one_copy_of_the_rows_from_parse_to_report(tmp_path):
    # the parse's label column is compacted away in place and the split
    # takes the loaded rows: about 1.3x the parts' feature bytes at peak,
    # where a copy of the parsed matrix or of the rows made it about 2.3x
    import tracemalloc

    data_path = _binary_csv(tmp_path / "rows.csv", 4000, 50)
    feature_bytes = 4000 * 50 * 8  # the parts partition the rows
    cfg = parse_config(_RUN.replace("synthetic", str(data_path)))
    run_experiment(cfg)  # imports what a first run imports, untraced
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * feature_bytes


def test_restarts_apply_to_every_ranked_range():
    # restarts used to be ignored by every aggregate but aorr
    text = _RUN + ("aggregate = atk\ngrid.k = 20\ntrain.batch = 1\n"
                   "train.inner_epochs = 50\nsplit = 0.5,0.25,0.25\n"
                   "base_seed = 1\n")
    runs = [run_experiment(parse_config(text + f"restarts = {restarts}\n"))
            ["runs"] for restarts in (1, 3)]
    assert json.dumps(runs[0], sort_keys=True) != \
        json.dumps(runs[1], sort_keys=True)


def test_the_first_best_candidate_wins(monkeypatch):
    # a candidate's model is its (seed, m, k) here, which looks up its
    # metric table
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(cli, "dca_train", lambda data, spec, r, config,
                        score=None: TrainReport((config.seed, r.m, r.k), [], []))
    monkeypatch.setattr(cli, "tkml_aorr_train", lambda data, spec, r, config,
                        start: TrainReport((config.seed, r.m, r.k), [], []))
    monkeypatch.setattr(cli, "sgd_average_train",
                        lambda data, spec, config: TrainReport(None, [], []))
    tables, scored = {}, []

    def evaluate(model, rows, k):
        scored.append(rows)
        return tables[model]

    def topk_multilabel_accuracy(scores, Y, k):  # label sets skip _evaluate
        model, X = scores
        scored.append(X)
        return tables[model]["topk_accuracy"]

    monkeypatch.setattr(cli, "_evaluate", evaluate)
    monkeypatch.setattr(cli, "predict_matrix", lambda model, X: (model, X))
    monkeypatch.setattr(cli, "topk_multilabel_accuracy",
                        topk_multilabel_accuracy)
    # binary restarts 100..103 by least error: 101 and 102 tie
    binary = parse_config("task = binary\naggregate = aorr\ngrid.m = 1\n"
                          "grid.k = 5\nsplit = 0.5,0.25,0.25\nrestarts = 4\n")
    tr, va, te = split_dataset(gen_synthetic(SyntheticSpec(seed=1)),
                               binary.split, seed=0)
    for seed, err in zip(range(100, 104), (0.3, 0.1, 0.1, 0.2)):
        tables[seed, 1, 5] = {"error": err, "accuracy": 1.0 - err}
    report, _ = cli._train_model(binary, tr, va, 1, holdout=te)
    assert report.model == (101, 1, 5)
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
    assert report.model == (1, 1, 9)
    assert extras["grid_choice"] == {"m": 1, "k": 9}
    assert len(scored) == 4 and all(X is te.features for X in scored)
    # a lone candidate is not scored, and reports no grid_choice
    scored.clear()
    _, extras = cli._train_model(
        dataclasses.replace(grid, grid_m=(1,), grid_k=(5,)), tr, None, 1,
        holdout=te)
    assert scored == [] and extras == {}


def test_k_zero_and_an_unset_grid_k_mean_n(monkeypatch):
    # a cell's k = 0 is read as the n training rows before its range is
    # built, so k = 0 and k = n are one cell
    _cpus(monkeypatch, 1)
    trained = []

    def recording(data, spec, r, config, score=None):
        trained.append(r)
        return TrainReport(None, [], [])

    monkeypatch.setattr(cli, "dca_train", recording)
    for ranks in ("", "grid.k = 0\n", "grid.k = 0,140\n"):
        cfg = parse_config(_BINARY + "aggregate = aorr\ngrid.m = 1\n" + ranks)
        tr, te = split_dataset(gen_synthetic(SyntheticSpec(seed=1)), cfg.split,
                               seed=0)
        assert tr.n == 140
        _, extras = cli._train_model(cfg, tr, None, 0, holdout=te)
        assert extras == {}
    assert trained == [RankedRange(1, 140)] * 3


def test_tkml_snapshots_are_kept_by_top_k_accuracy():
    # dca_train kept the snapshot with the least share of validation rows at
    # a positive tkml loss, here another one than the top accuracy's
    import numpy as np
    from rankedrange import dca_train, make_loss_spec, topk_multilabel_accuracy
    from rankedrange.model import predict_matrix

    cfg = parse_config("task = multilabel\nloss = tkml\naggregate = tkml\n"
                       "split = 0.5,0.25,0.25\neval_k = 2\ntrain.kprime = 2\n"
                       "train.batch = 8\ntrain.outer_epochs = 1\n"
                       "train.inner_epochs = 500\ntrain.eta_inner = 0.5\n")
    tr, va, _ = split_dataset(gen_multilabel_synthetic(200, 3, 6, seed=3),
                              cfg.split, seed=3)
    spec = make_loss_spec("tkml", 2, 6)
    snapshots = []

    def record(model):
        scores = predict_matrix(model, va.features)
        acc = topk_multilabel_accuracy(scores, va.label_matrix, 2)
        positive = spec.losses(model.weights, model.bias, va) > 0.0
        snapshots.append((acc, np.mean(positive), model))
        return -acc

    dca_train(tr, spec, RankedRange(0, tr.n),
              dataclasses.replace(cfg.train, seed=3), score=record)
    # the probes, then the final iterate
    accs, shares, models = zip(*snapshots[:-1])
    top = accs.index(max(accs))
    assert top != shares.index(min(shares))
    assert accs[top] > snapshots[-1][0]
    report, _ = cli._train_model(cfg, tr, va, 3)
    np.testing.assert_array_equal(report.model.weights, models[top].weights)
    np.testing.assert_array_equal(report.model.bias, models[top].bias)


_MONK_CELLS = ("task = binary\nloss = logistic\ndataset = monk\n"
               "split = 0.5,0.25,0.25\ntrain.outer_epochs = 2\n"
               "train.inner_epochs = 300\n")


@pytest.mark.parametrize("aggregate, which, values, other", [
    ("atk", "k", (20, 40), ("m", 0)),
    ("aorr", "m", (1, 10), ("k", 70)),
], ids=["atk-grid.k", "aorr-grid.m"])
def test_grid_keys_apply_to_every_loss(monkeypatch, aggregate, which, values,
                                       other):
    # grid keys were read for the tkml loss only: a logistic atk run with
    # grid.k trained k = n, and an aorr run with grid.m trained the one m
    # of its config, and neither reported a grid_choice
    _cpus(monkeypatch, 1)
    trained, train = [], cli.dca_train

    def recording(data, spec, r, config, **kwargs):
        trained.append(getattr(r, which))
        return train(data, spec, r, config, **kwargs)

    monkeypatch.setattr(cli, "dca_train", recording)
    # atk reads no grid.m: its cells train m = 0
    text = _MONK_CELLS + f"aggregate = {aggregate}\n" + \
        (f"grid.{other[0]} = {other[1]}\n" if other[1] else "")
    grid = run_experiment(parse_config(
        text + f"grid.{which} = {values[0]},{values[1]}\n"))["runs"][0]
    assert trained == list(values)
    choice = grid.pop("grid_choice")
    assert choice[which] in values and choice[other[0]] == other[1]
    # as JSON, where the NaN of a lambda_trace equals itself
    single = {v: json.dumps(run_experiment(parse_config(
        text + f"grid.{which} = {v}\n"))["runs"][0]) for v in values}
    assert single[values[0]] != single[values[1]]
    assert json.dumps(grid) == single[choice[which]]


def test_eval_reports_the_train_metric_table(tmp_path, capsys):
    # eval printed error and topk_accuracy for a softmax model at --k 1,
    # where a train report holds error and accuracy
    from rankedrange import LinearModel, load_dataset, load_model, save_model, \
        write_csv
    import numpy as np

    data_path, model_path = tmp_path / "blobs.csv", tmp_path / "model.txt"
    write_csv(gen_multiclass_blobs(60, 3, 4, seed=2), data_path)
    rng = np.random.default_rng(3)
    weights, bias = rng.standard_normal((4, 3)), rng.standard_normal(4)
    # top-1 error, unless k > 1; an older file's tkml record picks nothing
    for record, k, table in (("", 1, ["accuracy", "error"]),
                             ("", 2, ["error", "topk_accuracy"]),
                             ("loss_kind = tkml\n", 1, ["accuracy", "error"])):
        save_model(LinearModel(weights=weights, bias=bias), model_path)
        model_path.write_text(model_path.read_text() + record)
        capsys.readouterr()
        assert main(["eval", "--model", str(model_path),
                     "--data", str(data_path), "--k", str(k)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert sorted(printed) == table
        assert printed == cli._evaluate(
            load_model(model_path), load_dataset(str(data_path), "csv", l=4), k)
        if "topk_accuracy" in printed:
            assert printed["error"] == 1.0 - printed["topk_accuracy"]


def test_eval_of_an_older_model_file_prints_the_same_table(tmp_path, capsys):
    # a file with the loss_kind, k, m and kprime record lines that models
    # were saved with: its tkml loss_kind made eval print topk_accuracy at
    # --k 1, where the same weights without it print accuracy
    from rankedrange import LinearModel, save_model, write_csv
    import numpy as np

    data_path, model_path = tmp_path / "blobs.csv", tmp_path / "model.txt"
    older_path = tmp_path / "older.txt"
    write_csv(gen_multiclass_blobs(60, 3, 4, seed=2), data_path)
    rng = np.random.default_rng(3)
    weights, bias = rng.standard_normal((4, 3)), rng.standard_normal(4)
    save_model(LinearModel(weights=weights, bias=bias), model_path)
    older_path.write_text(
        "format_version = 1\nl = 4\nd = 3\nloss_kind = tkml\nk = 0\nm = 0\n"
        "kprime = 1\nweights = " + " ".join(f"{v:.17g}" for v in weights.ravel())
        + "\nbias = " + " ".join(f"{v:.17g}" for v in bias) + "\n")
    printed = []
    for path in (model_path, older_path):
        capsys.readouterr()
        assert main(["eval", "--model", str(path),
                     "--data", str(data_path)]) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert sorted(json.loads(printed[0])) == ["accuracy", "error"]


def test_multiclass_tkml_run_at_eval_k_1_reports_accuracy_and_error():
    # a tkml run reported topk_accuracy and error, a softmax run at the
    # same eval_k error and accuracy
    report = run_experiment(parse_config(_BLOBS3.replace(
        "loss = softmax", "loss = tkml\naggregate = tkml") + "eval_k = 1\n"))
    assert set(report["runs"][0]["metrics"]) == {"accuracy", "error"}
    assert set(report["aggregates"]) == {"accuracy", "error"}


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
_DCA_REPEATS = _RUN + "aggregate = aorr\ngrid.m = 2\ngrid.k = 20\nrepeats = 3\n"
_DCA_RESTARTS = _RUN + ("aggregate = aorr\ngrid.m = 2\ngrid.k = 20\n"
                        "split = 0.5,0.25,0.25\nrestarts = 3\n")


@pytest.mark.parametrize("cpus", [1, pytest.param(2, marks=_needs_openblas)],
                         ids=["serial", "forked"])
def test_each_repeat_of_a_file_splits_its_own_rows(tmp_path, monkeypatch, cpus):
    # a split permutes and z-scores the rows it is given in place; serially
    # all three repeats share one load, and on two CPUs the caller runs
    # repeats 0 and 2 on it
    _cpus(monkeypatch, cpus)
    text = _RUN.replace("synthetic", str(_binary_csv(tmp_path / "r.csv", 60, 3)))
    runs = run_experiment(parse_config(text + "repeats = 3\n"))["runs"]
    assert len(runs) == 3
    for run in runs:
        alone = run_experiment(parse_config(text + f"base_seed = {run['seed']}\n"))
        assert json.dumps(alone["runs"], sort_keys=True) == \
            json.dumps([dict(run, run=0)], sort_keys=True)


def test_a_run_prepares_its_rows_through_split_dataset_and_standardize(
        tmp_path, monkeypatch):
    # the benchmark's data.prep boundary wraps these two names, so a run
    # that split or z-scored its rows another way would record no call;
    # repeats that share a load split copies and leave the load as it was
    _cpus(monkeypatch, 1)
    split, standardize, load = (cli.split_dataset, cli.standardize,
                                cli.load_dataset)
    copies, standardized, loads = [], [], []

    def counting_split(data, fractions, seed=0, *, copy=True):
        copies.append(copy)
        return split(data, fractions, seed, copy=copy)

    def counting_standardize(*parts):
        standardized.append(len(parts))
        return standardize(*parts)

    def keeping_load(*args):
        data = load(*args)
        loads.append((data, data.features.tobytes()))
        return data

    monkeypatch.setattr(cli, "split_dataset", counting_split)
    monkeypatch.setattr(cli, "standardize", counting_standardize)
    monkeypatch.setattr(cli, "load_dataset", keeping_load)
    run_experiment(parse_config(_RUN))
    assert copies == [False] and standardized == [2] and loads == []
    copies.clear()
    standardized.clear()
    text = _RUN.replace("synthetic", str(_binary_csv(tmp_path / "r.csv", 60, 3)))
    run_experiment(parse_config(text + "repeats = 3\n"))
    assert copies == [True] * 3 and standardized == [2] * 3
    (data, before), = loads
    assert data.features.tobytes() == before


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


def test_ordered_map_without_fork_stays_in_process(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
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
            raise ConfigError("grid.k", "raised in a worker")
        return x

    with pytest.raises(ConfigError) as exc:
        cli._ordered_map(fail_in_worker, range(3))
    assert exc.value.key == "grid.k"
    assert str(exc.value) == "config key 'grid.k': raised in a worker"


def test_ordered_map_raises_the_first_error_in_item_order(monkeypatch):
    _cpus(monkeypatch, 2)

    def fail(x):
        if x:
            raise TrainingDiverged(x)
        return x

    with pytest.raises(TrainingDiverged) as exc:
        cli._ordered_map(fail, range(4))
    assert exc.value.epoch == 1


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_needs_openblas
def test_a_failing_map_stops_its_workers_at_once(monkeypatch):
    # a serial map would never start item 1: the caller's item 0 fails
    # first, so the worker's item 1 is killed, not waited for
    _cpus(monkeypatch, 2)

    def fail_or_sleep(x):
        if x == 0:
            raise TrainingDiverged(0)
        time.sleep(8)

    start = time.perf_counter()
    with pytest.raises(TrainingDiverged):
        cli._ordered_map(fail_or_sleep, range(2))
    assert time.perf_counter() - start < 2.0
    _assert_no_child_left()


class _UnpicklableError(Exception):
    """Pickles by its one argument, but takes two."""

    def __init__(self, a, b):
        super().__init__(a)


def _raise(exc):
    raise exc


@_needs_openblas
@pytest.mark.parametrize("in_worker, message", [
    (lambda: os._exit(3), r"item 1 ended without its result \(exit status 3\)"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     r"item 1 ended without its result \(signal 9\)"),
    (lambda: lambda: 0, r"item 1 ended without its result \(exit status 1\)"),
    (lambda: _raise(ValueError(lambda: 0)),
     r"item 1 ended without its result \(exit status 1\)"),
    (lambda: _raise(_UnpicklableError(1, 2)),
     r"result of item 1 could not be unpickled"),
], ids=["exit", "killed", "unpicklable-result", "unpicklable-error",
        "error-that-does-not-unpickle"])
def test_a_worker_that_ends_without_its_result_is_named(monkeypatch, in_worker,
                                                        message):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=message):
        cli._ordered_map(lambda x: in_worker() if x == 1 else x, range(3))
    _assert_no_child_left()


@_needs_openblas
def test_a_first_map_imports_no_process_pool():
    # importing multiprocessing and concurrent.futures was most of the cost
    # of a fresh process's first map
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child = subprocess.run([sys.executable, "-c", (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: set(range(2))\n"
        "from rankedrange import cli\n"
        "pids = cli._ordered_map(lambda x: os.getpid(), range(2))\n"
        "assert pids[0] == os.getpid() != pids[1], pids\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'}"
        " & set(sys.modules)))\n")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))),
        capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


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


def test_data_noise_eval_pipeline(tmp_path, capsys):
    data_path, noisy_path = tmp_path / "synth.csv", tmp_path / "noisy.csv"
    assert main(["data", "--out", str(data_path), "--seed", "1"]) == EXIT_OK
    noise_cfg = tmp_path / "noise.cfg"
    noise_cfg.write_text(f"dataset = {data_path}\nnoise.mode = symmetric\n"
                         "noise.p = 0.1\nnoise.seed = 2\n")
    assert main(["data", "--config", str(noise_cfg),
                 "--out", str(noisy_path)]) == EXIT_OK
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
                 "--data", str(noisy_path)]) == EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["error"] <= 1.0


def test_data_command_counts_changed_labels(tmp_path, capsys):
    # the 1:1 entry selects rows of class 1 but leaves their labels
    from rankedrange import load_dataset

    data_path, noisy_path = tmp_path / "blobs.csv", tmp_path / "noisy.csv"
    blobs_cfg, noise_cfg = tmp_path / "blobs.cfg", tmp_path / "noise.cfg"
    blobs_cfg.write_text("dataset = blobs\nblobs.n = 300\nblobs.d = 2\n"
                         "blobs.l = 3\n")
    noise_cfg.write_text(f"dataset = {data_path}\nnoise.mode = asymmetric_map\n"
                         "noise.map = 1:1,2:3\nnoise.p = 0.5\nnoise.seed = 4\n")
    assert main(["data", "--config", str(blobs_cfg),
                 "--out", str(data_path)]) == EXIT_OK
    assert capsys.readouterr().out == \
        f"wrote {data_path} (300 samples, 2 features)\n"
    assert main(["data", "--config", str(noise_cfg),
                 "--out", str(noisy_path)]) == EXIT_OK
    clean, noisy = load_dataset(data_path), load_dataset(noisy_path)
    changed = int((clean.labels != noisy.labels).sum())
    assert changed > 0
    assert capsys.readouterr().out == \
        f"wrote {noisy_path} (300 samples, 2 features, {changed} labels flipped)\n"


# (config text, extra flags, the dataset that `data` must write for the
# file {file}, a 3-class CSV); the noise seed is noise.seed + base_seed
_DATA_CASES = {
    "default": (None, [], lambda f: gen_synthetic(SyntheticSpec(seed=0))),
    "synthetic-imbalanced": (
        "synth.balanced = false\nsynth.outliers = 5\n", ["--seed", "3"],
        lambda f: gen_synthetic(SyntheticSpec(balanced=False, n_outliers=5,
                                              seed=3))),
    "blobs": (
        "dataset = blobs\nblobs.n = 300\nblobs.d = 2\nblobs.l = 3\n"
        "blobs.sep = 3.0\nbase_seed = 1\n", [],
        lambda f: gen_multiclass_blobs(300, 2, 3, seed=1, separation=3.0)),
    "multilabel-synth": (
        "dataset = multilabel-synth\nml.n = 50\nml.d = 3\nml.l = 5\n"
        "ml.min = 2\nml.max = 3\nml.noise = 1.0\n", ["--seed", "2"],
        lambda f: gen_multilabel_synthetic(50, 3, 5, seed=2, min_labels=2,
                                           max_labels=3, score_noise=1.0)),
    "asymmetric_map": (
        "dataset = {file}\nnoise.mode = asymmetric_map\nnoise.p = 0.5\n"
        "noise.map = 1:2,2:3\nnoise.seed = 4\n", ["--seed", "5"],
        lambda f: cli.inject_noise(cli.load_dataset(f), NoiseSpec(
            "asymmetric_map", 0.5, {1: 2, 2: 3}, seed=9))),
    "symmetric": (
        "dataset = {file}\nnoise.mode = symmetric\nnoise.p = 0.3\n"
        "base_seed = 2\n",
        [], lambda f: cli.inject_noise(cli.load_dataset(f), NoiseSpec(
            "symmetric", 0.3, seed=2))),
}


@pytest.mark.parametrize("case", sorted(_DATA_CASES))
def test_data_writes_what_write_csv_writes(tmp_path, case):
    from rankedrange import write_csv

    text, flags, expected = _DATA_CASES[case]
    file, got, want = (tmp_path / "three.csv", tmp_path / "got.csv",
                       tmp_path / "want.csv")
    write_csv(gen_multiclass_blobs(80, 2, 3, seed=6), file)
    if text is not None:
        (tmp_path / "data.cfg").write_text(text.format(file=file))
        flags = ["--config", str(tmp_path / "data.cfg")] + flags
    assert main(["data", "--out", str(got)] + flags) == EXIT_OK
    write_csv(expected(str(file)), want)
    assert got.read_bytes() == want.read_bytes()


def test_data_multilabel_noise_stays_within_ml_l(tmp_path, capsys):
    # a reloaded label-set file had one label more than it held, and
    # multilabel noise moved labels onto that label
    from rankedrange import load_dataset

    clean, noisy = tmp_path / "ml.csv", tmp_path / "noisy.csv"
    (tmp_path / "ml.cfg").write_text(
        "dataset = multilabel-synth\nml.n = 500\nml.d = 3\nml.l = 8\n")
    (tmp_path / "noise.cfg").write_text(
        f"dataset = {clean}\nnoise.mode = multilabel_symmetric\n"
        "noise.p = 0.3\nnoise.seed = 5\n")
    for cfg, out in (("ml.cfg", clean), ("noise.cfg", noisy)):
        assert main(["data", "--config", str(tmp_path / cfg),
                     "--out", str(out)]) == EXIT_OK
    assert ", 0 labels flipped" not in capsys.readouterr().out
    assert load_dataset(clean).l == load_dataset(noisy).l == 8


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
        "split = 0.7,0.3\ngrid.k = 2\ntrain.batch = 0\n"
        "train.eta_inner = 0.005\ntrain.outer_epochs = 3\n"
        "train.inner_epochs = 300\n")
    assert main(["sweep", "--config", str(cfg_path), "--param", "grid.k",
                 "--range", "2:6:2", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep_grid.k.csv").read_text().splitlines()
    assert lines[0].startswith("grid.k,")
    assert len(lines) == 4


def test_sweep_any_key(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN + "aggregate = atk\ngrid.k = 2\n")
    assert main(["sweep", "--config", str(cfg_path), "--param",
                 "synth.outliers", "--range", "0:2:2",
                 "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "sweep_synth.outliers.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["synth.outliers", "0", "2"]


# (--param, --range) of a sweep, and the key of its config error
_SWEEP_ERRORS = {
    ("grid.k", "2:3:0.5"): "grid.k",  # a non-integral value for an int key
    ("p", "0.1:0.2:0.1"): "noise.mode",  # no noise.mode in the config
    ("grid.k", "2:1000:997"): "grid.k",  # k = 999 exceeds the 140 training rows
    # a bare k named train.k, which is gone: the ranks are grid keys
    ("k", "2:3:0.5"): "k",
    ("bogus", "1:2"): "bogus",
    ("k", "2"): "--range",  # one part
    ("k", "1:2:1:4"): "--range",  # four parts
}


@pytest.mark.parametrize("param, range_", list(_SWEEP_ERRORS))
def test_sweep_config_errors_exit_1(tmp_path, capsys, param, range_):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(_RUN + "aggregate = atk\ngrid.k = 2\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--param", param,
                 "--range", range_, "--out", str(tmp_path)]) == EXIT_USAGE
    key = _SWEEP_ERRORS[param, range_]
    assert f"config key {key!r}" in capsys.readouterr().err


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
                    (["--subsample", "60000"], 78000)):
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
# a 4-class CSV, {model} a 4-label model that scores it, {binary} and
# {binary_model} the same for binary labels, and {config} a valid binary
# config
_CONFIG_ERRORS = {
    "noise.map-vs-labels": (_BLOBS3 + "noise.mode = asymmetric_map\n"
                            "noise.p = 0.5\nnoise.map = 1:9\n", "noise.map"),
    "noise.map-not-a-label": (_BLOBS3 + "noise.mode = asymmetric_map\n"
                              "noise.p = 0.1\nnoise.map = 1:x\n", "noise.map"),
    "noise.map-missing": (_BLOBS3 + "noise.mode = asymmetric_map\n"
                          "noise.p = 0.1\n", "noise.map"),
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
    "eval-k": (["eval", "--model", "{model}", "--data", "{data}", "--k", "9"],
               "--k"),
    # binary data has one score, so k = 1 alone: a binary run at eval_k = 3
    # recorded it in its report, and eval --k 3 printed the top-1 table
    "eval_k-binary": (_BINARY + "eval_k = 3\n", "eval_k"),
    "eval-k-binary": (["eval", "--model", "{binary_model}", "--data",
                       "{binary}", "--k", "3"], "--k"),
    # guards: these exited 1 at their key before the checks moved
    "train.kprime": (_ML6 + "train.kprime = 9\n", "train.kprime"),
    "split": (_BINARY + "split = 0.999,0.001\n", "split"),
    "split-one-part": (_BINARY + "split = 1.0\n", "split"),
    "split-four-parts": (_BINARY + "split = 0.25,0.25,0.25,0.25\n", "split"),
    "task": (_BINARY + "task = ranking\n", "task"),
    # restarts were ignored by the aggregates that train one model
    "restarts-average": (_BINARY + "split = 0.5,0.25,0.25\nrestarts = 3\n",
                         "restarts"),
    "restarts-auto_aorr": (_BINARY + "aggregate = auto_aorr\n"
                           "split = 0.5,0.25,0.25\nrestarts = 3\n", "restarts"),
    "restarts-lr": (_ML6 + "loss = multilabel_lr\naggregate = average\n"
                    "split = 0.5,0.25,0.25\nrestarts = 3\n", "restarts"),
    "restarts-no-validation": (_BINARY + "aggregate = aorr\ngrid.m = 1\n"
                               "grid.k = 5\nrestarts = 3\n", "restarts"),
    # grid keys were read for the tkml loss only, and never on these
    **{f"grid.{which}-{name}": (base + "split = 0.5,0.25,0.25\n"
                                f"grid.{which} = 5,10\n", f"grid.{which}")
       for which in "mk" for name, base in (
           ("average", _BINARY + "aggregate = average\n"),
           ("lr", _ML6 + "loss = multilabel_lr\naggregate = average\n"),
           ("auto_aorr", _BINARY + "aggregate = auto_aorr\n"))},
    # a k of 0 in the grid silently meant n
    "grid.k-atk-zero": (_BINARY + "aggregate = atk\ngrid.k = 0,5\n", "grid.k"),
    "grid.m-aorr-zero": (_BINARY + "aggregate = aorr\ngrid.k = 5\n"
                         "grid.m = 0,1\n", "grid.m"),
    # a cell outside the training rows, at its grid key for every loss
    "grid.k-above-n": (_BINARY + "aggregate = aorr\ngrid.m = 1\n"
                       "grid.k = 5,1000\n", "grid.k"),
    # exit 3 on an integer modulo by zero
    "train.refresh_every": (_BINARY + "aggregate = auto_aorr\n"
                            "split = 0.5,0.25,0.25\ntrain.refresh_every = 0\n",
                            "train.refresh_every"),
    # an UnboundLocalError traceback
    "train.warmup_epochs": (_ML6 + "aggregate = tkml_aorr\n"
                            "train.warmup_epochs = -1\n", "train.warmup_epochs"),
    # numpy's ValueError traceback for a negative seed
    "base_seed": (_BINARY + "base_seed = -1\n", "base_seed"),
    "train-seed-flag": (["train", "--config", "{config}", "--seed", "-1"],
                        "base_seed"),
    # each run replaced it with base_seed + run, and the report still gave it
    "train.seed": (_BINARY + "train.seed = 7\n", "train.seed"),
    "sweep-seed": (["sweep", "--config", "{config}", "--param", "seed",
                    "--range", "1:2"], "train.seed"),
    "noise.seed": (_BINARY + _SYMMETRIC + "noise.seed = -1\n", "noise.seed"),
    "data-seed-flag": (["data", "--seed", "-1"], "base_seed"),
    # one name per objective: the tkml loss's trimmed range is tkml_aorr,
    # which, like aorr, needs m >= 1 (m = 0 is atk)
    "aorr-on-tkml": (_ML6 + "aggregate = aorr\ngrid.m = 1\ngrid.k = 5\n",
                     "aggregate"),
    "tkml_aorr-m-zero": (_ML6 + "aggregate = tkml_aorr\ngrid.k = 5\n",
                         "grid.m"),
    # the per-label logistic baseline is a loss (multilabel_lr), not an
    # aggregate
    "aggregate-lr": (_ML6 + "aggregate = lr\n", "aggregate"),
    # the random start silently fell back to zeros
    "train.init_scale-negative": (_BINARY + "train.init_scale = -1\n",
                                  "train.init_scale"),
    "train.init_scale-nan": (_BINARY + "train.init_scale = nan\n",
                             "train.init_scale"),
    # a non-finite float: the multilabel generator picked label sets from
    # NaN scores, and an average run, which reads no eta_inner, trained;
    # the other two exited 3 as a numeric failure
    "ml.noise-nan": (_ML6 + "ml.noise = nan\n", "ml.noise"),
    "blobs.sep-inf": (_BLOBS3 + "blobs.sep = inf\n", "blobs.sep"),
    "train.eta_inner-inf": (_BINARY + "train.eta_inner = inf\n",
                            "train.eta_inner"),
    "train.init_scale-inf": (_BINARY + "train.init_scale = inf\n",
                             "train.init_scale"),
    # values that do not parse, and keys that name no field
    "grid.k-not-an-int": (_BINARY + "aggregate = atk\ngrid.k = abc\n",
                          "grid.k"),
    "repeats-not-an-int": (_BINARY + "repeats = x\n", "repeats"),
    "split-not-numbers": (_BINARY + "split = a,b\n", "split"),
    "split-sum": (_BINARY + "split = 0.5,0.2\n", "split"),
    "synth.balanced": (_BINARY + "synth.balanced = maybe\n", "synth.balanced"),
    "noise.p-without-mode": (_BINARY + "noise.p = 0.3\n", "noise.mode"),
    "bogus": (_BINARY + "bogus = 1\n", "bogus"),
    "train.use_bias": (_BINARY + "train.use_bias = false\n", "train.use_bias"),
    # the training part has 140 rows
    "grid.k-atk-above-n": (_BINARY + "aggregate = atk\ngrid.k = 1000\n",
                           "grid.k"),
    # a negative rank trained as k = n, or was not read at all
    "grid.m-negative": (_BINARY + "aggregate = atk\ngrid.k = 5\n"
                        "grid.m = -1,0\n", "grid.m"),
    "grid.k-negative": (_BINARY + "aggregate = aorr\ngrid.m = 1\n"
                        "grid.k = -5,10\n", "grid.k"),
    # parsed, and read as patience 1 or not read at all
    "train.patience": (_BINARY + "aggregate = auto_aorr\n"
                       "split = 0.5,0.25,0.25\ntrain.patience = -3\n",
                       "train.patience"),
    "train.kprime-below-1": (_BINARY + "train.kprime = -5\n", "train.kprime"),
    # grid.m and grid.k are the one way to set a ranked range: the keys of
    # a single range name no field, whatever their value.  The unknown rows
    # trained; the negative ones were rejected as negative ranks
    "train.m-unknown": (_BINARY + "aggregate = aorr\ntrain.m = 1\n"
                        "grid.m = 1\ngrid.k = 5\n", "train.m"),
    "train.k-unknown": (_BINARY + "aggregate = atk\ntrain.k = 5\n"
                        "grid.k = 5\n", "train.k"),
    "train.m-negative": (_BINARY + "train.m = -1\n", "train.m"),
    "train.k-negative": (_BINARY + "aggregate = aorr\ngrid.m = 1\n"
                         "train.k = -5\n", "train.k"),
    # an empty comma-list item was dropped: an empty grid.k trained k = n,
    # and an average run passed the check that it sets no grid key
    "grid.k-empty": (_BINARY + "aggregate = aorr\ngrid.m = 1\ngrid.k =\n",
                     "grid.k"),
    "grid.k-empty-on-average": (_BINARY + "grid.k =\n", "grid.k"),
    "split-empty-item": (_BINARY + "split = 0.5,,0.5\n", "split"),
    # the last of two mappings of one label was kept
    "noise.map-label-twice": (_BLOBS3 + "noise.mode = asymmetric_map\n"
                              "noise.p = 0.1\nnoise.map = 1:2,1:3\n",
                              "noise.map"),
}


def _config_error_argv(tmp_path, row, command="train"):
    """The command line of a _CONFIG_ERRORS row; a config text row runs
    ``command`` on it."""
    from rankedrange import LinearModel, save_model
    import numpy as np

    given, _ = _CONFIG_ERRORS[row]
    paths = {"data": tmp_path / "four.csv", "model": tmp_path / "model.txt",
             "binary": tmp_path / "two.csv",
             "binary_model": tmp_path / "binary.txt",
             "config": tmp_path / "ok.cfg"}
    paths["config"].write_text(_BINARY)
    paths["data"].write_text("label,f0,f1\n1,0.5,1.0\n2,2.0,0.0\n3,1.5,-1.0\n"
                             "4,0.0,0.5\n")
    paths["binary"].write_text("label,f0,f1\n1,0.5,1.0\n-1,2.0,0.0\n")
    for key, l in (("model", 4), ("binary_model", 1)):
        save_model(LinearModel(weights=np.ones((l, 2)), bias=np.zeros(l)),
                   paths[key])
    if isinstance(given, str):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(given.format(**paths))
        given = [command, "--config", str(cfg_path)]
    argv = [arg.format(**paths) for arg in given]
    return argv + ["--out", str(tmp_path / "out")] if argv[0] != "eval" else argv


@pytest.mark.parametrize("row", sorted(_CONFIG_ERRORS))
def test_config_errors_exit_1_at_their_key(tmp_path, capsys, row):
    argv = _config_error_argv(tmp_path, row)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert f"config key {_CONFIG_ERRORS[row][1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# an atk run with grid.m = 20 trained m = 0, and its report still recorded
# grid_m [20]; max with grid.m and grid.k trained its one cell
@pytest.mark.parametrize("aggregate, key", [
    (agg, key) for agg, (reads, _) in cli._RANGES.items()
    for key in ("grid.m", "grid.k") if key not in reads])
def test_a_grid_key_the_aggregate_does_not_read_exits_1(tmp_path, capsys,
                                                        aggregate, key):
    base = _ML6 if aggregate.startswith("tkml") else _BINARY
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(base + f"aggregate = {aggregate}\n"
                        f"{_grid_lines(aggregate)}{key} = 20\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"config key {key!r}: {aggregate} reads no {key}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a noise mode without its p, on a run that would train for a few epochs
@pytest.mark.parametrize("line", ["noise.mode = symmetric"])
def test_main_config_errors_exit_1(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_RUN + line + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "config key 'noise.p'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the rows whose keys `data` reads: the dataset, generator and noise keys
_DATA_ERRORS = ("base_seed", "blobs.d", "blobs.l", "blobs.n", "blobs.sep-inf",
                "format", "ml.d", "ml.max-below-ml.min", "ml.max-vs-ml.l",
                "ml.min", "ml.noise-nan", "multilabel-noise-on-binary",
                "noise-mode-unknown-without-p", "noise-mode-without-p",
                "noise.map-missing", "noise.map-not-a-label",
                "noise.map-vs-labels", "noise.p", "noise.p-without-mode",
                "noise.seed", "synth.balanced", "synth.outliers")


@pytest.mark.parametrize("row", _DATA_ERRORS)
def test_data_config_errors_exit_1_at_the_key_train_names(tmp_path, capsys,
                                                          row):
    argv = _config_error_argv(tmp_path, row, command="data")
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert f"config key {_CONFIG_ERRORS[row][1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# sizes whose allocation fails at once; they ended in numpy's
# _ArrayMemoryError traceback and exited 1 with no key
@pytest.mark.parametrize("command", ["train", "data"])
@pytest.mark.parametrize("base, key, d", [
    (_BLOBS3, "blobs.n", 2), (_ML6, "ml.n", 3),
    # the l x d centers and weights, which were blamed on the n key
    (_BLOBS3, "blobs.l", 2), (_ML6, "ml.l", 3)],
    ids=["blobs", "ml", "blobs.l", "ml.l"])
def test_unallocatable_generator_size_exits_1_at_its_key(tmp_path, capsys,
                                                         command, base, key, d):
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(base + f"{key} = 10000000000000\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert (f"config key {key!r}: 10000000000000 x {d} features do not fit "
            "in memory") in capsys.readouterr().err


# sizes past numpy's largest array: numpy raised ValueError before any
# allocation, and the run ended in its traceback (exit 4)
@pytest.mark.parametrize("command", ["train", "data"])
@pytest.mark.parametrize("base, key, shape", [
    (_BLOBS3, "blobs.n", "100000000000000000000 x 2"),
    (_ML6, "ml.d", "60 x 100000000000000000000"),
    # these ended in numpy's ValueError traceback (exit 4)
    (_BLOBS3, "blobs.l", "100000000000000000000 x 2"),
    (_ML6, "ml.l", "100000000000000000000 x 3")],
    ids=["blobs", "ml", "blobs.l", "ml.l"])
def test_unshapeable_generator_size_exits_1_at_its_key(tmp_path, capsys,
                                                       command, base, key,
                                                       shape):
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(base + f"{key} = 100000000000000000000\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert (f"config key {key!r}: {shape} features do not fit in "
            "memory") in capsys.readouterr().err


def test_a_crash_exits_4_with_its_traceback(monkeypatch, capsys):
    # an unexpected exception propagated and Python exited 1, the status of
    # a config error
    def crash(args):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "train", crash)
    capsys.readouterr()
    assert main(["train", "--config", "unused.cfg"]) == cli.EXIT_CRASH == 4
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: a bug" in err


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("command", [
    ["train"], ["sweep", "--param", "k", "--range", "1:2"], ["data"]],
    ids=["train", "sweep", "data"])
def test_non_utf8_config_exits_1_at_its_line(tmp_path, capsys, command,
                                             newline):
    # a Latin-1 byte in a comment ended train and sweep in a traceback
    cfg_path = tmp_path / "latin1.cfg"
    text = _BINARY + "# caf\xe9\ntrain.outer_epochs = 2\n"  # line 5
    cfg_path.write_bytes(text.replace("\n", newline).encode("latin-1"))
    capsys.readouterr()
    assert main([command[0], "--config", str(cfg_path), *command[1:],
                 "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "config key 'line 5': not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lambda_trace_is_thinned_to_50_evenly_spaced_pairs(monkeypatch):
    # a run of more than 50 steps reports 50 of its [lam, lam_hat] pairs,
    # the first and the last among them
    trained = []

    def recorded(*args):
        trained.append(optim.tkml_aorr_train(*args))
        return trained[-1]

    monkeypatch.setattr(cli, "tkml_aorr_train", recorded)
    cfg = parse_config(_ML6 + "aggregate = tkml_aorr\ngrid.m = 2\n"
                       "grid.k = 20\ntrain.warmup_epochs = 5\n"
                       "train.outer_epochs = 120\n")
    reported = run_experiment(cfg)["runs"][0]["lambda_trace"]
    pairs = [[p.lam, p.lam_hat] for p in trained[0].lambdas]
    assert len(pairs) == 120 and len(reported) == 50
    steps = [-1]  # the step of each reported pair, in order
    for pair in reported:
        steps.append(pairs.index(pair, steps[-1] + 1))
    # pair i is step i * 119 // 49, so pair 21 is step 51, not 50
    assert steps[1:] == [i * 119 // 49 for i in range(50)]


# runs whose inner steps overflow, so each trainer's losses go non-finite,
# and the epoch that reports it
_DIVERGED = {
    # the third step's losses are non-finite; checked only on the every-10th
    # objective pass, they were reported at epoch 9
    "tkml_aorr": (_ML6 + ("aggregate = tkml_aorr\ngrid.m = 1,2\n"
                          "grid.k = 20,30\ntrain.batch = 0\n"
                          "train.warmup_epochs = 5\ntrain.outer_epochs = 20\n"),
                  2),
    "aorr": (_BINARY + ("aggregate = aorr\ngrid.m = 2\ngrid.k = 50\n"
                        "train.outer_epochs = 3\ntrain.inner_epochs = 20\n"),
             0),
    "auto_aorr": (_BINARY + ("aggregate = auto_aorr\nsplit = 0.5,0.25,0.25\n"
                             "train.warmup_epochs = 5\n"
                             "train.outer_epochs = 3\ntrain.inner_epochs = 20\n"),
                  0),
    # a validation snapshot with non-finite weights was a LinearModel
    # ValueError, exit 1
    "tkml-snapshot": (_ML6 + ("split = 0.5,0.25,0.25\ntrain.batch = 16\n"
                              "train.outer_epochs = 1\n"
                              "train.inner_epochs = 200\n"), 0),
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


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("text", [
    _BINARY + "aggregate = average\ntrain.outer_epochs = 3\n",
    _BINARY + ("aggregate = atk\ngrid.k = 5,10\nsplit = 0.5,0.25,0.25\n"
               "train.outer_epochs = 2\ntrain.inner_epochs = 20\n"),
    _BINARY + ("aggregate = auto_aorr\nsplit = 0.5,0.25,0.25\n"
               "train.warmup_epochs = 5\ntrain.outer_epochs = 2\n"
               "train.inner_epochs = 20\n"),
    _ML6 + ("aggregate = tkml_aorr\ngrid.m = 1\ngrid.k = 20\n"
            "train.warmup_epochs = 5\ntrain.outer_epochs = 20\n"),
    _ML6 + "loss = multilabel_lr\naggregate = average\ntrain.outer_epochs = 5\n",
], ids=["sgd_average_train", "dca_train", "auto_train", "tkml_aorr_train",
        "multilabel_lr"])
def test_reports_are_strict_json(tmp_path, text):
    # dca_train, which learns no lam_hat, wrote NaN into lambda_trace
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--name", "report"]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text(),
                        parse_constant=_reject_constant)
    trace = report["runs"][0]["lambda_trace"]
    if report["config"]["aggregate"] == "atk":  # dca_train
        assert trace and all(lam_hat is None for _, lam_hat in trace)


def test_a_scored_dca_candidate_is_not_scored_again(monkeypatch):
    # each of two restarts scores its 2 snapshots and its final iterate on
    # the validation part, and the kept model is scored on the test part;
    # ranking the candidates scored each final iterate a second time
    _cpus(monkeypatch, 1)
    evaluate, calls = cli._evaluate, []

    def counting(model, rows, k):
        calls.append(rows.n)
        return evaluate(model, rows, k)

    monkeypatch.setattr(cli, "_evaluate", counting)
    run_experiment(parse_config(
        "task = binary\naggregate = aorr\ndataset = synthetic\n"
        "split = 0.5,0.25,0.25\ngrid.m = 2\ngrid.k = 50\ntrain.batch = 4\n"
        "train.outer_epochs = 1\ntrain.inner_epochs = 200\nrestarts = 2\n"))
    assert len(calls) == 7


def test_a_probe_computes_no_average_precision(monkeypatch):
    # each of two repeats scores 2 snapshots and its final iterate on the
    # validation part by top-k accuracy alone, and computes the average
    # precision once, for its report; each probe used to compute it too
    _cpus(monkeypatch, 1)
    accuracy, precision = cli.topk_multilabel_accuracy, cli.average_precision
    calls = []

    def counting_accuracy(*args):
        calls.append("accuracy")
        return accuracy(*args)

    def counting_precision(*args):
        calls.append("precision")
        return precision(*args)

    monkeypatch.setattr(cli, "topk_multilabel_accuracy", counting_accuracy)
    monkeypatch.setattr(cli, "average_precision", counting_precision)
    run_experiment(parse_config(
        _MULTILABEL + "aggregate = tkml\nsplit = 0.6,0.2,0.2\n"
        "train.batch = 4\ntrain.outer_epochs = 1\ntrain.inner_epochs = 200\n"
        "repeats = 2\n"))
    assert calls.count("accuracy") == 2 * (3 + 1)
    assert calls.count("precision") == 2
