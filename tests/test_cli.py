import dataclasses
import itertools
import json

import pytest

from rankedrange import (
    NoiseSpec,
    SyntheticSpec,
    TrainConfig,
    cli,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    split_dataset,
)
from rankedrange.cli import (
    EXIT_DATA,
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
                "tkml_aorr_train", "multilabel_lr_train")
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


def test_main_usage_errors(tmp_path):
    assert main(["no-such-command"]) == EXIT_USAGE
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
    calls = []
    load = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset",
                        lambda *args: calls.append(args) or load(*args))
    run_experiment(cfg, str(tmp_path / "shared"), "r")
    assert len(calls) == 1
    # the same experiment with the file loaded again on every repeat
    monkeypatch.setitem(cli._GENERATORS, str(data_path),
                        lambda cfg, seed: cli.load_dataset(cfg.dataset, cfg.format))
    run_experiment(cfg, str(tmp_path / "each"), "r")
    assert len(calls) == 4
    for name in ("r.json", "r.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == \
            (tmp_path / "each" / name).read_bytes()


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
