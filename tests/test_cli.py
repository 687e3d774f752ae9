import dataclasses
import json

import pytest

from rankedrange import NoiseSpec, TrainConfig
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
