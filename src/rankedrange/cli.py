"""Batch experiment harness: seeded train/evaluate runs from plain-text
configs, grid sweeps, a ``data`` command that writes the dataset a config
names (with its label noise) as CSV, and a registry of desk-scale
benchmark reproductions.  Reports are machine readable (JSON + flat CSV)
and byte-identical across re-runs of the same config.

The reproductions (``REPRO_REGISTRY``) are the paper's tables and figures
as data: each entry is a table header and its rows, and each row is a
config text that ``repro`` parses with ``parse_config`` and runs with
``run_experiment``, exactly as ``train`` runs a config file.

The repeats of an experiment, the candidates of a ranked-range run (its
(m, k) cells times its restarts) and the average-loss warm starts of a
``tkml_aorr_train`` run (one ``sgd_average_train`` run per restart) run on
up to one process per CPU (``_ordered_map``): the caller runs its share
of them, forks a worker with a pipe of its own for each other share, with
no process pool, and collects all the results in item order.  A worker
that dies without sending a result is a RuntimeError naming the item; on
any error the caller kills and reaps its workers before it raises.
Every command holds OpenBLAS at one thread (``single_blas_thread``), so the
report is the same as a serial run's at any repeat count.

Config files are plain text, one ``key = value`` per line, ``#`` starts a
comment.  Every key has its field's default; the resolved config
is embedded in every report so runs are self-describing.  The keys are the
fields of the config dataclasses: ``train.f`` and ``noise.f`` name fields
of TrainConfig and NoiseSpec, any other ``a.b`` names the ExperimentConfig
field ``a_b``, and each field's annotation picks its value parser.  A
float value (a comma list's too) must be finite, a comma list holds no
empty item and a map maps each label once; each is a config error at its
key otherwise.

Keys
----
task              binary | multiclass | multilabel
loss              logistic | hinge | softmax | tkml | multilabel_lr
aggregate         average | max | median | atk | aorr | topk | tkml |
                  tkml_aorr | auto_aorr; the trimmed range (m, k) is aorr
                  with a class-label loss and tkml_aorr with the tkml loss
dataset           monk | synthetic | blobs | multilabel-synth | <file path>
format            csv | libsvm (for file datasets)
split             comma list of fractions (train first, test last; a middle
                  fraction becomes the validation part)
repeats           number of seeded runs
restarts          random restarts per run for a ranked-range aggregate
                  (not average or auto_aorr); each (m, k) cell trains
                  from each restart, and the best is picked on the
                  validation part
base_seed         run i uses seed base_seed + i (base_seed >= 0)
eval_k            k for top-k metrics (multiclass / multilabel; 1 on binary)
noise.mode        none | symmetric | asymmetric_map | multilabel_symmetric
                  (the other noise.* keys need a mode other than none)
noise.p           flip probability (a run's train part; every row for data)
noise.map         asymmetric map, e.g. "1:2,2:3"
noise.seed        offset (>= 0) added to the run seed for the noise draw
synth.balanced    2-D generator: balanced classes (true/false)
synth.outliers    2-D generator: planted outlier count
blobs.n/.d/.l     multiclass blob generator dimensions
blobs.sep         blob center separation
ml.n/.d/.l        multilabel generator dimensions
ml.min/.max       label-set size range
ml.noise          score noise of the multilabel generator
grid.m, grid.k    comma lists: the ranks m and k of a ranked range's
                  (m, k) cells.  atk and topk read grid.k >= 1, aorr and
                  tkml_aorr read grid.m >= 1 (m = 0 is atk) and grid.k >= 0
                  (unset or 0: k = n), and no other aggregate reads either;
                  a key the aggregate does not read is a config error.  A
                  run of more than one cell reports the kept one
train.*           any TrainConfig field but seed (see base_seed): the
                  optimizer settings and kprime

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure, 4 crash.  A config error names its key: the check that tests a
value raises ``data.ConfigError`` at that key, also when it tests it against
data, and a generator size too large for numpy is one at its n, d or l key.
A data error is a ``data.DataParseError`` (a file and line) or an OSError;
any other exception is a bug, and ``main`` prints its traceback and exits 4.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import dataclasses
import functools
import io
import json
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation

import numpy as np

from .core import RankedRange
from .data import (
    ConfigError,
    DataParseError,
    Dataset,
    NoiseSpec,
    SyntheticSpec,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    inject_noise,
    load_dataset,
    monk_dataset,
    open_text,
    split_dataset,
    split_sizes,
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
    TrainConfig,
    auto_train,
    dca_train,
    estimate_noise_count,
    make_loss_spec,
    sgd_average_train,
    tkml_aorr_train,
)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC, EXIT_CRASH = 0, 1, 2, 3, 4

# the aggregates that each (task, loss) trains: the margin and softmax
# losses of a class label share theirs; the tkml loss takes label sets, and
# on multiclass data a class label is a singleton set
_CLASS_AGGREGATES = ("average", "max", "median", "atk", "aorr", "topk",
                     "auto_aorr")
_TRAINS = {
    ("binary", "logistic"): _CLASS_AGGREGATES,
    ("binary", "hinge"): _CLASS_AGGREGATES,
    ("multiclass", "softmax"): _CLASS_AGGREGATES,
    ("multiclass", "tkml"): ("average", "tkml"),
    ("multilabel", "tkml"): ("average", "atk", "tkml", "tkml_aorr"),
    ("multilabel", "multilabel_lr"): ("average",),
}
TASKS = tuple(dict.fromkeys(task for task, _ in _TRAINS))

# each ranked-range aggregate: the grid keys it reads, each with its least
# value, and the (m, k) it trains from a grid cell (m, k), k = 0 read as n,
# and the n training rows
_RANGES = {
    "max": ({}, lambda m, k, n: (0, 1)),
    "median": ({}, lambda m, k, n: ((n + 1) // 2 - 1, (n + 1) // 2)),
    "atk": ({"grid.k": 1}, lambda m, k, n: (0, k)),
    "topk": ({"grid.k": 1}, lambda m, k, n: (k - 1, k)),
    "aorr": ({"grid.m": 1, "grid.k": 0}, lambda m, k, n: (m, k)),
    "tkml_aorr": ({"grid.m": 1, "grid.k": 0}, lambda m, k, n: (m, k)),
    "tkml": ({}, lambda m, k, n: (0, n)),  # average-loss descent, all rows
}


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
        # an unknown loss or aggregate is one that no (task, loss) trains
        trains = _TRAINS.get((self.task, self.loss))
        if trains is None:
            losses = [loss for task, loss in _TRAINS if task == self.task]
            raise ConfigError("loss", f"the {self.task} task trains with one "
                                      f"of {losses}")
        if self.aggregate not in trains:
            raise ConfigError("aggregate", f"the {self.loss} loss on {self.task} "
                                           f"data trains one of {trains}")
        if not 2 <= len(self.split) <= 3:
            raise ConfigError("split", "need 2 or 3 fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError("split", f"fractions {self.split} do not sum to 1")
        for key, low in (("repeats", 1), ("restarts", 1), ("base_seed", 0),
                         ("eval_k", 1), ("blobs.n", 1), ("blobs.d", 1),
                         ("blobs.l", 2), ("ml.n", 1), ("ml.d", 1), ("ml.min", 1)):
            if getattr(self, key.replace(".", "_")) < low:
                raise ConfigError(key, f"must be >= {low}")
        if not self.ml_min <= self.ml_max < self.ml_l:
            # a label set holds ml.min..ml.max labels and leaves one out
            raise ConfigError("ml.max", f"must be in {self.ml_min}..{self.ml_l - 1}")
        reads = _RANGES.get(self.aggregate, ({},))[0]
        for key in ("grid.m", "grid.k"):
            values, low = getattr(self, key.replace(".", "_")), reads.get(key, 0)
            if values and key not in reads:
                raise ConfigError(key, f"{self.aggregate} reads no {key}")
            if min(values or (0,)) < low:  # an unset key reads as 0
                raise ConfigError(key, f"{self.aggregate} needs {key} >= {low}")
        if self.aggregate == "auto_aorr" and len(self.split) != 3:
            raise ConfigError("split", "auto_aorr needs a validation part")
        if self.restarts > 1 and self.aggregate not in _RANGES:
            raise ConfigError("restarts", f"{self.aggregate} trains no ranked range")
        if self.restarts > 1 and len(self.split) != 3:
            raise ConfigError("restarts", "restarts > 1 needs a validation "
                                          "part to select on")


def _parse_bool(value):
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false")


def _parse_float(value):
    number = float(value)
    if not np.isfinite(number):
        raise ValueError("expected a finite number")
    return number


def _parse_tuple(cast):
    return lambda value: tuple(cast(v) for v in value.split(","))


def _parse_map(value):
    pairs = [item.partition(":") for item in value.split(",")]
    flips = {int(src): int(dst) for src, _, dst in pairs}
    if len(flips) < len(pairs):
        raise ValueError("a label is mapped twice")
    return flips


# one parser per field annotation of the config dataclasses
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_tuple(_parse_float),
    "tuple[int, ...]": _parse_tuple(int),
    "dict | None": _parse_map,
}
_SECTIONS = {"train": TrainConfig, "noise": NoiseSpec}


def _parse_value(key: str, annotation: str, value: str):
    try:
        return _PARSERS[annotation](value)
    except ValueError as exc:
        raise ConfigError(key, f"expected {annotation}, got {value!r}: "
                               f"{exc}") from None


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
    if key == "train.seed":
        raise ConfigError(key, "run i trains with seed base_seed + i; set "
                               "base_seed instead")
    return section, name, types[name]


def _read_config(path: str) -> str:
    """The text of the config file at ``path``, read by ``open_text``; a
    byte that is not UTF-8 is a config error at its line."""
    with open_text(path, lambda _, n, why: ConfigError(f"line {n}", why)) as fh:
        return fh.read()


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines, ended at LF, CRLF or CR, into an ExperimentConfig."""
    parts: dict = {"": {}, "train": {}, "noise": {}}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
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
        if "p" not in noise:
            NoiseSpec(**noise, p=0.0)  # an unknown mode is named first
            raise ConfigError("noise.p", f"noise mode {noise['mode']} needs noise.p")
        plain["noise"] = NoiseSpec(**noise)
    elif set(noise) - {"mode"}:
        raise ConfigError("noise.mode", "noise fields are set but there is no "
                                        "noise mode")
    plain["train"] = TrainConfig(**parts["train"])
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

# the dataset names that stand for a seeded generator rather than a file
_GENERATORS = {
    "monk": lambda cfg, seed: monk_dataset(),
    "synthetic": lambda cfg, seed: gen_synthetic(SyntheticSpec(
        balanced=cfg.synth_balanced, n_outliers=cfg.synth_outliers, seed=seed)),
    "blobs": lambda cfg, seed: gen_multiclass_blobs(
        cfg.blobs_n, cfg.blobs_d, cfg.blobs_l, seed=seed,
        separation=cfg.blobs_sep),
    "multilabel-synth": lambda cfg, seed: gen_multilabel_synthetic(
        cfg.ml_n, cfg.ml_d, cfg.ml_l, seed=seed, min_labels=cfg.ml_min,
        max_labels=cfg.ml_max, score_noise=cfg.ml_noise),
}
# the (rows, cols) keys of each array that a sized generator shapes, its
# n x d features first
_SIZE_KEYS = {
    "blobs": (("blobs.n", "blobs.d"), ("blobs.l", "blobs.d")),
    "multilabel-synth": (("ml.n", "ml.d"), ("ml.l", "ml.d"), ("ml.n", "ml.l")),
}


def _generate(cfg: ExperimentConfig, seed: int) -> Dataset:
    """The dataset that the generator named by ``cfg.dataset`` makes for
    ``seed``.  A size too large for numpy, one that cannot be allocated or
    whose largest array it cannot shape (a ValueError before any
    allocation), is a config error at the larger key of that array, given
    with the first array that has the key."""
    try:
        return _GENERATORS[cfg.dataset](cfg, seed)
    except (MemoryError, ValueError) as exc:
        if cfg.dataset not in _SIZE_KEYS:
            raise
        arrays = _SIZE_KEYS[cfg.dataset]
        size = {key: getattr(cfg, key.replace(".", "_"))
                for shape in arrays for key in shape}
        rows, cols = max(arrays, key=lambda shape: size[shape[0]] * size[shape[1]])
        if (isinstance(exc, ValueError)
                and 8 * size[rows] * size[cols] <= np.iinfo(np.intp).max):
            raise
        key = max((rows, cols), key=size.get)  # rows on a tie, as n before d
        rows, cols = next(shape for shape in arrays if key in shape)
        raise ConfigError(key, f"{size[rows]} x {size[cols]} features do not "
                               "fit in memory") from None


# True inside a running _ordered_map, and so in its forked workers
_IN_MAP = False


@functools.cache
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, found through the
    libraries mapped into this process; None when there is no such pair."""
    import ctypes

    try:
        with open("/proc/self/maps", "rb") as fh:  # paths need not be UTF-8
            libs = {line.split()[-1] for line in fh if b"openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(os.fsdecode(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Hold OpenBLAS at one thread inside the block, so that a result does
    not depend on how many threads a product was split over.  Yields False,
    and holds nothing, when OpenBLAS's thread count cannot be set."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield True
    finally:
        set_threads(threads)


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a worker, as text: the cause of
    that error when the caller raises it."""

    def __str__(self):
        return self.args[0]


def _serve(fn, items, fd):
    """A forked worker's whole life: run ``items`` in order, and write each
    result, or the first exception and its traceback, to the pipe ``fd`` as
    an 8-byte length and a pickle; then exit.  A message that cannot be
    pickled ends the worker with status 1, its traceback on stderr."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            for x in items:
                try:
                    message = (True, fn(x))
                except Exception as exc:
                    import traceback

                    message = (False, exc, traceback.format_exc())
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                pipe.write(len(data).to_bytes(8, "little") + data)
                pipe.flush()
                if not message[0]:
                    break
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


def _receive(worker, i):
    """Item i's result, read from ``worker`` ([pid, pipe]); an error that
    the item raised in the worker is raised here.  A worker that ends
    without sending the result is reaped (its pid set to None) and named in
    a RuntimeError."""
    pid, pipe = worker
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size) if len(head) == 8 else b""
    if len(head) < 8 or len(data) < size:
        worker[0] = None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(f"the worker process of item {i} ended without "
                           f"its result ({how})")
    try:
        message = pickle.loads(data)
    except Exception as exc:
        raise RuntimeError(f"the result of item {i} could not be unpickled "
                           "from its worker process") from exc
    if message[0]:
        return message[1]
    raise message[1] from _WorkerTraceback(message[2])


def _ordered_map(fn, items):
    """``[fn(x) for x in items]``, spread over up to one process per CPU
    this process may run on.

    With s processes, the caller runs items 0, s, 2s, ...; worker c, forked
    from the caller with one pipe of its own, runs the items i with
    i % s == c in order, and inherits fn and the items, so only results
    cross the pipe.  The caller collects the results in item order,
    running its own items and reading a worker's next result as it reaches
    them, so it raises the first error in item order, as a serial map does.
    A worker that ends without sending a result it owes (killed, exited, or
    holding a result that does not pickle) is a RuntimeError that names the
    item and the exit status.  On any error the caller kills its workers
    before it raises, and it reaps every worker it forked.  OpenBLAS is held
    at one thread while the map runs, serial or not.  Serial for one item
    or one CPU, inside a map (nested maps and the workers), when OpenBLAS's
    thread count cannot be set, and where there is no ``os.fork``.
    """
    global _IN_MAP
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    share = min(len(items), cpus)
    with single_blas_thread() as pinned:
        if share < 2 or _IN_MAP or not pinned or not hasattr(os, "fork"):
            return [fn(x) for x in items]
        workers = {}  # c -> [pid, read end of its pipe]; pid None once reaped
        _IN_MAP = True
        try:
            for c in range(1, share):
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[c::share], write)
                os.close(write)
                workers[c] = [pid, open(read, "rb")]
            return [_receive(workers[i % share], i) if i % share else fn(x)
                    for i, x in enumerate(items)]
        except BaseException:
            for pid, _ in workers.values():
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _IN_MAP = False
            for pid, pipe in workers.values():
                if pid is not None:
                    os.waitpid(pid, 0)
                pipe.close()


def _check_k(key: str, k: int, data: Dataset) -> None:
    """A top-k metric picks k of the l scores of a row, the one score of
    binary data too; a label set must stay a proper subset of the labels."""
    top = data.l - 1 if data.is_multilabel else data.l
    if not 1 <= k <= top:
        raise ConfigError(key, f"{key.lstrip('-')}={k} outside 1..{top} "
                               f"for l={data.l}")


def _train_model(cfg: ExperimentConfig, tr: Dataset, va: Dataset | None,
                 seed: int, holdout: Dataset | None = None):
    """Dispatch on the aggregate; returns (TrainReport, extras dict).  The
    tkml loss trains the ranked ranges other than ``tkml`` with
    ``tkml_aorr_train``.

    A ranked range trains one candidate per (m, k) cell and restart, and
    keeps the first with the least ``score`` on ``va``, or on ``holdout``
    when there is no validation part.  The cells are the distinct ranges of
    the ``grid.m`` x ``grid.k`` values (an unset grid.m reads as m = 0, an
    unset grid.k as k = 0, and k = 0 as n).  A cell that does not fit the
    n training rows is a config error at ``grid.k`` when its k exceeds n,
    else at ``grid.m``.
    ``dca_train`` keeps its stochastic snapshots by the same ``score`` on
    ``va``, and reports the key its candidate ranks by."""
    agg = cfg.aggregate
    base = replace(cfg.train, seed=seed)
    extras: dict = {}
    _check_k("eval_k", cfg.eval_k, tr)
    spec = make_loss_spec(cfg.loss, base.kprime, tr.l)

    def score(model, rows):
        """The report metric that picks a model: the highest top-k accuracy
        on label sets, else the least ``error`` of ``_evaluate``'s table."""
        if rows.is_multilabel:  # the table's average_precision goes unread
            return -topk_multilabel_accuracy(predict_matrix(
                model, rows.features), rows.label_matrix, cfg.eval_k)
        return _evaluate(model, rows, cfg.eval_k)["error"]

    if agg == "average":
        return sgd_average_train(tr, spec, base), extras
    if agg == "auto_aorr":
        report = auto_train(tr, va, spec, base)
        lam_hat = report.lambdas[-1].lam_hat
        extras["noise_estimate"] = estimate_noise_count(
            spec.losses(report.model.weights, report.model.bias, tr), lam_hat)
        return report, extras

    minimax = cfg.loss == "tkml" and agg != "tkml"  # tkml_aorr_train
    pairs = dict.fromkeys(_RANGES[agg][1](m, k or tr.n, tr.n)
                          for m in cfg.grid_m or (0,) for k in cfg.grid_k or (0,))
    cells = []
    for m, k in pairs:
        try:
            cells.append(RankedRange(m, k).validate(tr.n))
        except ValueError as exc:
            raise ConfigError("grid.k" if k > tr.n else "grid.m",
                              str(exc)) from None
    # seeded restarts from train.init_scale; r > 0 draws at 0.5 if it is 0
    restarts = [{}] if cfg.restarts == 1 else [
        {"seed": seed * 100 + r, "init_scale": base.init_scale or 0.5 * bool(r)}
        for r in range(cfg.restarts)]
    # one average-loss warm start per restart serves every (m, k) cell
    starts = [None] * len(restarts)
    if minimax and base.warmup_epochs:
        warm = replace(base, batch=0, outer_epochs=base.warmup_epochs)
        starts = _ordered_map(lambda r: sgd_average_train(
            tr, spec, replace(warm, **r)).model, restarts)
    candidates = [(cell, replace(base, **r), start) for cell in cells
                  for r, start in zip(restarts, starts)]
    probe = None if va is None else functools.partial(score, rows=va)
    reports = _ordered_map(
        (lambda c: tkml_aorr_train(tr, spec, *c)) if minimax
        else (lambda c: dca_train(tr, spec, *c[:2], score=probe)),
        candidates)
    best = 0
    if len(reports) > 1:
        rows = va if va is not None else holdout
        keys = [score(r.model, rows) if r.key is None else r.key for r in reports]
        best = keys.index(min(keys))  # the first of the least
    if len(cells) > 1:
        extras["grid_choice"] = {"m": candidates[best][0].m,
                                 "k": candidates[best][0].k}
    return reports[best], extras


def _evaluate(model, rows: Dataset, k: int) -> dict:
    """The metric table of ``model`` on ``rows``, by their labels and k
    alone: label sets report top-k accuracy and average precision, classes
    at k > 1 top-k accuracy and its error, and every other case the top-1
    error and accuracy."""
    scores = predict_matrix(model, rows.features)
    if rows.is_multilabel:
        Y = rows.label_matrix
        return {"topk_accuracy": topk_multilabel_accuracy(scores, Y, k),
                "average_precision": average_precision(scores, Y)}
    if k > 1:  # classes: _check_k holds binary data at k = 1
        acc = topk_accuracy(scores, rows.labels, k)
        return {"topk_accuracy": acc, "error": 1.0 - acc}
    err = error_rate(scores[:, 0] if rows.l == 1 else scores, rows.labels)
    return {"error": err, "accuracy": 1.0 - err}


def _thin(seq, limit=50):
    if len(seq) <= limit:
        return list(seq)
    return [seq[i * (len(seq) - 1) // (limit - 1)] for i in range(limit)]


def _changed_rows(clean: Dataset, noisy: Dataset) -> int:
    """The number of rows whose label differs between the two datasets."""
    return int(np.count_nonzero(
        (clean.label_matrix != noisy.label_matrix).any(axis=1)))


def _single_run(cfg: ExperimentConfig, run: int, loaded: list) -> dict:
    """One seeded repeat on ``loaded[run]``, a loaded file, which it takes
    out of the list; when the list is empty, on the dataset that the
    generator named by ``cfg.dataset`` makes for the seed.  The split takes
    the rows it is given (``split_dataset``'s ``copy=False``), except that a
    repeat of a file that other repeats share splits a copy, and
    ``standardize`` z-scores the parts in place; training holds the
    z-scored parts alone."""
    seed = cfg.base_seed + run
    if loaded:
        data, loaded[run] = loaded[run], None
    else:
        data = _generate(cfg, seed)
    kind = ("multilabel" if data.is_multilabel
            else "binary" if data.l == 1 else "multiclass")
    if kind != cfg.task:
        raise ConfigError("task", f"dataset {cfg.dataset!r} holds {kind} "
                                  f"labels, not {cfg.task} labels")
    parts, _, _ = standardize(*split_dataset(data, cfg.split, seed,
                                             copy=len(loaded) > 1))
    del data  # the parts hold its rows or their copy; its labels go
    tr, te = parts[0], parts[-1]
    va = parts[1] if len(parts) == 3 else None
    if cfg.noise is not None:
        tr = inject_noise(tr, replace(cfg.noise, seed=cfg.noise.seed + seed))
    report, extras = _train_model(cfg, tr, va, seed, holdout=te)
    if cfg.noise is not None and cfg.aggregate == "auto_aorr":
        extras["true_flips"] = _changed_rows(parts[0], tr)
    metrics = _evaluate(report.model, te, cfg.eval_k)
    record = {
        "run": run,
        "seed": seed,
        "metrics": metrics,
        "objective_first": report.objective_trace[0],
        "objective_last": report.objective_trace[-1],
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

    A file's contents do not depend on the seed, so one load serves every
    repeat: each repeat takes its own reference to it out of a list, and a
    process frees the loaded rows once the last of its repeats has taken
    them.  A one-repeat run splits the loaded rows themselves, so it holds
    one copy of them from the parse to the report.
    """
    loaded = ([] if cfg.dataset in _GENERATORS
              else [load_dataset(cfg.dataset, cfg.format)] * cfg.repeats)
    runs = _ordered_map(lambda run: _single_run(cfg, run, loaded),
                        range(cfg.repeats))
    aggregates = {}
    for key in sorted(runs[0]["metrics"]):
        vals = np.array([r["metrics"][key] for r in runs])
        aggregates[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
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
        for stat in ("mean", "std"):
            writer.writerow([stat, ""] + [_fmt(report["aggregates"][k][stat])
                                          for k in metric_names])
    return json_path, csv_path


# ---------------------------------------------------------------------------
# reproduction registry: desk-scale reruns of the published comparisons,
# reported side by side with the published reference numbers.  An entry is
# one table; each of its rows is one experiment, written as config text.

@dataclass(frozen=True)
class ReproRow:
    cells: tuple  # the leading table cells
    name: str  # report name
    config: str  # key = value config text
    reference: tuple = ()  # published numbers, the last table cells


@dataclass(frozen=True)
class ReproEntry:
    header: tuple
    values: tuple  # one function of the report per value column
    rows: tuple
    scaled: bool = False  # blobs.n follows --subsample
    real_data: str | None = None  # local CSV copy that replaces the stand-in


def _pct(metric: str, stat: str = "mean"):
    """Table value: 100 x the aggregate ``stat`` of ``metric``."""
    return lambda rep: 100 * rep["aggregates"][metric][stat]


def _run_mean(key: str):
    """Table value: the mean over the runs of a per-run report field."""
    return lambda rep: float(np.mean([r[key] for r in rep["runs"]]))


# Monk (Table 3, Figure 6): the full 432-sample rule-generated set
_MONK = ("task = binary\nloss = logistic\ndataset = monk\n"
         "split = 0.5,0.25,0.25\ntrain.C = 1e4\n"
         "train.eta_inner = 0.01\ntrain.outer_epochs = 5\n"
         "train.inner_epochs = 2000\ntrain.batch = 1\n")

# the stand-in for MNIST (Tables 5, 6, 10): 10-class Gaussian blobs split
# 10:2:1 into train, validation and test parts
_BLOBS = ("task = multiclass\ndataset = blobs\nsplit = 0.7692307692307693,"
          "0.15384615384615385,0.07692307692307693\nrepeats = 3\n"
          "noise.seed = 1000\nblobs.d = 200\nblobs.l = 10\nblobs.sep = 4.0\n"
          "train.C = 1e4\n")
_MNIST_AVERAGE = _BLOBS + (
    "loss = softmax\naggregate = average\nnoise.mode = symmetric\n"
    "train.eta_outer = 0.4\ntrain.outer_epochs = 400\ntrain.batch = 0\n")
_MNIST_AUTO = _BLOBS + (
    "loss = softmax\naggregate = auto_aorr\nnoise.mode = symmetric\n"
    "train.eta_outer = 0.4\ntrain.eta_inner = 0.02\ntrain.outer_epochs = 40\n"
    "train.inner_epochs = 200\ntrain.warmup_epochs = 300\ntrain.batch = 128\n"
    "train.patience = 3\ntrain.refresh_every = 50\n")
# Table 10 trains for top-1 accuracy while every class flips to the next
_MNIST_TOP1 = _BLOBS + (
    "loss = tkml\naggregate = tkml\neval_k = 1\nnoise.mode = asymmetric_map\n"
    "noise.map = 1:2,2:3,3:4,4:5,5:6,6:7,7:8,8:9,9:10,10:1\n"
    "train.eta_inner = 0.05\ntrain.outer_epochs = 1\n"
    "train.inner_epochs = 6000\ntrain.batch = 16\ntrain.kprime = 1\n")

# the stand-in for emotions (Tables 7, 8, Figure 8)
_EMOTIONS = ("task = multilabel\ndataset = multilabel-synth\n"
             "split = 0.6,0.2,0.2\nrepeats = 5\nml.n = 593\nml.d = 72\n"
             "ml.l = 6\nml.min = 1\nml.max = 3\nml.noise = 2.0\n"
             "train.C = 1e4\n")
_EMOTIONS_LR = _EMOTIONS + (
    "loss = multilabel_lr\naggregate = average\ntrain.eta_outer = 0.5\n"
    "train.outer_epochs = 1000\ntrain.batch = 0\n")
_EMOTIONS_TKML = _EMOTIONS + (
    "loss = tkml\naggregate = tkml\ntrain.eta_outer = 0.1\n"
    "train.eta_inner = 0.1\ntrain.outer_epochs = 1\ntrain.inner_epochs = 8000\n"
    "train.batch = 16\n")

# the stand-in for yeast (Table 11, Figure 9), 30% of the training label
# sets replaced.  Its training part has int(0.8 * 2417) = 1933 rows, and
# the (m, k) grids are fractions of that: 1933 // 2 = 966, 3 * 1933 // 4 =
# 1449, 1933 // 4 = 483, 1933 // 3 = 644, 1933 // 8 = 241.
_YEAST = ("task = multilabel\nloss = tkml\ndataset = multilabel-synth\n"
          "split = 0.8,0.2\nrepeats = 5\neval_k = 4\n"
          "noise.mode = multilabel_symmetric\nnoise.p = 0.3\nnoise.seed = 80\n"
          "ml.n = 2417\nml.d = 103\nml.l = 14\nml.min = 3\nml.max = 6\n"
          "ml.noise = 1.0\ntrain.C = 1e4\ntrain.eta_outer = 0.3\n"
          "train.eta_inner = 0.3\ntrain.outer_epochs = 1000\n"
          "train.warmup_epochs = 300\ntrain.batch = 0\ntrain.kprime = 4\n")

# the 2-D outlier generator (Figures 4, 5)
_OUTLIERS = ("task = binary\nloss = logistic\ndataset = synthetic\n"
             "split = 0.7,0.3\nrepeats = 10\ntrain.C = 1e4\n"
             "train.eta_inner = 0.005\ntrain.outer_epochs = 8\n"
             "train.inner_epochs = 2000\ntrain.batch = 0\n")
_OUTLIER_AGGREGATES = (
    ("average", "aggregate = average\ntrain.eta_outer = 0.1\n"
                "train.outer_epochs = 2000\n"),
    ("max", "aggregate = max\n"),
    ("atk", "aggregate = atk\ngrid.k = 2\n"),
    ("aorr", "aggregate = aorr\ngrid.m = 1\ngrid.k = 2\n"),
)

_ERROR_HEADER = ("aggregate", "error_mean_pct", "error_std_pct")
_ERROR_VALUES = (_pct("error"), _pct("error", "std"))

REPRO_REGISTRY = {
    "table3": ReproEntry(_ERROR_HEADER + ("reference_pct",), _ERROR_VALUES, (
        ReproRow(("maximum",), "table3_maximum", _MONK +
                 "repeats = 10\naggregate = max\ntrain.eta_inner = 0.005\n"
                 "train.inner_epochs = 1000\ntrain.batch = 0\n", (22.41,)),
        ReproRow(("average",), "table3_average", _MONK +
                 "repeats = 10\naggregate = average\ntrain.eta_outer = 0.1\n"
                 "train.outer_epochs = 2000\ntrain.inner_epochs = 1\n"
                 "train.batch = 0\n", (20.46,)),
        ReproRow(("atk",), "table3_atk", _MONK +
                 "repeats = 10\naggregate = atk\ngrid.k = 70\n", (16.76,)),
        ReproRow(("aorr",), "table3_aorr", _MONK +
                 "repeats = 10\naggregate = aorr\ngrid.m = 20\ngrid.k = 70\n"
                 "restarts = 5\n", (12.69,)),
    )),
    "table5": ReproEntry(
        ("aggregate", "noise_p", "accuracy_pct", "reference_pct"),
        (_pct("accuracy"),), (
            ReproRow(("average", 0.2), "table5_average_p2",
                     _MNIST_AVERAGE + "noise.p = 0.2\n", (89.69,)),
            ReproRow(("aorr", 0.2), "table5_aorr_p2",
                     _MNIST_AUTO + "noise.p = 0.2\n", (92.42,)),
            ReproRow(("average", 0.3), "table5_average_p3",
                     _MNIST_AVERAGE + "noise.p = 0.3\n", (88.71,)),
            ReproRow(("aorr", 0.3), "table5_aorr_p3",
                     _MNIST_AUTO + "noise.p = 0.3\n", (92.26,)),
            ReproRow(("average", 0.4), "table5_average_p4",
                     _MNIST_AVERAGE + "noise.p = 0.4\n", (87.77,)),
            ReproRow(("aorr", 0.4), "table5_aorr_p4",
                     _MNIST_AUTO + "noise.p = 0.4\n", (91.87,)),
        ), scaled=True, real_data="data/mnist.csv"),
    "table6": ReproEntry(
        ("noise_p", "ground_truth", "estimate", "reference_truth",
         "reference_estimate"),
        (_run_mean("true_flips"), _run_mean("noise_estimate")), (
            ReproRow((0.2,), "table6_p2", _MNIST_AUTO + "noise.p = 0.2\n",
                     (10000, 11722)),
            ReproRow((0.3,), "table6_p3", _MNIST_AUTO + "noise.p = 0.3\n",
                     (15000, 16431)),
            ReproRow((0.4,), "table6_p4", _MNIST_AUTO + "noise.p = 0.4\n",
                     (20000, 21026)),
        ), scaled=True, real_data="data/mnist.csv"),
    "table7": ReproEntry(
        ("method", "k", "topk_accuracy_pct", "reference_pct"),
        (_pct("topk_accuracy"),), (
            ReproRow(("lr", 1), "table7_lr_k1", _EMOTIONS_LR + "eval_k = 1\n",
                     (73.54,)),
            ReproRow(("tkml", 1), "table7_tkml_k1", _EMOTIONS_TKML +
                     "eval_k = 1\ntrain.kprime = 1\n", (76.80,)),
            ReproRow(("lr", 2), "table7_lr_k2", _EMOTIONS_LR + "eval_k = 2\n",
                     (57.48,)),
            ReproRow(("tkml", 2), "table7_tkml_k2", _EMOTIONS_TKML +
                     "eval_k = 2\ntrain.kprime = 2\n", (62.11,)),
            ReproRow(("lr", 3), "table7_lr_k3", _EMOTIONS_LR + "eval_k = 3\n",
                     (73.20,)),
            ReproRow(("tkml", 3), "table7_tkml_k3", _EMOTIONS_TKML +
                     "eval_k = 3\ntrain.kprime = 3\n", (77.62,)),
        ), real_data="data/emotions.csv"),
    "table8": ReproEntry(
        ("method", "average_precision_pct", "reference_pct"),
        (_pct("average_precision"),), (
            ReproRow(("lr",), "table8_lr", _EMOTIONS_LR + "eval_k = 1\n",
                     (74.85,)),
            ReproRow(("tkml",), "table8_tkml", _EMOTIONS_TKML +
                     "eval_k = 1\ntrain.kprime = 1\n", (84.82,)),
        ), real_data="data/emotions.csv"),
    # the published baseline is a capped top-k SVM, out of scope here; the
    # reference columns still show both published numbers
    "table10": ReproEntry(
        ("noise_p", "top1_accuracy_pct", "reference_pct",
         "reference_baseline_pct"),
        (_pct("accuracy"),), (
            ReproRow((0.2,), "table10_p2", _MNIST_TOP1 + "noise.p = 0.2\n",
                     (83.06, 78.33)),
            ReproRow((0.3,), "table10_p3", _MNIST_TOP1 + "noise.p = 0.3\n",
                     (80.13, 74.65)),
            ReproRow((0.4,), "table10_p4", _MNIST_TOP1 + "noise.p = 0.4\n",
                     (75.0, 68.32)),
        ), scaled=True),
    "table11": ReproEntry(
        ("aggregate", "topk_accuracy_pct", "reference_pct"),
        (_pct("topk_accuracy"),), (
            ReproRow(("average",), "table11_average", _YEAST +
                     "aggregate = average\ntrain.outer_epochs = 300\n",
                     (33.78,)),
            ReproRow(("atk",), "table11_atk", _YEAST +
                     "aggregate = atk\ngrid.k = 966,1449\n", (36.90,)),
            ReproRow(("tkml_aorr",), "table11_tkml_aorr", _YEAST +
                     "aggregate = tkml_aorr\ngrid.m = 483,644\n"
                     "grid.k = 966,1449\n", (44.71,)),
        ), real_data="data/yeast.csv"),
    "fig4": ReproEntry(_ERROR_HEADER, _ERROR_VALUES, tuple(
        ReproRow((label,), f"fig4_{label}", _OUTLIERS +
                 "synth.balanced = true\nsynth.outliers = 1\n" + text)
        for label, text in _OUTLIER_AGGREGATES)),
    "fig5": ReproEntry(_ERROR_HEADER, _ERROR_VALUES, tuple(
        ReproRow((label,), f"fig5_{label}", _OUTLIERS +
                 "synth.balanced = false\nsynth.outliers = 5\n" + text)
        for label, text in _OUTLIER_AGGREGATES)),
    # m = 0 is plain top-k
    "fig6": ReproEntry(("m", "error_mean_pct"), (_pct("error"),), tuple(
        ReproRow((m,), f"fig6_m{m}", _MONK + "repeats = 3\ngrid.k = 70\n" +
                 (f"aggregate = aorr\ngrid.m = {m}\nrestarts = 5\n" if m
                  else "aggregate = atk\n"))
        for m in range(0, 61, 10))),
    "fig8": ReproEntry(("k", "topk_accuracy_pct"), (_pct("topk_accuracy"),),
                       tuple(ReproRow((k,), f"fig8_k{k}", _EMOTIONS_TKML +
                                      f"repeats = 3\neval_k = {k}\n"
                                      f"train.kprime = {k}\n")
                             for k in (1, 2, 3, 4, 5)),
                       real_data="data/emotions.csv"),
    # m = 0 is plain top-k
    "fig9": ReproEntry(("m", "topk_accuracy_pct"), (_pct("topk_accuracy"),),
                       tuple(ReproRow((m,), f"fig9_m{m}", _YEAST +
                                      "repeats = 3\ngrid.k = 1449\n" +
                                      (f"aggregate = tkml_aorr\ngrid.m = {m}\n"
                                       if m else "aggregate = atk\n"))
                             for m in (0, 241, 483, 644, 966)),
                       real_data="data/yeast.csv"),
}


def repro_configs(name: str, subsample: int = 10000) -> list:
    """(report name, ExperimentConfig) of each row of the registry entry
    ``name``, parsed from the row's config text plus two appended lines:
    ``blobs.n`` for ``subsample`` training points on a scaled entry, and
    ``dataset`` when the entry's local CSV copy of the benchmark exists.
    A blobs.n that empties a part of a split is an error at --subsample."""
    entry = REPRO_REGISTRY[name]
    extra = ""
    if entry.scaled:
        n = int(subsample * 1.3)
        try:  # before blobs.n is parsed, which fails at n < 1
            for row in entry.rows:
                split_sizes(n, parse_config(row.config).split)
        except ConfigError as exc:
            raise ConfigError("--subsample", f"blobs.n = {n}: {exc.args[1]}") from None
        extra += f"blobs.n = {n}\n"
    if entry.real_data is not None and os.path.exists(entry.real_data):
        extra += f"dataset = {entry.real_data}\n"
    return [(row.name, parse_config(row.config + extra)) for row in entry.rows]


def _run_repro(name: str, out_dir: str, configs: list) -> None:
    """Run the rows of a registry entry from its configs; write its table."""
    entry = REPRO_REGISTRY[name]
    table = []
    for row, (_, cfg) in zip(entry.rows, configs):
        reference = None
        if row.reference:
            reference = dict(zip(entry.header[-len(row.reference):],
                                 row.reference))
        rep = run_experiment(cfg, out_dir, row.name, reference=reference)
        cells = (*row.cells, *(value(rep) for value in entry.values),
                 *row.reference)
        table.append([_fmt(cell) for cell in cells])
    _write_table(out_dir, name, entry.header, table)


def _write_table(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# command line front end

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankedrange", description="ranked-range loss experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override base_seed")
    p.add_argument("--out", default="reports")
    p.add_argument("--name", default="experiment")

    p = sub.add_parser("repro", help="rerun registered benchmark tables")
    p.add_argument("names", nargs="+", metavar="name")
    p.add_argument("--out", default="reports")
    p.add_argument("--subsample", type=int, default=10000,
                   help="training points for the large-scale tables "
                        "(60000 is full size)")

    p = sub.add_parser("sweep", help="grid sweep over one parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True,
                   help="any config key; a bare TrainConfig field name "
                        "(kprime, C, ...) means train.<name>, and p means "
                        "noise.p")
    p.add_argument("--range", required=True, dest="range_",
                   metavar="START:STOP[:STEP]")
    p.add_argument("--out", default="reports")

    p = sub.add_parser("data", help="write the dataset a config names as "
                                    "CSV, with the config's label noise")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None,
                   help="override base_seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "libsvm"))
    p.add_argument("--k", type=int, default=1)
    return parser


def _command_config(args) -> ExperimentConfig:
    """The config of a ``--config`` file (all defaults without one), with
    ``--seed`` in place of its ``base_seed``."""
    cfg = parse_config(_read_config(args.config) if args.config else "")
    return cfg if args.seed is None else replace(cfg, base_seed=args.seed)


def _cmd_train(args) -> int:
    cfg = _command_config(args)
    report = run_experiment(cfg, args.out, args.name)
    for key, stats in sorted(report["aggregates"].items()):
        print(f"{key}: mean={_fmt(stats['mean'])} std={_fmt(stats['std'])}")
    return EXIT_OK


def _cmd_repro(args) -> int:
    for name in args.names:
        if name not in REPRO_REGISTRY:
            known = ", ".join(sorted(REPRO_REGISTRY))
            print(f"unknown repro name {name!r}; registry: {known}",
                  file=sys.stderr)
            return EXIT_USAGE
    configs = [repro_configs(name, args.subsample) for name in args.names]
    for name, rows in zip(args.names, configs):
        _run_repro(name, args.out, rows)
    return EXIT_OK


def _parse_range(text: str):
    """The values START, START + STEP, ... up to STOP, stepped exactly in
    decimal, so that "0:1:0.1" gives 0.3 and ends at 1.0."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("--range", f"expected START:STOP[:STEP], got {text!r}")
    try:
        nums = [Decimal(p) for p in parts]
    except InvalidOperation:
        raise ConfigError("--range", f"non-numeric bound in {text!r}") from None
    if not all(v.is_finite() for v in nums):
        raise ConfigError("--range", f"non-finite bound in {text!r}")
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else Decimal(1)
    if step <= 0 or stop < start:
        raise ConfigError("--range", "need STOP >= START and STEP > 0")
    count = int((stop - start) // step) + 1
    return [float(start + i * step) for i in range(count)]


def _cmd_sweep(args) -> int:
    text = _read_config(args.config)
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


def _cmd_data(args) -> int:
    cfg = _command_config(args)
    seed = cfg.base_seed
    data = (_generate(cfg, seed) if cfg.dataset in _GENERATORS
            else load_dataset(cfg.dataset, cfg.format))
    out, flipped = data, ""
    if cfg.noise is not None:  # over every row, at a run's seed rule
        out = inject_noise(data, replace(cfg.noise, seed=cfg.noise.seed + seed))
        flipped = f", {_changed_rows(data, out)} labels flipped"
    write_csv(out, args.out)
    print(f"wrote {args.out} ({out.n} samples, {out.d} features{flipped})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    data = load_dataset(args.data, args.format, l=model.l, d=model.d)
    _check_k("--k", args.k, data)
    metrics = _evaluate(model, data, args.k)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "repro": _cmd_repro,
    "sweep": _cmd_sweep,
    "data": _cmd_data,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage and the reason
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        with single_blas_thread():
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:  # a bug: its own status, so that no crash reads as 0-3
        import traceback

        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
