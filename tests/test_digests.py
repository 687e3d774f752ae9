"""Golden report digests: five small configs, one per trainer path, must
give the same report bits as the committed values.

The bits of a report depend on the OpenBLAS kernel that runs its matrix
products, and ``OPENBLAS_CORETYPE`` picks that kernel when numpy loads
OpenBLAS.  So the configs run in one subprocess under the Haswell kernel
at one BLAS thread.  The values are keyed by numpy's version and its
OpenBLAS version; under another key, or on a CPU that lacks the Haswell
kernel's AVX2 and FMA instructions, the test skips and says why.

A change that moves report bits on purpose updates these values and lists
every moved metric in CHANGES.md.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rankedrange

# one config per trainer path
_CONFIGS = {
    # stochastic dca_train, scoring a snapshot every 100 steps
    "stochastic_dca": (
        "task = multilabel\nloss = tkml\naggregate = tkml\n"
        "dataset = multilabel-synth\nsplit = 0.6,0.2,0.2\nml.n = 150\n"
        "ml.d = 8\nml.l = 5\nml.noise = 1.0\ntrain.eta_inner = 0.1\n"
        "train.outer_epochs = 1\ntrain.inner_epochs = 300\ntrain.batch = 16\n"),
    "fullbatch_dca": (
        "task = binary\nloss = logistic\naggregate = aorr\n"
        "dataset = synthetic\nsplit = 0.7,0.3\ngrid.m = 1\ngrid.k = 10\n"
        "train.eta_inner = 0.005\ntrain.outer_epochs = 3\n"
        "train.inner_epochs = 200\ntrain.batch = 0\n"),
    # 45 inner steps: the last refresh of a round falls between refreshes
    "auto_aorr": (
        "task = multiclass\nloss = softmax\naggregate = auto_aorr\n"
        "dataset = blobs\nsplit = 0.6,0.2,0.2\nblobs.n = 300\nblobs.d = 6\n"
        "blobs.l = 3\nnoise.mode = symmetric\nnoise.p = 0.2\n"
        "train.eta_outer = 0.4\ntrain.eta_inner = 0.02\n"
        "train.warmup_epochs = 40\ntrain.outer_epochs = 3\n"
        "train.inner_epochs = 45\ntrain.batch = 16\n"
        "train.refresh_every = 10\n"),
    "tkml_aorr_grid": (
        "task = multilabel\nloss = tkml\naggregate = tkml_aorr\n"
        "dataset = multilabel-synth\nsplit = 0.6,0.2,0.2\nml.n = 150\n"
        "ml.d = 8\nml.l = 5\nml.noise = 1.0\nnoise.mode = multilabel_symmetric\n"
        "noise.p = 0.3\ntrain.eta_outer = 0.3\ntrain.eta_inner = 0.3\n"
        "train.warmup_epochs = 30\ntrain.outer_epochs = 60\ntrain.batch = 0\n"
        "train.kprime = 2\ngrid.m = 10,20\ngrid.k = 45,70\n"),
    "average": (
        "task = binary\nloss = hinge\naggregate = average\n"
        "dataset = synthetic\nsplit = 0.7,0.3\ntrain.eta_outer = 0.1\n"
        "train.outer_epochs = 20\ntrain.batch = 4\n"),
}

# sha256 of json.dumps(report, sort_keys=True) of each config, by
# (numpy version, OpenBLAS version)
_DIGESTS = {
    ("2.4.6", "0.3.31.188.0"): {
        "stochastic_dca":
            "d185c3c1ec067181eb50d038377b4b49575d55d13a60389b15835be1d041b058",
        "fullbatch_dca":
            "ddfa5c11a3e3de7df64070c43b4bb8ed83b4ef58b3bad20f322a56f0d4f9469a",
        "auto_aorr":
            "c46f605b8eb1f1330390959caf97d43944763eb2aa21e6be1d27ef8abf8f16b4",
        "tkml_aorr_grid":
            "2639a5e33d9bab4779205c95122a187746ab7475529cec4331da2093edbb1e1a",
        "average":
            "9106b37d7be8efcffee8de9b82749428ca3df9715b3cd38b7aef82661821fc78",
    },
}

# runs each config of the JSON object on stdin; prints each report's digest
_CHILD = """
import hashlib, json, sys
from rankedrange.cli import parse_config, run_experiment
digests = {}
for name, text in json.load(sys.stdin).items():
    report = run_experiment(parse_config(text), name=name)
    digests[name] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
print(json.dumps(digests))
"""


def _blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without build dicts
        return None
    return blas.get("version")


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.partition(":")[2].split())
    except OSError:
        pass
    return set()


def test_reports_keep_their_golden_digests():
    # a forced kernel that the CPU lacks may die on an illegal instruction
    missing = {"avx2", "fma"} - _cpu_flags()
    if missing:
        pytest.skip(f"/proc/cpuinfo lacks {sorted(missing)}, which the "
                    "Haswell kernel needs")
    key = (np.__version__, _blas_version())
    if key not in _DIGESTS:
        pytest.skip(f"no digests recorded for numpy {key[0]} with OpenBLAS "
                    f"{key[1]}; recorded: {sorted(_DIGESTS)}")
    src = os.path.dirname(os.path.dirname(os.path.abspath(rankedrange.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", _CHILD],
                           input=json.dumps(_CONFIGS), env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == _DIGESTS[key]
