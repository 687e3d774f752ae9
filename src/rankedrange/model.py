"""Linear hypothesis class: scoring and text persistence."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataParseError

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinearModel:
    """Weight matrix (l labels x d features) with an optional bias vector.

    Binary classification uses l = 1 with a sign decision on the single
    score.  ``meta`` records the loss kind and (k, m, k') the model was
    trained with, purely for provenance.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"weights must be an l x d matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ValueError(f"bias shape {b.shape} does not match l={w.shape[0]}")
            object.__setattr__(self, "bias", b)

    @property
    def l(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.weights.shape[1]


def predict_matrix(model: LinearModel, X) -> np.ndarray:
    """Scores for a feature matrix, one row of l scores per sample."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"feature matrix shape {X.shape} does not match d={model.d}")
    scores = X @ model.weights.T
    if model.bias is not None:
        scores = scores + model.bias
    return scores


def save_model(model: LinearModel, path) -> None:
    """Write the documented key/value text format (17 significant digits)."""
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"l = {model.l}",
        f"d = {model.d}",
        f"loss_kind = {model.meta.get('loss_kind', 'none')}",
        f"k = {model.meta.get('k', 0)}",
        f"m = {model.meta.get('m', 0)}",
        f"kprime = {model.meta.get('kprime', 0)}",
        "weights = " + " ".join(f"{v:.17g}" for v in model.weights.ravel()),
    ]
    if model.bias is not None:
        lines.append("bias = " + " ".join(f"{v:.17g}" for v in model.bias))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelParseError(DataParseError):
    """A model file that ``load_model`` cannot read, at its line."""


def load_model(path) -> LinearModel:
    """Parse the text format written by ``save_model``."""
    fields = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ModelParseError(path, lineno, "expected 'key = value'")
            key, _, value = line.partition("=")
            fields[key.strip()] = (value.strip(), lineno)

    def need(key):
        if key not in fields:
            raise ModelParseError(path, 0, f"missing required key {key!r}")
        return fields[key]

    version, lineno = need("format_version")
    if int(version) != FORMAT_VERSION:
        raise ModelParseError(path, lineno, f"unsupported format_version {version}")
    l = int(need("l")[0])
    d = int(need("d")[0])
    raw_w, lineno = need("weights")
    try:
        flat = np.array([float(v) for v in raw_w.split()], dtype=np.float64)
    except ValueError as exc:
        raise ModelParseError(path, lineno, f"bad weight entry: {exc}") from None
    if flat.size != l * d:
        raise ModelParseError(
            path, lineno, f"expected {l * d} weights for l={l}, d={d}, got {flat.size}")
    bias = None
    if "bias" in fields:
        raw_b, lineno = fields["bias"]
        bias = np.array([float(v) for v in raw_b.split()], dtype=np.float64)
        if bias.size != l:
            raise ModelParseError(path, lineno, f"expected {l} bias entries, got {bias.size}")
    meta = {
        "loss_kind": need("loss_kind")[0],
        "k": int(need("k")[0]),
        "m": int(need("m")[0]),
        "kprime": int(need("kprime")[0]),
    }
    return LinearModel(weights=flat.reshape(l, d), bias=bias, meta=meta)
