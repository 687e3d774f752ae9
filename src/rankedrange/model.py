"""Linear hypothesis class: scoring and text persistence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataParseError, open_text

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinearModel:
    """Weight matrix (l labels x d features) and bias vector (l entries;
    zeros when none is given).

    Binary classification uses l = 1 with a sign decision on the single
    score.  The loss and ranked range that trained a model belong to its
    run, and a report records them under ``config``.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError(f"weights must be an l x d matrix, got shape {w.shape}")
        b = (np.zeros(w.shape[0]) if self.bias is None
             else np.asarray(self.bias, dtype=np.float64))
        if b.shape != (w.shape[0],):
            raise ValueError(f"bias shape {b.shape} does not match l={w.shape[0]}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("weights or bias contain non-finite entries")
        object.__setattr__(self, "weights", w)
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
    return X @ model.weights.T + model.bias


def save_model(model: LinearModel, path) -> None:
    """Write the key/value text format, one ``key = value`` per line:
    format_version, l, d, then ``weights`` (the l x d matrix row by row) and
    ``bias`` (l entries), each number at 17 significant digits."""
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"l = {model.l}",
        f"d = {model.d}",
        "weights = " + " ".join(f"{v:.17g}" for v in model.weights.ravel()),
        "bias = " + " ".join(f"{v:.17g}" for v in model.bias),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelParseError(DataParseError):
    """A model file that ``load_model`` cannot read, at its line."""


def load_model(path) -> LinearModel:
    """Parse the text format written by ``save_model``; a file without a
    ``bias`` line loads with a zero bias, and a key that the loader does not
    read (such as the loss and ranks that older files record) is ignored.  A
    file that does not hold a valid model raises ModelParseError at the line
    at fault, line 0 for a missing key."""
    fields = {}
    with open_text(path, ModelParseError) as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ModelParseError(path, lineno, "expected 'key = value'")
            key, _, value = line.partition("=")
            fields[key.strip()] = (value.strip(), lineno)

    def need(key, parse):
        if key not in fields:
            raise ModelParseError(path, 0, f"missing required key {key!r}")
        value, lineno = fields[key]
        try:
            return parse(value)
        except ValueError as exc:
            raise ModelParseError(path, lineno, f"bad {key}: {exc}") from None

    def floats(text):
        return np.array([float(v) for v in text.split()], dtype=np.float64)

    version = need("format_version", int)
    if version != FORMAT_VERSION:
        raise ModelParseError(path, fields["format_version"][1],
                              f"unsupported format_version {version}")
    l, d = need("l", int), need("d", int)
    flat = need("weights", floats)
    lineno = fields["weights"][1]
    if flat.size != l * d or l < 1 or d < 1:
        raise ModelParseError(
            path, lineno, f"expected {l * d} weights for l={l}, d={d}, got {flat.size}")
    if not np.isfinite(flat).all():
        raise ModelParseError(path, lineno, "non-finite weight")
    bias = None
    if "bias" in fields:
        bias = need("bias", floats)
        if bias.size != l or not np.isfinite(bias).all():
            raise ModelParseError(path, fields["bias"][1], f"expected {l} "
                                  f"finite bias entries, got {bias.tolist()}")
    return LinearModel(weights=flat.reshape(l, d), bias=bias)
