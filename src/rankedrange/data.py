"""Datasets: synthetic generators, CSV/LIBSVM ingestion, label-noise
injection, splitting, and train-statistics standardization.

Label conventions: binary datasets use l = 1 with labels in {+1, -1};
multi-class datasets use integer labels 1..l; multi-label datasets carry a
frozenset of labels per sample.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: object  # int ndarray, or tuple of frozensets for multi-label
    l: int
    provenance: str = ""

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError(f"features must be a non-empty n x d matrix, got {X.shape}")
        object.__setattr__(self, "features", X)
        if self.is_multilabel:
            labels = tuple(frozenset(int(y) for y in ys) for ys in self.labels)
            for ys in labels:
                if not ys or len(ys) >= self.l or any(y < 1 or y > self.l for y in ys):
                    raise ValueError(f"invalid label set {sorted(ys)} for l={self.l}")
            if len(labels) != X.shape[0]:
                raise ValueError("label count does not match sample count")
            object.__setattr__(self, "labels", labels)
        else:
            y = np.asarray(self.labels, dtype=np.int64)
            if y.shape != (X.shape[0],):
                raise ValueError("label count does not match sample count")
            if self.l == 1:
                if not np.all(np.isin(y, (-1, 1))):
                    raise ValueError("binary labels must be +1/-1")
            elif np.any(y < 1) or np.any(y > self.l):
                raise ValueError(f"class labels outside 1..{self.l}")
            object.__setattr__(self, "labels", y)

    @property
    def is_multilabel(self) -> bool:
        if isinstance(self.labels, np.ndarray):
            return False
        first = self.labels[0] if len(self.labels) else None
        return isinstance(first, (set, frozenset))

    @cached_property
    def label_matrix(self) -> np.ndarray:
        """Read-only n x l boolean matrix: entry (i, j) is True when label
        j + 1 belongs to sample i (one-hot for class labels, the +1 class
        for binary labels)."""
        if self.is_multilabel:
            M = np.zeros((self.n, self.l), dtype=bool)
            for i, ys in enumerate(self.labels):
                M[i, [y - 1 for y in ys]] = True
        else:
            M = self.labels[:, None] == np.arange(1, self.l + 1)
        M.flags.writeable = False
        return M

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, idx, note: str = "") -> "Dataset":
        idx = np.asarray(idx)
        if self.is_multilabel:
            labels = tuple(self.labels[i] for i in idx)
        else:
            labels = self.labels[idx]
        prov = self.provenance + (f"; {note}" if note else "")
        return Dataset(self.features[idx], labels, self.l, prov)


@dataclass(frozen=True)
class NoiseSpec:
    mode: str  # symmetric | asymmetric_map | multilabel_symmetric
    p: float
    flip_map: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("symmetric", "asymmetric_map", "multilabel_symmetric"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability p={self.p} outside [0, 1]")
        if self.mode == "asymmetric_map" and not self.flip_map:
            raise ValueError("asymmetric_map noise requires a flip_map")


@dataclass(frozen=True)
class SyntheticSpec:
    balanced: bool = True
    n_outliers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_outliers <= 20:
            raise ValueError(f"n_outliers={self.n_outliers} outside 0..20")


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """200-sample 2-D binary set: one positive Gaussian blob at (+2, 0), a
    negative two-mode mixture at (-2, +-1.5), covariance 0.4*I, plus
    ``n_outliers`` negative points planted deep on the positive side at
    (+3.5, 0) with small jitter.
    """
    rng = np.random.default_rng(spec.seed)
    total = 200
    if spec.balanced:
        n_pos = 100
    else:
        n_pos = 20  # 9:1 negative-to-positive class ratio
    n_neg_inlier = total - n_pos - spec.n_outliers
    cov = np.sqrt(0.4)
    pos = np.array([2.0, 0.0]) + cov * rng.standard_normal((n_pos, 2))
    half = n_neg_inlier // 2
    neg_a = np.array([-2.0, 1.5]) + cov * rng.standard_normal((half, 2))
    neg_b = np.array([-2.0, -1.5]) + cov * rng.standard_normal((n_neg_inlier - half, 2))
    outliers = np.array([3.5, 0.0]) + 0.1 * rng.standard_normal((spec.n_outliers, 2))
    X = np.vstack([pos, neg_a, neg_b, outliers])
    y = np.concatenate([
        np.ones(n_pos, dtype=np.int64),
        -np.ones(n_neg_inlier + spec.n_outliers, dtype=np.int64),
    ])
    prov = (f"synthetic({'balanced' if spec.balanced else 'imbalanced'}, "
            f"outliers={spec.n_outliers}, seed={spec.seed})")
    return Dataset(X, y, 1, prov)


_MONK_DOMAINS = (3, 3, 2, 3, 4, 2)


def monk_dataset() -> Dataset:
    """The full 432-sample Monk benchmark, generated from its defining rule.

    The instance space is the cross product of six categorical attributes
    with domain sizes (3, 3, 2, 3, 4, 2); the positive class is
    (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3).  This enumeration is
    deterministic and reproduces the published 228/204 class split.
    """
    grids = np.meshgrid(*[np.arange(1, d + 1) for d in _MONK_DOMAINS], indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1).astype(np.float64)
    a2, a4, a5 = X[:, 1], X[:, 3], X[:, 4]
    pos = ((a5 == 3) & (a4 == 1)) | ((a5 != 4) & (a2 != 3))
    y = np.where(pos, 1, -1).astype(np.int64)
    return Dataset(X, y, 1, "monk(rule-generated, 432 samples)")


def gen_multiclass_blobs(n: int, d: int, l: int, seed: int = 0,
                         separation: float = 2.0) -> Dataset:
    """Gaussian class blobs at random unit directions, for desk-scale
    multi-class experiments."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((l, d))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    y = rng.integers(1, l + 1, size=n)
    X = centers[y - 1] + rng.standard_normal((n, d))
    return Dataset(X, y.astype(np.int64), l,
                   f"multiclass-blobs(n={n}, d={d}, l={l}, seed={seed})")


def gen_multilabel_synthetic(n: int, d: int, l: int, seed: int = 0,
                             min_labels: int = 1, max_labels: int = 3,
                             score_noise: float = 0.5) -> Dataset:
    """Multi-label data from a random linear scorer: each sample's label set
    is the top-c scoring labels for a per-sample c."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((l, d))
    X = rng.standard_normal((n, d))
    scores = X @ theta.T + score_noise * rng.standard_normal((n, l))
    counts = rng.integers(min_labels, max_labels + 1, size=n)
    labels = []
    for i in range(n):
        top = np.argsort(-scores[i], kind="stable")[: counts[i]]
        labels.append(frozenset(int(j) + 1 for j in top))
    return Dataset(X, tuple(labels), l,
                   f"multilabel-synthetic(n={n}, d={d}, l={l}, seed={seed})")


class DataParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def load_dataset(path, format: str = "csv", l: int | None = None) -> Dataset:
    """Load a dataset from CSV (header row, `label` or `labels` column) or
    LIBSVM sparse lines densified to the maximum feature index."""
    if format == "csv":
        return _load_csv(path, l)
    if format == "libsvm":
        return _load_libsvm(path, l)
    raise ValueError(f"unknown dataset format {format!r}")


def _load_csv(path, l):
    # universal newlines, so the bulk parse sees "\n" line ends only; a line
    # end inside a quoted field is whitespace around a number either way
    with open(path, "r", encoding="utf-8") as fh:
        lineno, header = next(_csv_records(fh), (None, None))
        if header is None:
            raise ValueError(f"{path}: empty dataset file")
        header = [h.strip() for h in header]
        if "label" in header:
            label_col, multilabel = header.index("label"), False
        elif "labels" in header:
            label_col, multilabel = header.index("labels"), True
        else:
            raise DataParseError(path, lineno,
                                 "header must contain a 'label' or 'labels' column")
        raw = []  # the label field of each row, as written
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                M = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                               quotechar='"', ndmin=2,
                               converters={label_col: raw.append})
            if not raw or M.shape[1] != len(header):
                raise ValueError("field count does not match the header")
            labels = [_csv_label(field, multilabel) for field in raw]
            if not multilabel:
                labels = np.array(labels, dtype=np.int64)
            X = np.delete(M, label_col, axis=1)
            if not np.isfinite(X).all():
                raise ValueError("non-finite feature value")
        except (ValueError, OverflowError):
            _raise_first_bad_record(path, fh, len(header), label_col, multilabel)
            raise
    if multilabel:
        if l is None:
            l = max(max(ys) for ys in labels) + 1  # keep sets proper subsets
        return Dataset(X, tuple(labels), l, f"csv:{path}")
    if l is None:
        l = 1 if set(np.unique(labels)) <= {-1, 1} else int(labels.max())
    return Dataset(X, labels, l, f"csv:{path}")


def _csv_records(fh):
    """(first physical line, fields) of each non-blank record of a CSV file."""
    reader = csv.reader(fh)
    end = 0
    for row in reader:
        start, end = end + 1, reader.line_num
        if row:
            yield start, row


def _csv_label(field, multilabel):
    if not multilabel:
        return int(field)
    ys = frozenset(int(v) for v in field.split(";"))
    if not 1 <= min(ys) <= max(ys) < 2**63:  # int64, as a class label
        raise ValueError(f"label set {field!r} has a label outside 1..2**63-1")
    return ys


def _loadtxt_float(field):
    """float(field), rejecting what np.loadtxt rejects and float() accepts:
    digit separators and non-ASCII digits."""
    if "_" in field or not field.strip().isascii():
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def _raise_first_bad_record(path, fh, ncols, label_col, multilabel):
    """Rescan a CSV file the bulk parse rejected, record by record.

    Raises DataParseError at the first physical line of the first record
    that does not parse or, if all parse, of the first with a NaN or inf
    feature; ValueError when there are no data records.  Returns if no
    record is bad, so that the bulk parse's own error stands.
    """
    fh.seek(0)
    records = _csv_records(fh)
    next(records)  # the header
    feat_cols = [j for j in range(ncols) if j != label_col]
    lineno = non_finite = None
    for lineno, row in records:
        if len(row) != ncols:
            raise DataParseError(path, lineno,
                                 f"expected {ncols} fields, got {len(row)}")
        try:
            x = [_loadtxt_float(row[j]) for j in feat_cols]
            label = _csv_label(row[label_col], multilabel)
            if not multilabel:
                np.int64(label)
        except (ValueError, OverflowError) as exc:
            raise DataParseError(path, lineno, str(exc)) from None
        if non_finite is None and not np.isfinite(x).all():
            non_finite = lineno
    if lineno is None:
        raise ValueError(f"{path}: no data rows")
    if non_finite is not None:
        raise DataParseError(path, non_finite, "non-finite feature value")


def _check_finite(path, X, linenos):
    """DataParseError at the line of the first row with a NaN or inf."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataParseError(path, linenos[bad[0]], "non-finite feature value")


def _load_libsvm(path, l):
    feats, labels, linenos, d = [], [], [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
                if not label.is_integer():
                    raise ValueError(f"label {parts[0]!r} is not an integer")
                labels.append(int(label))
                row = {}
                for item in parts[1:]:
                    idx, _, val = item.partition(":")
                    row[int(idx)] = float(val)
            except (ValueError, OverflowError) as exc:
                raise DataParseError(path, lineno, str(exc)) from None
            if row:
                if min(row) < 1:
                    raise DataParseError(path, lineno,
                                         f"feature index {min(row)} is below 1")
                d = max(d, max(row))
            feats.append(row)
            linenos.append(lineno)
    if not feats:
        raise ValueError(f"{path}: empty dataset file")
    X = np.zeros((len(feats), d), dtype=np.float64)
    for i, row in enumerate(feats):
        for idx, val in row.items():
            X[i, idx - 1] = val
    _check_finite(path, X, linenos)
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError as exc:
        big = next(i for i, v in enumerate(labels) if not -2**63 <= v < 2**63)
        raise DataParseError(path, linenos[big], str(exc)) from None
    if l is None:
        l = 1 if set(np.unique(y)) <= {-1, 1} else int(y.max())
    return Dataset(X, y, l, f"libsvm:{path}")


def inject_noise(data: Dataset, spec: NoiseSpec) -> Dataset:
    """Return a copy with labels rewritten per the noise spec; features are
    untouched and the realized flip count lands in provenance."""
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "multilabel_symmetric":
        if not data.is_multilabel:
            raise ValueError("multilabel_symmetric noise requires multi-label data")
        selected = rng.random(data.n) < spec.p
        new_labels = []
        flips = 0
        for i in range(data.n):
            if not selected[i]:
                new_labels.append(data.labels[i])
                continue
            replaced = set()
            for y in sorted(data.labels[i]):
                choices = [c for c in range(1, data.l + 1) if c != y]
                replaced.add(int(rng.choice(choices)))
            if len(replaced) >= data.l:
                replaced.pop()
            new_labels.append(frozenset(replaced))
            flips += 1
        return Dataset(data.features, tuple(new_labels), data.l,
                       data.provenance + f"; noise({spec.mode}, p={spec.p}, "
                       f"seed={spec.seed}, flipped={flips})")

    if data.is_multilabel:
        raise ValueError(f"{spec.mode} noise requires single-label data")
    y = data.labels.copy()
    flips = 0
    if spec.mode == "symmetric":
        selected = rng.random(data.n) < spec.p
        for i in np.flatnonzero(selected):
            if data.l == 1:
                y[i] = -y[i]
            else:
                choices = [c for c in range(1, data.l + 1) if c != y[i]]
                y[i] = int(rng.choice(choices))
            flips += 1
    else:  # asymmetric_map
        for src, dst in spec.flip_map.items():
            lo, hi = (1, data.l) if data.l > 1 else (-1, 1)
            if not lo <= int(dst) <= hi or not lo <= int(src) <= hi:
                raise ValueError(f"flip_map entry {src}->{dst} outside label range")
        draws = rng.random(data.n)
        for i in range(data.n):
            dst = spec.flip_map.get(int(y[i]))
            if dst is not None and draws[i] < spec.p:
                y[i] = int(dst)
                flips += 1
    return Dataset(data.features, y, data.l,
                   data.provenance + f"; noise({spec.mode}, p={spec.p}, "
                   f"seed={spec.seed}, flipped={flips})")


def flip_count(data: Dataset) -> int:
    """Recover the realized flip count recorded by ``inject_noise``."""
    import re

    match = re.search(r"flipped=(\d+)", data.provenance)
    if not match:
        raise ValueError("dataset provenance carries no noise record")
    return int(match.group(1))


def split_dataset(data: Dataset, fractions, seed: int = 0):
    """Seeded uniform shuffle split into len(fractions) disjoint parts."""
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions {fractions} do not sum to 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(data.n)
    bounds = np.floor(np.cumsum(fractions) * data.n + 0.5).astype(int)
    bounds[-1] = data.n
    parts, start = [], 0
    for i, stop in enumerate(bounds):
        parts.append(data.subset(perm[start:stop], f"split part {i} seed={seed}"))
        start = stop
    return tuple(parts)


def standardize(train: Dataset, *others):
    """Z-score all datasets with per-feature statistics from train only.

    Zero-variance features are left untouched.  Returns the transformed
    datasets (train first) plus the (means, stds) used.
    """
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    active = stds > 0
    # (x - 0) / 1 is x, -0.0 included
    shift, scale = np.where(active, means, 0.0), np.where(active, stds, 1.0)
    out = tuple(replace(ds, features=(ds.features - shift) / scale)
                for ds in (train, *others))
    return out, means, stds


def write_csv(data: Dataset, path) -> None:
    """Write a dataset in the CSV ingestion format (fixture helper)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        label_col = "labels" if data.is_multilabel else "label"
        writer.writerow([label_col] + [f"f{j}" for j in range(data.d)])
        for i in range(data.n):
            if data.is_multilabel:
                lab = ";".join(str(y) for y in sorted(data.labels[i]))
            else:
                lab = str(int(data.labels[i]))
            writer.writerow([lab] + [f"{v:.17g}" for v in data.features[i]])
