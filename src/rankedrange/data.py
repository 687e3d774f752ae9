"""Datasets: synthetic generators, CSV/LIBSVM ingestion, label-noise
injection, splitting, and train-statistics standardization.

Label conventions: binary datasets use l = 1 with labels in {+1, -1};
multi-class datasets use integer labels 1..l; multi-label datasets carry
an n x l boolean matrix, entry (i, j) True when sample i has label j + 1.

Label noise (``inject_noise``) is drawn as whole arrays and records no
count: a flipped row of a noisy copy is one whose ``label_matrix`` row
differs from the clean one's.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment config; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(key, message)  # pickles by its arguments
        self.key = key

    def __str__(self):
        return f"config key {self.key!r}: {self.args[1]}"


class LabelError(ValueError):
    """A label that does not fit the label count l; ``row`` is the index of
    its sample."""

    def __init__(self, row: int, message: str):
        super().__init__(row, message)  # pickles by its arguments
        self.row = row

    def __str__(self):
        return self.args[1]


@dataclass(frozen=True)
class Dataset:
    """``labels`` may also be given as a sequence of n label sets."""

    features: np.ndarray
    labels: np.ndarray  # int64 class labels, or the n x l bool label-set matrix
    l: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError(f"features must be a non-empty n x d matrix, got {X.shape}")
        object.__setattr__(self, "features", X)
        y = self.labels
        if not isinstance(y, np.ndarray) and len(y) and isinstance(y[0], (set, frozenset)):
            y = _set_matrix(y, self.l)
        if np.ndim(y) == 2:
            if y.dtype != bool or y.shape != (X.shape[0], self.l):
                raise ValueError(f"not an n x l bool label matrix: {y.dtype} {y.shape}")
            counts = np.count_nonzero(y, axis=1)
            bad = (counts < 1) | (counts >= self.l)
            if bad.any():
                i = int(np.argmax(bad))
                raise LabelError(i, "invalid label set {} for l={}".format(
                    (np.flatnonzero(y[i]) + 1).tolist(), self.l))
            y = y.view()  # read-only; the caller's own array stays writeable
            y.flags.writeable = False
        else:
            y = np.asarray(y, dtype=np.int64)
            if y.shape != (X.shape[0],):
                raise ValueError("label count does not match sample count")
            if self.l == 1:
                bad, allowed = ~np.isin(y, (-1, 1)), "+1/-1"
            else:
                bad, allowed = (y < 1) | (y > self.l), f"1..{self.l}"
            if bad.any():
                i = int(np.argmax(bad))
                raise LabelError(i, f"label {y[i]} outside {allowed}")
        object.__setattr__(self, "labels", y)

    @property
    def is_multilabel(self) -> bool:
        return self.labels.ndim == 2

    @cached_property
    def label_matrix(self) -> np.ndarray:
        """Read-only n x l boolean matrix: entry (i, j) is True when label
        j + 1 belongs to sample i (one-hot for class labels, the +1 class
        for binary labels)."""
        if self.is_multilabel:
            return self.labels
        M = self.labels[:, None] == np.arange(1, self.l + 1)
        M.flags.writeable = False
        return M

    @cached_property
    def inf_off_labels(self) -> np.ndarray:
        """Read-only l x n matrix, 0 on ``label_matrix``'s True entries and
        +inf elsewhere: added to label-major scores, it keeps the scores of
        each sample's labels and lifts the others above every finite one."""
        M = np.where(self.label_matrix.T, 0.0, np.inf)
        M.flags.writeable = False
        return M

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.l)


def _set_matrix(sets, l: int) -> np.ndarray:
    """The n x l boolean matrix of n label sets, each 1 to l - 1 of 1..l."""
    M = np.zeros((len(sets), l), dtype=bool)
    for i, ys in enumerate(sets):
        ys = sorted({int(y) for y in ys})
        if not (1 <= len(ys) < l and 1 <= ys[0] and ys[-1] <= l):
            raise LabelError(i, f"invalid label set {ys} for l={l}")
        M[i, [y - 1 for y in ys]] = True
    return M


@dataclass(frozen=True)
class NoiseSpec:
    mode: str  # symmetric | asymmetric_map | multilabel_symmetric
    p: float
    flip_map: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("symmetric", "asymmetric_map", "multilabel_symmetric"):
            raise ConfigError("noise.mode", f"unknown noise mode {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("noise.p", f"p={self.p} outside [0, 1]")
        if self.seed < 0:
            raise ConfigError("noise.seed", f"seed={self.seed} must be >= 0")
        if self.mode == "asymmetric_map" and not self.flip_map:
            raise ConfigError("noise.map", "asymmetric_map noise requires a flip_map")


@dataclass(frozen=True)
class SyntheticSpec:
    balanced: bool = True
    n_outliers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.n_outliers <= 20:
            raise ConfigError("synth.outliers", f"{self.n_outliers} outside 0..20")


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
    return Dataset(X, y, 1)


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
    return Dataset(X, y, 1)


def gen_multiclass_blobs(n: int, d: int, l: int, seed: int = 0,
                         separation: float = 2.0) -> Dataset:
    """Gaussian class blobs at random unit directions, for desk-scale
    multi-class experiments."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((l, d))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    y = rng.integers(1, l + 1, size=n)
    X = centers[y - 1] + rng.standard_normal((n, d))
    return Dataset(X, y.astype(np.int64), l)


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
    Y = np.empty((n, l), dtype=bool)
    np.put_along_axis(Y, np.argsort(-scores, axis=1, kind="stable"),
                      np.arange(l) < counts[:, None], axis=1)
    return Dataset(X, Y, l)


class DataParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(path, lineno, message)  # pickles by its arguments
        self.lineno = lineno

    def __str__(self):
        return "{}:{}: {}".format(*self.args)


def load_dataset(path, format: str = "csv", l: int | None = None,
                 d: int | None = None) -> Dataset:
    """Load a dataset from CSV (header row, `label` or `labels` column) or
    LIBSVM sparse lines densified to the maximum feature index, or to d
    when given.  A file that the run cannot use raises DataParseError at
    its first bad line, line 0 for an empty file or one with other than d
    features."""
    loaders = {"csv": _load_csv, "libsvm": _load_libsvm}
    if format not in loaders:
        raise ConfigError("format", f"unknown dataset format {format!r}")
    try:
        return loaders[format](path, l, d)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")  # to find the first bad byte's offset
        except UnicodeDecodeError as exc:
            lineno = len((raw[:exc.start] + b".").splitlines())
            raise DataParseError(path, lineno,
                                 f"not UTF-8 text ({exc.reason})") from None
        raise


def _load_csv(path, l, d):
    # universal newlines, so the bulk parse sees "\n" line ends only; a line
    # end inside a quoted field is whitespace around a number either way
    with open(path, "r", encoding="utf-8") as fh:
        lineno, header = next(_csv_records(fh), (None, None))
        if header is None:
            raise DataParseError(path, 0, "empty dataset file")
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
            X = _drop_column(M, label_col)
            if not np.isfinite(X).all():
                raise ValueError("non-finite feature value")
        except (ValueError, OverflowError):
            _raise_first_bad_record(path, fh, len(header), label_col, multilabel)
            raise
    if d is not None and X.shape[1] != d:
        raise DataParseError(path, 0, f"{X.shape[1]} features, expected d={d}")
    return _labelled(path, X, labels, l, lambda row: _csv_record_line(path, row))


_BLOCK = 2**15  # values in one gathered block of an in-place move of rows


def _drop_column(M, j):
    """``np.delete(M, j, axis=1)``, C-contiguous, in M's own memory: each
    block of rows, gathered without column j, moves forward over the rows
    already moved."""
    n, w = M.shape
    X = M.reshape(-1)[:n * (w - 1)].reshape(n, w - 1)
    cols, step = np.delete(np.arange(w), j), max(1, _BLOCK // w)
    for a in range(0, n, step):
        X[a:a + step] = M[a:a + step, cols]
    return X


def _labelled(path, X, labels, l, line_of):
    """The Dataset of a loaded file, with l inferred from the labels when
    None.  A label that does not fit l raises DataParseError at the line
    ``line_of(row)`` gives for its row."""
    if l is None and isinstance(labels, list):  # label sets
        l = max(max(ys) for ys in labels)  # a set of every label is an error
    elif l is None:
        l = 1 if set(np.unique(labels)) <= {-1, 1} else int(labels.max())
    try:
        return Dataset(X, labels, l)
    except LabelError as exc:
        raise DataParseError(path, line_of(exc.row), str(exc)) from None


def _csv_record_line(path, row):
    """First physical line of data record ``row`` (0 is the one after the
    header)."""
    with open(path, "r", encoding="utf-8") as fh:
        return next(itertools.islice(_csv_records(fh), row + 1, None))[0]


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
    feature; at the header line when there are no data records.  Returns
    if no record is bad, so that the bulk parse's own error stands.
    """
    fh.seek(0)
    records = _csv_records(fh)
    header_line, _ = next(records)
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
        raise DataParseError(path, header_line, "no data rows after the header")
    if non_finite is not None:
        raise DataParseError(path, non_finite, "non-finite feature value")


def _check_finite(path, X, linenos):
    """DataParseError at the line of the first row with a NaN or inf."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataParseError(path, linenos[bad[0]], "non-finite feature value")


def _load_libsvm(path, l, d):
    feats, labels, linenos, width = [], [], [], d or 0
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
                if d is not None and max(row) > d:
                    raise DataParseError(path, lineno, f"feature index "
                                                       f"{max(row)} is above d={d}")
                width = max(width, max(row))
            feats.append(row)
            linenos.append(lineno)
    if not feats:
        raise DataParseError(path, 0, "empty dataset file")
    X = np.zeros((len(feats), width), dtype=np.float64)
    for i, row in enumerate(feats):
        for idx, val in row.items():
            X[i, idx - 1] = val
    _check_finite(path, X, linenos)
    try:
        y = np.array(labels, dtype=np.int64)
    except OverflowError as exc:
        big = next(i for i, v in enumerate(labels) if not -2**63 <= v < 2**63)
        raise DataParseError(path, linenos[big], str(exc)) from None
    return _labelled(path, X, y, l, linenos.__getitem__)


def inject_noise(data: Dataset, spec: NoiseSpec) -> Dataset:
    """Return a copy with labels rewritten per the noise spec; features are
    untouched.

    One ``rng.random(n) < p`` draw selects the rows.  ``symmetric`` negates
    a selected binary label, and moves a selected class label y to a label
    drawn uniformly from the other l - 1: one ``rng.integers(1, l)`` value
    r per row, which is r when r < y and r + 1 otherwise.
    ``multilabel_symmetric`` moves each label of a selected set, in
    ascending order, the same way.  ``asymmetric_map`` maps a selected
    label through ``flip_map``, and leaves a label it does not name.
    """
    multilabel = spec.mode == "multilabel_symmetric"
    if multilabel != data.is_multilabel:
        raise ConfigError("noise.mode", f"{spec.mode} noise requires "
                          f"{'multi' if multilabel else 'single'}-label data")
    if spec.mode == "asymmetric_map":
        allowed = (-1, 1) if data.l == 1 else range(1, data.l + 1)
        lo = allowed[0]
        table = np.arange(lo, allowed[-1] + 1)  # label y is at y - lo
        for src, dst in spec.flip_map.items():
            if src not in allowed or dst not in allowed:
                raise ConfigError("noise.map", f"flip_map entry {src}->{dst} "
                                               "outside label range")
            table[src - lo] = dst
    rng = np.random.default_rng(spec.seed)
    rows = np.flatnonzero(rng.random(data.n) < spec.p)
    if multilabel:
        at, y = np.nonzero(data.labels[rows])  # row order, then label order
        y += 1
    else:
        y = data.labels[rows]
    if spec.mode == "asymmetric_map":
        y = table[y - lo]
    elif data.l == 1:
        y = -y
    else:
        r = rng.integers(1, data.l, y.size)
        y = r + (r >= y)
    labels = data.labels.copy()
    if multilabel:
        labels[rows] = False
        labels[rows[at], y - 1] = True
    else:
        labels[rows] = y
    return Dataset(data.features, labels, data.l)


def split_sizes(n: int, fractions) -> tuple:
    """Row counts of the parts of an n-row split: part i ends at row
    floor(n * (f_0 + ... + f_i) + 0.5) and the last part at row n.  Raises
    ConfigError when the fractions do not sum to 1 or a part gets no rows."""
    fractions = tuple(float(f) for f in fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError("split", f"split fractions {fractions} do not sum to 1")
    bounds = np.floor(np.cumsum(fractions) * n + 0.5).astype(int)
    bounds[-1] = n
    sizes = np.diff(bounds, prepend=0)
    for i, size in enumerate(sizes):
        if size < 1:
            raise ConfigError("split", f"part {i} (fraction {fractions[i]!r}) "
                                       f"of a split of n={n} rows gets no rows")
    return tuple(int(size) for size in sizes)


def _statistics(x) -> tuple:
    """(means, stds, shift, scale) of the columns of x.  means and stds are
    bit for bit what x.mean(axis=0) and x.std(axis=0) give: the same steps
    in the same order, done in x's own memory, which is overwritten.  A
    column with zero std gets shift 0 and scale 1, as (x - 0) / 1 is x,
    -0.0 included."""
    means = x.mean(axis=0)
    x -= means
    np.square(x, out=x)
    stds = np.sqrt(x.sum(axis=0) / x.shape[0])
    active = stds > 0
    return means, stds, np.where(active, means, 0.0), np.where(active, stds, 1.0)


def _permute_rows(X, perm):
    """``X[:] = X[perm]`` in place.  Along each cycle of perm a row takes the
    next row's values, a block of rows at a time (a block's gather copies
    rows that no earlier block wrote), and the last row the first's."""
    step = max(1, _BLOCK // max(1, X.shape[1]))
    todo = perm.tolist()
    for start in range(len(todo)):
        cycle, j = [], start
        while todo[j] >= 0:  # -1 marks a row already walked
            cycle.append(j)
            todo[j], j = -1, todo[j]
        if len(cycle) < 2:
            continue
        cycle = np.array(cycle)
        dst, src, first = cycle[:-1], cycle[1:], X[cycle[0]].copy()
        for a in range(0, dst.size, step):
            X[dst[a:a + step]] = X[src[a:a + step]]
        X[cycle[-1]] = first


def split_dataset(data: Dataset, fractions, seed: int = 0, *, copy: bool = True):
    """Seeded uniform shuffle split into len(fractions) disjoint parts; see
    ``split_sizes`` for the part sizes.  Each part holds a copy of its rows
    and labels.  With ``copy=False`` the split takes ``data``'s rows: it
    permutes ``data.features`` in place into part order, and each part's
    features are a block of it, so ``data`` must not be used after it.  A
    run z-scores the parts in place with ``standardize``, so a file that
    repeats share is split with ``copy=True``."""
    perm = np.random.default_rng(seed).permutation(data.n)
    bounds = np.cumsum((0, *split_sizes(data.n, fractions)))
    X = data.features
    if not copy:
        _permute_rows(X, perm)
    return tuple(Dataset(X[perm[lo:hi]] if copy else X[lo:hi],
                         data.labels[perm[lo:hi]], data.l)
                 for lo, hi in itertools.pairwise(bounds))


def standardize(train: Dataset, *others):
    """Z-score each dataset's features in place with per-feature statistics
    of train alone; zero-variance features are left untouched.  It takes
    its datasets' rows, so pass each dataset once, and keep no other view
    of their features that should stay as it was.  Returns the datasets
    (train first) and the (means, stds) used, bit for bit what
    ``mean(axis=0)`` and ``std(axis=0)`` give: they come from scratch
    copies of blocks of 16 or more columns (one column alone is summed in
    another order)."""
    blocks = np.array_split(train.features, max(1, train.d // 16), axis=1)
    means, stds, shift, scale = map(np.concatenate, zip(*(
        _statistics(x.copy()) for x in blocks)))
    for X in (ds.features for ds in (train, *others)):
        X -= shift
        X /= scale
    return (train, *others), means, stds


def write_csv(data: Dataset, path) -> None:
    """Write a dataset in the CSV ingestion format (fixture helper)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        label_col = "labels" if data.is_multilabel else "label"
        writer.writerow([label_col] + [f"f{j}" for j in range(data.d)])
        for i in range(data.n):
            if data.is_multilabel:
                lab = ";".join(str(y) for y in np.flatnonzero(data.labels[i]) + 1)
            else:
                lab = str(int(data.labels[i]))
            writer.writerow([lab] + [f"{v:.17g}" for v in data.features[i]])
