import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    DataParseError,
    Dataset,
    LabelError,
    NoiseSpec,
    SyntheticSpec,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    inject_noise,
    load_dataset,
    monk_dataset,
    split_dataset,
    split_sizes,
    standardize,
    write_csv,
)


# --- synthetic generator --------------------------------------------------

def test_balanced_no_outliers_class_counts():
    data = gen_synthetic(SyntheticSpec(balanced=True, n_outliers=0, seed=0))
    assert data.n == 200
    assert int(np.sum(data.labels == 1)) == 100


def test_imbalanced_class_ratio():
    data = gen_synthetic(SyntheticSpec(balanced=False, n_outliers=0, seed=0))
    assert int(np.sum(data.labels == 1)) == 20


def test_single_outlier_has_largest_reference_loss():
    data = gen_synthetic(SyntheticSpec(balanced=True, n_outliers=1, seed=0))
    # hinge loss under the fixed reference separator x_1 = 0
    margins = data.labels * data.features[:, 0]
    losses = np.maximum(1.0 - margins, 0.0)
    planted = data.n - 1  # generator appends outliers last
    assert data.labels[planted] == -1
    assert np.argmax(losses) == planted


def test_generator_deterministic():
    spec = SyntheticSpec(balanced=True, n_outliers=2, seed=5)
    a, b = gen_synthetic(spec), gen_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_outlier_count_guard():
    with pytest.raises(ValueError):
        SyntheticSpec(n_outliers=21)


def test_monk_dataset_shape_and_split():
    data = monk_dataset()
    assert data.n == 432
    assert data.d == 6
    assert int(np.sum(data.labels == 1)) == 228
    assert int(np.sum(data.labels == -1)) == 204


def test_multiclass_blobs_labels_in_range():
    data = gen_multiclass_blobs(100, 5, 4, seed=0)
    assert data.l == 4
    assert set(np.unique(data.labels)) <= set(range(1, 5))


def test_multilabel_synthetic_sets():
    data = gen_multilabel_synthetic(50, 10, 6, seed=0, min_labels=2,
                                    max_labels=4)
    assert data.is_multilabel
    assert data.labels.shape == (50, 6) and data.labels.dtype == bool
    counts = np.count_nonzero(data.labels, axis=1)
    assert ((2 <= counts) & (counts <= 4)).all()


# --- ingestion ------------------------------------------------------------

def test_load_csv_binary(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("label,f0,f1\n1,0.5,1.0\n-1,2.0,0.0\n1,1.5,-1.0\n")
    data = load_dataset(path)
    assert data.n == 3 and data.d == 2 and data.l == 1
    np.testing.assert_array_equal(data.labels, [1, -1, 1])


def test_load_csv_multilabel(tmp_path):
    path = tmp_path / "ml.csv"
    path.write_text("labels,f0\n1;3,0.5\n2,1.0\n")
    data = load_dataset(path)
    assert data.is_multilabel and data.l == 3  # the largest label
    np.testing.assert_array_equal(data.labels, [[True, False, True],
                                                [False, True, False]])


def test_load_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n1,0.5\n")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert "2" in str(exc.value)  # offending line number reported


def _wide_csv(path, label_col, multilabel):
    """A 1,500-row CSV of 200 features with its label column at
    ``label_col``, and its parsed matrix, the label column read as 0."""
    rng = np.random.default_rng(label_col)
    M = rng.integers(-800, 800, size=(1500, 201)) / 8
    M[:, label_col] = 0.0
    fields = [np.char.mod("%g", M[:, j]) for j in range(201)]
    fields[label_col] = rng.choice(["1;3", "2", "2;1"] if multilabel
                                   else ["1", "-1"], size=1500)
    names = [f"f{j}" for j in range(200)]
    names.insert(label_col, "labels" if multilabel else "label")
    path.write_text("\n".join([",".join(names)] + [",".join(row) for row in
                                                  zip(*fields)]) + "\n")
    return path, M


@pytest.mark.parametrize("label_col, multilabel", [
    (0, False), (117, False), (200, False), (117, True),
], ids=["first", "middle", "last", "labels-middle"])
def test_load_csv_compacts_the_parse_over_its_label_column(tmp_path, label_col,
                                                          multilabel):
    # 1,500 rows of 201 values move in blocks of 163 rows
    path, M = _wide_csv(tmp_path / "wide.csv", label_col, multilabel)
    load_dataset(path)  # imports what a first load imports, untraced
    tracemalloc.start()
    try:
        data = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.features.tobytes() == np.delete(M, label_col, axis=1).tobytes()
    assert data.features.flags.c_contiguous
    assert data.is_multilabel == multilabel
    # the parse's own peak: 1.23x the parsed matrix, 1.30x with label
    # sets; a copy of the features beside it made it 2.15x and 2.29x
    assert peak <= 1.5 * M.nbytes


@pytest.mark.parametrize("format, text", [
    ("csv", "label,f0,f1\n1,0.5,1.0\n\n-1,2.0,nan\n1,1.5,-1.0\n"),
    ("csv", "label,f0,f1\n1,0.5,1.0\n\n-1,inf,0.0\n1,1.5,-inf\n"),
    ("csv", "label,f0,f1\n1,0.5,1.0\n\n-1,2.0,-inf\n1,1.5,-1.0\n"),
    ("libsvm", "1 1:0.5\n\n2 2:1.0\n1 1:nan 2:1.0\n"),
    ("libsvm", "1 1:0.5\n\n2 2:1.0\n1 2:inf\n"),
])
def test_load_rejects_non_finite_feature(tmp_path, format, text):
    path = tmp_path / "nonfinite.data"
    path.write_text(text)
    with pytest.raises(DataParseError) as exc:
        load_dataset(path, format=format)
    assert exc.value.lineno == 4  # the first bad line; blank lines count


@pytest.mark.parametrize("format, text, lineno", [
    ("csv", "label,f0\n1,0.5\n99999999999999999999,1.0\n-1,2.0\n", 3),
    ("libsvm", "1 1:0.5\n1e20 1:1.0\n-1 1:2.0\n", 2),
    ("libsvm", "1 1:0.5\n\ninf 1:1.0\n", 3),
], ids=["csv", "libsvm", "libsvm-inf"])
def test_load_rejects_label_beyond_int64(tmp_path, format, text, lineno):
    path = tmp_path / "big.data"
    path.write_text(text)
    with pytest.raises(DataParseError) as exc:
        load_dataset(path, format=format)
    assert exc.value.lineno == lineno


@pytest.mark.parametrize("format, text", [
    ("csv", "label,f0\n1,0.5\n\n3,1.0\n2,2.0\n"),
    ("csv", "labels,f0\n1,0.5\n\n3,1.0\n2,2.0\n"),
    ("libsvm", "1 1:0.5\n2 1:1.5\n\n3 1:1.0\n2 1:2.0\n"),
], ids=["csv-class", "csv-label-set", "libsvm"])
def test_load_rejects_label_outside_given_l_at_its_line(tmp_path, format,
                                                          text):
    # a model's label count (the eval path) that a record's label exceeds
    path = tmp_path / "three.data"
    path.write_text(text)
    with pytest.raises(DataParseError) as exc:
        load_dataset(path, format=format, l=2)
    assert exc.value.lineno == 4  # blank lines count


def test_load_libsvm_sparse(tmp_path):
    path = tmp_path / "sparse.libsvm"
    path.write_text("2 1:0.5 4:1.0\n1 2:2.0\n")
    data = load_dataset(path, format="libsvm")
    np.testing.assert_array_equal(data.features[0], [0.5, 0.0, 0.0, 1.0])
    assert data.labels[0] == 2


@pytest.mark.parametrize("text, lineno", [
    ("1 0:5.0 1:0.5\n-1 1:1.0 2:2.0\n", 1),
    ("1 1:0.5\n\n-1 2:1.0 -1:3.0\n", 3),
], ids=["zero", "negative"])
def test_load_libsvm_rejects_index_below_1(tmp_path, text, lineno):
    # indices are 1-based; 0 or a negative index must not wrap around to
    # the last columns
    path = tmp_path / "zero.libsvm"
    path.write_text(text)
    with pytest.raises(DataParseError) as exc:
        load_dataset(path, format="libsvm")
    assert exc.value.lineno == lineno


def test_load_libsvm_rejects_non_integral_label(tmp_path):
    # 1.5 is no class; it must not load as 1
    path = tmp_path / "half.libsvm"
    path.write_text("1 1:0.5\n\n1.5 1:1.0\n-1 1:2.0\n")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path, format="libsvm")
    assert exc.value.lineno == 3


def test_load_libsvm_reads_integral_label_spellings(tmp_path):
    path = tmp_path / "signs.libsvm"
    path.write_text("+1 1:0.5\n-1 1:1.0\n1.0 1:2.0\n-1.0 1:3.0\n")
    data = load_dataset(path, format="libsvm")
    np.testing.assert_array_equal(data.labels, [1, -1, 1, -1])
    assert data.l == 1


@pytest.mark.parametrize("label", ["99999999999999999999;1", "0;1", "1;2;3"],
                         ids=["beyond-int64", "zero", "every-label"])
def test_load_csv_rejects_label_set_outside_range(tmp_path, label):
    # the first would set l to 10**20, the second fails the label-set check
    # of Dataset, and the third holds every label 1..l, as l is the largest
    # label; each must name the record's line
    path = tmp_path / "sets.csv"
    path.write_text(f"labels,f0\n1;2,0.5\n\n{label},1.0\n3,1.5\n")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert exc.value.lineno == 4
    assert str(path) in str(exc.value)


def test_write_csv_roundtrip(tmp_path):
    orig = gen_multilabel_synthetic(20, 4, 5, seed=3)
    path = tmp_path / "rt.csv"
    write_csv(orig, path)
    back = load_dataset(path, l=5)
    np.testing.assert_allclose(back.features, orig.features, atol=0)
    np.testing.assert_array_equal(back.labels, orig.labels)
    # l is the largest label; it was one more, a label that no row held
    assert load_dataset(path).l == 5


def _reference_load_csv(path, l=None):
    """The per-field CSV parser the bulk parse replaced, kept as the oracle:
    csv.reader, then float() or int() on every field.  Its line numbers
    count CSV records, which are the physical lines of files whose quoted
    fields do not span lines."""
    import csv

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0][1]]
    if "label" in header:
        label_col, multilabel = header.index("label"), False
    elif "labels" in header:
        label_col, multilabel = header.index("labels"), True
    else:
        raise DataParseError(path, 1, "header must contain a 'label' or 'labels' column")
    feat_cols = [j for j in range(len(header)) if j != label_col]
    feats, labels = [], []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataParseError(path, lineno,
                                 f"expected {len(header)} fields, got {len(row)}")
        try:
            feats.append([float(row[j]) for j in feat_cols])
            if multilabel:
                labels.append(frozenset(int(v) for v in row[label_col].split(";")))
            else:
                labels.append(int(row[label_col]))
        except ValueError as exc:
            raise DataParseError(path, lineno, str(exc)) from None
    if not feats:
        raise ValueError(f"{path}: no data rows")
    X = np.array(feats, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise DataParseError(path, rows[1:][bad[0]][0], "non-finite feature value")
    if multilabel:
        if l is None:
            l = max(max(ys) for ys in labels)
        return Dataset(X, tuple(labels), l)
    y = np.array(labels, dtype=np.int64)
    if l is None:
        l = 1 if set(np.unique(y)) <= {-1, 1} else int(y.max())
    return Dataset(X, y, l)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_csv_values = st.one_of(_finite.map(lambda v: "%.17g" % v),
                        _finite.map(lambda v: "%.6e" % v),
                        st.just("-0.0"))


@st.composite
def _csv_texts(draw):
    """A well-formed CSV file: the label column anywhere, single labels or
    ';' label sets, CRLF or LF, blank lines, quoted and space-padded
    fields (a quoted field may span lines), plain and exponent notation."""
    d = draw(st.integers(1, 4))
    label_col = draw(st.integers(0, d))
    multilabel = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    classes = draw(st.sampled_from([(-1, 1), (1, 2, 3, 4, 5)]))

    def cell(text):
        if draw(st.booleans()):
            pad = st.sampled_from(["", " ", newline])
            return '"' + draw(pad) + text + draw(pad) + '"'
        pad = st.sampled_from(["", " ", "  "])
        return draw(pad) + text + draw(pad)

    def label():
        if multilabel:
            ys = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True))
            return ";".join(map(str, ys))
        return str(draw(st.sampled_from(classes)))

    names = [f"f{j}" for j in range(d)]
    names.insert(label_col, "labels" if multilabel else "label")
    lines = [",".join(cell(h) for h in names)]
    for _ in range(draw(st.integers(1, 6))):
        row = [cell(draw(_csv_values)) for _ in range(d)]
        row.insert(label_col, cell(label()))
        lines.append(",".join(row))
    text = ""
    for line in lines:
        text += newline * draw(st.integers(0, 1)) + line + newline
    return text if draw(st.booleans()) else text[:-len(newline)]


@given(_csv_texts())
@settings(max_examples=150, deadline=None)
def test_load_csv_matches_per_field_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "random.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _reference_load_csv(path)
    except LabelError as exc:  # a label set that holds every label 1..l
        with pytest.raises(DataParseError, match=re.escape(str(exc))):
            load_dataset(path)
        return
    got = load_dataset(path)
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.shape == want.labels.shape
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.l == want.l


@pytest.mark.parametrize("text", [
    "label,f0,f1\n1,0.5,1.0\n\n-1,2.0\n1,1.5,-1.0\n",
    "label,f0,f1\n1,0.5,1.0\n\n-1,2.0,0.0,3.0\n1,1.5,-1.0\n",
    "label,f0,f1\n1,0.5,1.0\n\n-1,2.0,abc\n1,1.5,-1.0\n",
    "label,f0,f1\n1,0.5,1.0\n\n1.5,2.0,0.0\n1,1.5,-1.0\n",
    "labels,f0\n1;2,0.5\n\n1;x,1.0\n2,1.5\n",
], ids=["short-row", "long-row", "non-numeric", "non-integer-label",
        "bad-label-set"])
def test_load_csv_error_matches_reference(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataParseError) as got:
        load_dataset(path)
    with pytest.raises(DataParseError) as want:
        _reference_load_csv(path)
    assert got.value.lineno == want.value.lineno == 4
    assert str(got.value) == str(want.value)


def test_load_csv_missing_label_column_names_header_line(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("\n\nlbl,f0\n1,0.5\n")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert exc.value.lineno == 3


def test_load_csv_line_numbers_count_lines_inside_quoted_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('label,f0\n1,0.5\n"2\n",1.0\n-1,abc\n')
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert exc.value.lineno == 5


@pytest.mark.parametrize("value", ["1_0", "١"])  # ARABIC-INDIC DIGIT ONE
def test_load_csv_rejects_numbers_loadtxt_does_not_read(tmp_path, value):
    # float() reads digit separators and non-ASCII digits; np.loadtxt does not
    path = tmp_path / "sep.csv"
    path.write_text(f"label,f0\n1,0.5\n\n-1,{value}\n", encoding="utf-8")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert exc.value.lineno == 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("\n\n", "empty dataset file"),
    ("label,f0\n\n", "no data rows"),
])
def test_load_csv_without_rows(tmp_path, text, message):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


# --- noise ----------------------------------------------------------------

def test_noise_p_zero_identity():
    data = monk_dataset()
    noisy = inject_noise(data, NoiseSpec(mode="symmetric", p=0.0, seed=0))
    np.testing.assert_array_equal(noisy.labels, data.labels)


def test_noise_p_one_binary_flips_all():
    data = gen_synthetic(SyntheticSpec(seed=0))
    noisy = inject_noise(data, NoiseSpec(mode="symmetric", p=1.0, seed=0))
    np.testing.assert_array_equal(noisy.labels, -data.labels)


def test_noise_preserves_features_bit_exactly():
    data = gen_multiclass_blobs(200, 4, 5, seed=1)
    noisy = inject_noise(data, NoiseSpec(mode="symmetric", p=0.5, seed=2))
    assert noisy.features is data.features or \
        np.array_equal(noisy.features, data.features)


def test_symmetric_selection_count_within_three_sigma():
    data = gen_multiclass_blobs(5000, 3, 6, seed=3)
    p = 0.3
    noisy = inject_noise(data, NoiseSpec(mode="symmetric", p=p, seed=4))
    flips = np.count_nonzero(noisy.labels != data.labels)
    sigma = np.sqrt(data.n * p * (1 - p))
    assert abs(flips - data.n * p) <= 3 * sigma


def test_asymmetric_map_only_touches_mapped_classes():
    data = gen_multiclass_blobs(2000, 3, 10, seed=5)
    spec = NoiseSpec(mode="asymmetric_map", p=0.4, flip_map={2: 7, 3: 8},
                     seed=6)
    noisy = inject_noise(data, spec)
    changed = noisy.labels != data.labels
    assert set(np.unique(data.labels[changed])) <= {2, 3}
    eligible = int(np.sum(np.isin(data.labels, [2, 3])))
    sigma = np.sqrt(eligible * 0.4 * 0.6)
    assert abs(np.count_nonzero(changed) - 0.4 * eligible) <= 3 * sigma


def test_asymmetric_map_required():
    with pytest.raises(ValueError):
        NoiseSpec(mode="asymmetric_map", p=0.2)


def test_asymmetric_map_target_range_checked():
    data = gen_multiclass_blobs(10, 2, 3, seed=0)
    spec = NoiseSpec(mode="asymmetric_map", p=0.5, flip_map={1: 9}, seed=0)
    with pytest.raises(ValueError):
        inject_noise(data, spec)


@pytest.mark.parametrize("flip_map", [{0: 1}, {1: 0}], ids=["0:1", "1:0"])
def test_binary_flip_map_entries_must_be_signs(flip_map):
    data = gen_synthetic(SyntheticSpec(seed=0))
    spec = NoiseSpec(mode="asymmetric_map", p=0.5, flip_map=flip_map, seed=0)
    with pytest.raises(ValueError, match="flip_map entry .* outside label range"):
        inject_noise(data, spec)


def test_multilabel_noise_keeps_sets_valid():
    data = gen_multilabel_synthetic(300, 5, 8, seed=7, min_labels=2,
                                    max_labels=4)
    noisy = inject_noise(data, NoiseSpec(mode="multilabel_symmetric", p=0.5,
                                         seed=8))
    assert (noisy.labels != data.labels).any()
    assert noisy.labels.shape == (300, 8)
    counts = np.count_nonzero(noisy.labels, axis=1)
    assert ((1 <= counts) & (counts < 8)).all()


def test_multilabel_noise_mode_mismatch():
    data = monk_dataset()
    with pytest.raises(ValueError):
        inject_noise(data, NoiseSpec(mode="multilabel_symmetric", p=0.2))


def _loop_noise(data, spec):
    """The labels of the per-row loops that inject_noise draws as arrays."""
    rng = np.random.default_rng(spec.seed)
    if spec.mode == "multilabel_symmetric":
        selected = rng.random(data.n) < spec.p
        new_labels = []
        for i in range(data.n):
            ys = [int(y) for y in np.flatnonzero(data.labels[i]) + 1]
            if not selected[i]:
                new_labels.append(frozenset(ys))
                continue
            replaced = set()
            for y in ys:
                choices = [c for c in range(1, data.l + 1) if c != y]
                replaced.add(int(rng.choice(choices)))
            new_labels.append(frozenset(replaced))
        return Dataset(data.features, new_labels, data.l).labels
    y = data.labels.copy()
    if spec.mode == "symmetric":
        selected = rng.random(data.n) < spec.p
        for i in np.flatnonzero(selected):
            if data.l == 1:
                y[i] = -y[i]
            else:
                choices = [c for c in range(1, data.l + 1) if c != y[i]]
                y[i] = int(rng.choice(choices))
    else:
        draws = rng.random(data.n)
        for i in range(data.n):
            dst = spec.flip_map.get(int(y[i]))
            if dst is not None and draws[i] < spec.p:
                y[i] = int(dst)
    return y


def _noise_cases():
    """(data, mode, flip_map) over binary, l = 2, 10 and 14 labels; maps
    with a k:k entry and a full cycle; label sets of up to l - 1 labels."""
    binary = gen_synthetic(SyntheticSpec(seed=0))
    yield binary, "symmetric", None
    yield binary, "asymmetric_map", {1: 1, -1: 1}
    yield binary, "asymmetric_map", {1: -1, -1: 1}
    for l in (2, 10, 14):
        classes = gen_multiclass_blobs(150, 2, l, seed=l)
        yield classes, "symmetric", None
        yield classes, "asymmetric_map", {1: 1, 2: l}
        yield classes, "asymmetric_map", {k: k % l + 1 for k in range(1, l + 1)}
        sets = gen_multilabel_synthetic(150, 2, l, seed=l, max_labels=l - 1)
        yield sets, "multilabel_symmetric", None


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
def test_noise_labels_match_per_row_loops(p, seed):
    for data, mode, flip_map in _noise_cases():
        spec = NoiseSpec(mode=mode, p=p, flip_map=flip_map, seed=seed)
        noisy, expected = inject_noise(data, spec).labels, _loop_noise(data, spec)
        assert noisy.shape == expected.shape and noisy.dtype == expected.dtype
        assert noisy.tobytes() == expected.tobytes()


# --- splitting and standardization ----------------------------------------

def test_split_sizes():
    data = gen_multiclass_blobs(100, 3, 4, seed=0)
    tr, va, te = split_dataset(data, (0.5, 0.25, 0.25), seed=1)
    assert (tr.n, va.n, te.n) == (50, 25, 25)


def test_split_deterministic_and_exhaustive():
    data = gen_multiclass_blobs(101, 3, 4, seed=0)
    parts_a = split_dataset(data, (0.6, 0.4), seed=9)
    parts_b = split_dataset(data, (0.6, 0.4), seed=9)
    rows = np.vstack([p.features for p in parts_a])
    assert rows.shape[0] == data.n
    # every original row appears exactly once across the parts
    assert len({tuple(r) for r in rows}) == len({tuple(r) for r in data.features})
    for pa, pb in zip(parts_a, parts_b):
        np.testing.assert_array_equal(pa.features, pb.features)


def test_split_fraction_guard():
    data = monk_dataset()
    with pytest.raises(ValueError):
        split_dataset(data, (0.5, 0.4), seed=0)


def test_standardize_simple_column():
    train = Dataset(np.array([[1.0], [3.0]]), np.array([1, -1]), 1)
    (out,), means, stds = standardize(train)
    np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])
    assert means[0] == 2.0 and stds[0] == 1.0


def test_standardize_constant_column_untouched():
    train = Dataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([1, -1]), 1)
    (out,), _, _ = standardize(train)
    np.testing.assert_array_equal(out.features[:, 0], [5.0, 5.0])


def test_standardize_uses_train_statistics_only():
    rng = np.random.default_rng(10)
    train = Dataset(rng.normal(2, 3, size=(50, 4)),
                    np.ones(50, dtype=np.int64), 1)
    test = Dataset(rng.normal(-1, 0.5, size=(20, 4)),
                   np.ones(20, dtype=np.int64), 1)
    expected = (test.features - train.features.mean(axis=0)) / \
        train.features.std(axis=0)
    (tr, te), means, stds = standardize(train, test)
    np.testing.assert_allclose(te.features, expected, atol=1e-12)


def _reference_standardize(train, *others):
    """The masked-copy standardize: only columns with a nonzero train
    standard deviation are rewritten."""
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    active = stds > 0
    out = []
    for ds in (train, *others):
        X = ds.features.copy()
        X[:, active] = (X[:, active] - means[active]) / stds[active]
        out.append(X)
    return out


def test_standardize_matches_masked_reference():
    # column 0 has zero variance and holds -0.0, which must stay -0.0
    train = Dataset(np.array([[-0.0, 1.0, 2.5], [0.0, 3.0, -1.0],
                              [0.0, -2.0, 7.25]]),
                    np.array([1, -1, 1]), 1)
    test = Dataset(np.array([[-0.0, -0.0, 0.1], [4.0, 0.5, -0.0]]),
                   np.array([1, -1]), 1)
    want_tr, want_te = _reference_standardize(train, test)
    (tr, te), _, _ = standardize(train, test)
    assert tr.features.tobytes() == want_tr.tobytes()
    assert te.features.tobytes() == want_te.tobytes()
    assert np.signbit(tr.features[0, 0]) and np.signbit(te.features[0, 0])


def test_split_part_without_rows_is_rejected_by_name():
    data = gen_multiclass_blobs(20, 3, 4, seed=0)
    with pytest.raises(ValueError, match=r"part 1 \(fraction 0\.02\) .*n=20"):
        split_dataset(data, (0.98, 0.02), seed=0)
    with pytest.raises(ValueError, match="part 0"):
        split_sizes(20, (-0.2, 1.2))
    assert split_sizes(20, (0.96, 0.04)) == (19, 1)
    assert split_sizes(101, (0.6, 0.4)) == (61, 40)


def _with_hard_columns(data, seed):
    """``data`` with a constant column and a column whose variance
    underflows to 0 (its values still differ) prepended."""
    rng = np.random.default_rng(seed)
    const = np.full((data.n, 1), rng.standard_normal())
    tiny = 1e-170 * (1.0 + 1e-3 * rng.standard_normal((data.n, 1)))
    X = np.hstack([const, tiny, data.features * 10.0 ** rng.integers(-5, 6)])
    return Dataset(X, data.labels, data.l)


def _numpy_zscore(split):
    """The train means and stds and each part's z-scored features, by
    numpy's own statistics and z-score expression; zero-variance columns
    are left as they are."""
    train = split[0].features
    active = train.std(axis=0) > 0
    shift = np.where(active, train.mean(axis=0), 0.0)
    scale = np.where(active, train.std(axis=0), 1.0)
    return (train.mean(axis=0), train.std(axis=0),
            [(p.features - shift) / scale for p in split])


@pytest.mark.parametrize("fractions", [(0.7, 0.3), (0.5, 0.3, 0.2),
                                       (10 / 13, 2 / 13, 1 / 13)])
@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("kind", ["multiclass", "binary", "multilabel"])
def test_split_standardized_equals_standardize_of_split(kind, seed, fractions):
    # standardize(*split_dataset(..., copy=False)), as a run calls it, gives
    # numpy's statistics and z-scores of the copying split's parts
    if kind == "multiclass":
        base = gen_multiclass_blobs(157, 5, 4, seed=seed)
    elif kind == "binary":
        base = gen_synthetic(SyntheticSpec(seed=seed))
    else:
        base = gen_multilabel_synthetic(90, 4, 5, seed=seed)
    data = _with_hard_columns(base, seed)
    split = split_dataset(data, fractions, seed)
    want_means, want_stds, want = _numpy_zscore(split)
    assert np.ptp(data.features[:, 1]) > 0 and want_stds[1] == 0
    got, means, stds = standardize(*split_dataset(data, fractions, seed,
                                                  copy=False))
    assert means.tobytes() == want_means.tobytes()
    assert stds.tobytes() == want_stds.tobytes()
    assert len(got) == len(want) == len(split)
    for g, w, raw in zip(got, want, split):
        assert g.features.tobytes() == w.tobytes()
        assert g.l == raw.l and g.labels.dtype == raw.labels.dtype
        assert g.labels.tobytes() == raw.labels.tobytes()


def test_split_leaves_its_input_and_standardize_z_scores_in_place():
    data = _with_hard_columns(gen_multiclass_blobs(80, 4, 3, seed=2), 2)
    before = data.features.tobytes()
    parts = split_dataset(data, (0.5, 0.3, 0.2), seed=3)
    assert data.features.tobytes() == before
    buffers = [p.features for p in parts]
    _, _, want = _numpy_zscore(parts)
    got, _, _ = standardize(*parts)
    for g, p, b, w in zip(got, parts, buffers, want, strict=True):
        assert g is p and g.features is b
        assert b.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [1, 2, 16, 33, 49, 1000])
def test_split_in_place_equals_the_copying_split(d):
    # standardize takes the statistics of 33 columns in blocks of 16 and
    # 17, and of 49 in blocks of 17, 16 and 16; rows of 1000 values move
    # along a cycle in blocks of 32 rows
    rng = np.random.default_rng(d)
    X = rng.standard_normal((301, d)) * 10.0 ** rng.integers(-5, 6, size=d)
    y = rng.integers(1, 4, size=301)
    want = split_dataset(Dataset(X, y, 3), (0.5, 0.3, 0.2), seed=7)
    taken = Dataset(X.copy(), y, 3)
    got = split_dataset(taken, (0.5, 0.3, 0.2), seed=7, copy=False)
    start = 0
    for g, w in zip(got, want, strict=True):
        assert g.features.tobytes() == w.features.tobytes()
        assert g.labels.tobytes() == w.labels.tobytes()
        # a block of consecutive rows of the taken buffer
        assert g.features.ctypes.data == taken.features[start:].ctypes.data
        start += g.n
    want_means, want_stds, want = _numpy_zscore(want)
    got, means, stds = standardize(*got)
    assert means.tobytes() == want_means.tobytes()
    assert stds.tobytes() == want_stds.tobytes()
    for g, w in zip(got, want, strict=True):
        assert g.features.tobytes() == w.tobytes()


def test_split_standardized_takes_the_rows_of_its_input():
    data = _with_hard_columns(gen_multiclass_blobs(80, 4, 3, seed=2), 2)
    parts, _, _ = standardize(*split_dataset(data, (0.5, 0.3, 0.2), seed=3,
                                             copy=False))
    assert all(np.shares_memory(p.features, data.features) for p in parts)
    assert sum(p.features.nbytes for p in parts) == data.features.nbytes


def test_split_standardized_holds_one_copy_of_the_rows():
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((20_000, 100)),
                   rng.integers(1, 4, size=20_000), 3)
    tracemalloc.start()
    try:
        result = standardize(*split_dataset(data, (0.6, 0.2, 0.2), seed=5,
                                            copy=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(p.n for p in result[0]) == data.n
    # the scratch block of the train statistics, 12,000 x 17 values, and
    # the parts' labels; a copy of the rows would make it over 1x
    assert peak <= 0.15 * data.features.nbytes


# --- dataset invariants ---------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 5]), 3)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), (frozenset(), frozenset({1})), 4)
    with pytest.raises(ValueError, match="bool label matrix"):
        Dataset(np.zeros((2, 2)), np.eye(2, 4, dtype=np.int64), 4)
    with pytest.raises(ValueError, match="bool label matrix"):
        Dataset(np.zeros((2, 2)), np.eye(2, 3, dtype=bool), 4)


def test_label_sets_given_as_sets_or_as_the_matrix():
    Y = np.array([[True, False, True, False], [False, True, False, False]])
    for labels in ((frozenset({1, 3}), frozenset({2})), [{3, 1}, {2}], Y):
        data = Dataset(np.zeros((2, 1)), labels, 4)
        assert data.is_multilabel and data.labels.dtype == bool
        np.testing.assert_array_equal(data.labels, Y)
        assert data.label_matrix is data.labels
        assert not data.labels.flags.writeable


@pytest.mark.parametrize("labels, row", [
    ((frozenset({1}), frozenset({2}), frozenset({1, 2, 3, 4})), 2),
    ((frozenset({1}), frozenset(), frozenset({5})), 1),
    ((frozenset({1}), frozenset({0, 2}), frozenset()), 1),
    (np.array([[1, 0, 0, 0], [1, 1, 1, 1]], dtype=bool), 1),
    (np.array([[1, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=bool), 1),
], ids=["full-set", "empty-set", "set-outside-l", "full-row", "empty-row"])
def test_bad_label_set_raises_at_its_row(labels, row):
    with pytest.raises(LabelError) as exc:
        Dataset(np.zeros((len(labels), 1)), labels, 4)
    assert exc.value.row == row


def test_a_callers_label_matrix_stays_writeable():
    Y = np.array([[True, False, False], [False, True, True]])
    data = Dataset(np.zeros((2, 1)), Y, 3)
    assert Y.flags.writeable and not data.labels.flags.writeable
    noisy = inject_noise(data, NoiseSpec(mode="multilabel_symmetric", p=1.0))
    assert not noisy.labels.flags.writeable
    np.testing.assert_array_equal(data.labels, Y)  # the draw wrote a copy


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_randomized_ops_pure_in_seed(seed):
    a = gen_multiclass_blobs(60, 3, 4, seed=seed)
    b = gen_multiclass_blobs(60, 3, 4, seed=seed)
    np.testing.assert_array_equal(a.features, b.features)
    na = inject_noise(a, NoiseSpec(mode="symmetric", p=0.4, seed=seed))
    nb = inject_noise(b, NoiseSpec(mode="symmetric", p=0.4, seed=seed))
    np.testing.assert_array_equal(na.labels, nb.labels)


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(3), np.ones(3, dtype=np.int64),
     "features must be a non-empty n x d matrix, got (3,)"),
    (np.zeros((3, 2)), np.ones(2, dtype=np.int64),
     "label count does not match sample count"),
], ids=["features-1d", "labels-not-n"])
def test_dataset_rejects_mismatched_arrays(features, labels, message):
    with pytest.raises(ValueError) as info:
        Dataset(features, labels, 1)
    assert str(info.value) == message
