import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    DataParseError,
    Dataset,
    NoiseSpec,
    SyntheticSpec,
    flip_count,
    gen_multiclass_blobs,
    gen_multilabel_synthetic,
    gen_synthetic,
    inject_noise,
    load_dataset,
    monk_dataset,
    split_dataset,
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
    assert all(2 <= len(Y) <= 4 for Y in data.labels)
    assert all(max(Y) <= 6 and min(Y) >= 1 for Y in data.labels)


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
    assert data.is_multilabel
    assert data.labels[0] == frozenset({1, 3})


def test_load_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n1,0.5\n")
    with pytest.raises(DataParseError) as exc:
        load_dataset(path)
    assert "2" in str(exc.value)  # offending line number reported


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


@pytest.mark.parametrize("label", ["99999999999999999999;1", "0;1"],
                         ids=["beyond-int64", "zero"])
def test_load_csv_rejects_label_set_outside_range(tmp_path, label):
    # the first would set l to 10**20, the second fails the label-set check
    # of Dataset; both must name the record's line
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
    assert back.labels == orig.labels


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
            l = max(max(ys) for ys in labels) + 1
        return Dataset(X, tuple(labels), l, f"csv:{path}")
    y = np.array(labels, dtype=np.int64)
    if l is None:
        l = 1 if set(np.unique(y)) <= {-1, 1} else int(y.max())
    return Dataset(X, y, l, f"csv:{path}")


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
    got, want = load_dataset(path), _reference_load_csv(path)
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    if want.is_multilabel:
        assert got.labels == want.labels
    else:
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
    assert flip_count(noisy) == 0


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
    flips = flip_count(noisy)
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
    assert abs(flip_count(noisy) - 0.4 * eligible) <= 3 * sigma


def test_asymmetric_map_required():
    with pytest.raises(ValueError):
        NoiseSpec(mode="asymmetric_map", p=0.2)


def test_asymmetric_map_target_range_checked():
    data = gen_multiclass_blobs(10, 2, 3, seed=0)
    spec = NoiseSpec(mode="asymmetric_map", p=0.5, flip_map={1: 9}, seed=0)
    with pytest.raises(ValueError):
        inject_noise(data, spec)


def test_multilabel_noise_keeps_sets_valid():
    data = gen_multilabel_synthetic(300, 5, 8, seed=7, min_labels=2,
                                    max_labels=4)
    noisy = inject_noise(data, NoiseSpec(mode="multilabel_symmetric", p=0.5,
                                         seed=8))
    assert any(a != b for a, b in zip(noisy.labels, data.labels))
    for Y in noisy.labels:
        assert 1 <= len(Y) < 8
        assert all(1 <= y <= 8 for y in Y)


def test_multilabel_noise_mode_mismatch():
    data = monk_dataset()
    with pytest.raises(ValueError):
        inject_noise(data, NoiseSpec(mode="multilabel_symmetric", p=0.2))


def test_flip_count_requires_noise_record():
    with pytest.raises(ValueError):
        flip_count(monk_dataset())


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
    train = Dataset(np.array([[1.0], [3.0]]), np.array([1, -1]), 1, "t")
    (out,), means, stds = standardize(train)
    np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])
    assert means[0] == 2.0 and stds[0] == 1.0


def test_standardize_constant_column_untouched():
    train = Dataset(np.array([[5.0, 1.0], [5.0, 3.0]]), np.array([1, -1]),
                    1, "t")
    (out,), _, _ = standardize(train)
    np.testing.assert_array_equal(out.features[:, 0], [5.0, 5.0])


def test_standardize_uses_train_statistics_only():
    rng = np.random.default_rng(10)
    train = Dataset(rng.normal(2, 3, size=(50, 4)),
                    np.ones(50, dtype=np.int64), 1, "t")
    test = Dataset(rng.normal(-1, 0.5, size=(20, 4)),
                   np.ones(20, dtype=np.int64), 1, "t")
    (tr, te), means, stds = standardize(train, test)
    expected = (test.features - train.features.mean(axis=0)) / \
        train.features.std(axis=0)
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
                    np.array([1, -1, 1]), 1, "t")
    test = Dataset(np.array([[-0.0, -0.0, 0.1], [4.0, 0.5, -0.0]]),
                   np.array([1, -1]), 1, "t")
    (tr, te), _, _ = standardize(train, test)
    want_tr, want_te = _reference_standardize(train, test)
    assert tr.features.tobytes() == want_tr.tobytes()
    assert te.features.tobytes() == want_te.tobytes()
    assert np.signbit(tr.features[0, 0]) and np.signbit(te.features[0, 0])


# --- dataset invariants ---------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([1, 5]), 3, "bad label range")
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), (frozenset(), frozenset({1})), 4, "empty set")


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_randomized_ops_pure_in_seed(seed):
    a = gen_multiclass_blobs(60, 3, 4, seed=seed)
    b = gen_multiclass_blobs(60, 3, 4, seed=seed)
    np.testing.assert_array_equal(a.features, b.features)
    na = inject_noise(a, NoiseSpec(mode="symmetric", p=0.4, seed=seed))
    nb = inject_noise(b, NoiseSpec(mode="symmetric", p=0.4, seed=seed))
    np.testing.assert_array_equal(na.labels, nb.labels)
