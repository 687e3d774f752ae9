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


def test_write_csv_roundtrip(tmp_path):
    orig = gen_multilabel_synthetic(20, 4, 5, seed=3)
    path = tmp_path / "rt.csv"
    write_csv(orig, path)
    back = load_dataset(path, l=5)
    np.testing.assert_allclose(back.features, orig.features, atol=0)
    assert back.labels == orig.labels


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
