import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankedrange import (
    LinearModel,
    ModelParseError,
    TrainConfig,
    load_model,
    predict_matrix,
    save_model,
)
from rankedrange.optim import _reg_value

finite = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   width=64)


def _row_scores(model, x):
    """The scores of one feature vector: predict_matrix of one row."""
    return predict_matrix(model, np.asarray(x)[None, :])[0]


def test_identity_rows_pick_feature():
    model = LinearModel(weights=np.eye(3))
    scores = _row_scores(model, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(scores, [1.0, 0.0, 0.0])


def test_zero_weights_zero_scores():
    model = LinearModel(weights=np.zeros((4, 2)))
    assert np.all(_row_scores(model, np.array([5.0, -3.0])) == 0.0)


def test_predict_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    W = rng.standard_normal((5, 7))
    b = rng.standard_normal(5)
    model = LinearModel(weights=W, bias=b)
    x = rng.standard_normal(7)
    expected = np.array([
        sum(W[i, j] * x[j] for j in range(7)) + b[i] for i in range(5)])
    np.testing.assert_allclose(_row_scores(model, x), expected, atol=1e-12)


@given(hnp.arrays(np.float64, (3, 4), elements=finite),
       hnp.arrays(np.float64, (4,), elements=finite),
       hnp.arrays(np.float64, (4,), elements=finite),
       finite, finite)
@settings(max_examples=50)
def test_predict_linearity_without_bias(W, x, z, alpha, beta):
    model = LinearModel(weights=W)
    combined = _row_scores(model, alpha * x + beta * z)
    parts = alpha * _row_scores(model, x) + beta * _row_scores(model, z)
    np.testing.assert_allclose(combined, parts, atol=1e-6)


def test_predict_matrix_consistent_with_rows():
    rng = np.random.default_rng(12)
    W, b = rng.standard_normal((3, 6)), rng.standard_normal(3)
    X = rng.standard_normal((10, 6))
    scores = predict_matrix(LinearModel(weights=W, bias=b), X)
    for i in range(10):
        np.testing.assert_allclose(scores[i], W @ X[i] + b, atol=1e-12)


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearModel(weights=np.zeros(3))
    with pytest.raises(ValueError):
        LinearModel(weights=np.zeros((2, 2)), bias=np.zeros(3))
    model = LinearModel(weights=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        predict_matrix(model, np.zeros((1, 3)))


# --- regularizer: the trainers add ||W||^2 / (2C) and its gradient W / C --

def test_penalty_zero_weights():
    assert _reg_value(np.zeros((2, 3)), 1.0) == 0.0


def test_penalty_value():
    # ||W||^2 = 4
    assert _reg_value(np.array([[2.0, 0.0]]), 2.0) == pytest.approx(1.0)


def test_penalty_gradient_finite_differences():
    rng = np.random.default_rng(13)
    W = rng.standard_normal((2, 4))
    C = 3.0
    grad = W / C
    h = 1e-6
    for i in range(2):
        for j in range(4):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd = (_reg_value(Wp, C) - _reg_value(Wm, C)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_nonpositive_c_rejected():
    with pytest.raises(ValueError):
        TrainConfig(C=0.0)


# --- persistence ----------------------------------------------------------

def test_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    model = LinearModel(weights=rng.standard_normal((3, 5)),
                        bias=rng.standard_normal(3))
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.bias, model.bias)


def test_saved_file_holds_weights_and_bias_only(tmp_path):
    # the file also held a loss_kind, k, m and kprime record of the run
    path = tmp_path / "model.txt"
    save_model(LinearModel(weights=np.ones((2, 3))), path)
    keys = [line.partition(" = ")[0] for line in path.read_text().splitlines()]
    assert keys == ["format_version", "l", "d", "weights", "bias"]


def test_roundtrip_without_bias(tmp_path):
    # a model built without a bias has a zero one, written like any other,
    # and a file without a bias line loads with a zero bias
    model = LinearModel(weights=np.array([[0.1, -0.2]]))
    np.testing.assert_array_equal(model.bias, [0.0])
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert "bias = 0\n" in path.read_text()
    path.write_text(path.read_text().replace("bias = 0\n", ""))
    np.testing.assert_array_equal(load_model(path).bias, [0.0])


def test_hand_written_minimal_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(
        "# written by hand\nformat_version = 1\nl = 1\nd = 2\n"
        "loss_kind = hinge\nk = 0\nm = 0\nkprime = 0\nweights = 1.5 -0.25\n")
    model = load_model(path)
    np.testing.assert_array_equal(model.weights, [[1.5, -0.25]])


def test_mismatched_dimensions_rejected(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(
        "format_version = 1\nl = 1\nd = 3\nloss_kind = hinge\n"
        "k = 0\nm = 0\nkprime = 0\nweights = 1.0 2.0\n")
    with pytest.raises(ModelParseError):
        load_model(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_bias_rejected(tmp_path, value):
    # a NaN bias loaded and scored every row alike
    with pytest.raises(ValueError, match="bias"):
        LinearModel(weights=np.zeros((2, 1)), bias=np.array([0.0, float(value)]))
    path = tmp_path / "model.txt"
    path.write_text(
        "format_version = 1\nl = 2\nd = 1\nloss_kind = hinge\n"
        f"k = 0\nm = 0\nkprime = 0\nweights = 1.0 2.0\nbias = 0 {value}\n")
    with pytest.raises(ModelParseError) as exc:
        load_model(path)
    assert exc.value.lineno == 9


def test_bad_version_and_missing_keys(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("format_version = 9\nl = 1\nd = 1\nweights = 1\n")
    with pytest.raises(ModelParseError):
        load_model(path)
    path.write_text("l = 1\nd = 1\nweights = 1\n")
    with pytest.raises(ModelParseError):
        load_model(path)


def test_cr_only_file_loads_and_names_a_bad_line_at_its_cr_line(tmp_path):
    # lines were split at LF alone, so a CR-only file was one bad line 1
    text = "format_version = 1\rl = 1\rd = 2\rweights = 1.5 -0.25\rbias = 0.5\r"
    path = tmp_path / "model.txt"
    path.write_bytes(text.encode("utf-8"))
    model = load_model(path)
    np.testing.assert_array_equal(model.weights, [[1.5, -0.25]])
    np.testing.assert_array_equal(model.bias, [0.5])
    for old, new, lineno in [("d = 2", "d 2", 3), ("bias = 0.5", "bias = x", 5),
                             ("l = 1", "l = 1 # caf\xe9", 2)]:
        path.write_bytes(text.replace(old, new).encode("latin-1"))
        with pytest.raises(ModelParseError) as exc:
            load_model(path)
        assert exc.value.lineno == lineno
