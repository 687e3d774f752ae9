import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    RankedRange,
    bilevel_corner_oracle,
    bottom_sum_variational,
    ranked_range_average,
    ranked_range_sum,
    sort_descending,
    top_k_sum,
    topk_variational_objective,
)
from rankedrange import core
from rankedrange.core import as_values, largest_descending

values_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1,
    max_size=50)


def random_values(rng, n):
    return rng.uniform(0.0, 1e3, size=n)


# --- top_k_sum ------------------------------------------------------------

def test_top_k_sum_by_inspection():
    assert top_k_sum([0.1, 0.5, 0.3], 2) == pytest.approx(0.8)


def test_top_k_sum_k_zero():
    assert top_k_sum([3.0, 1.0], 0) == 0.0


def test_top_k_sum_matches_full_sort_oracle():
    rng = np.random.default_rng(7)
    s = random_values(rng, 7)
    expected = float(np.sum(np.sort(s)[::-1][:3]))
    assert top_k_sum(s, 3) == pytest.approx(expected, abs=1e-9)


def test_top_k_sum_rejects_bad_k():
    with pytest.raises(ValueError):
        top_k_sum([1.0], 2)
    with pytest.raises(ValueError):
        top_k_sum([1.0], -1)
    # the rule of RankedRange: an int or a numpy integer, even when the
    # value is integral and in range
    for k in (2.5, 3.0, np.float64(2)):
        with pytest.raises(ValueError, match=r"^k=.* is not an integer$"):
            top_k_sum([4.0, 1.0, 3.0, 2.0], k)
    assert top_k_sum([4.0, 1.0, 3.0, 2.0], np.int32(2)) == 7.0


# --- ranked_range_sum / average ------------------------------------------

def test_ranked_range_sum_small():
    assert ranked_range_sum([4, 1, 3, 2], RankedRange(1, 3)) == pytest.approx(5.0)


def test_width_one_returns_order_statistic():
    # m = k-1 picks out the k-th largest value
    assert ranked_range_sum([4, 1, 3, 2], RankedRange(1, 2)) == pytest.approx(3.0)


def test_median_special_case():
    r = RankedRange(2, 3)
    assert ranked_range_average([1, 2, 3, 4, 5], r) == pytest.approx(3.0)


def test_average_special_cases():
    s = [4.0, 1.0, 3.0, 2.0]
    assert ranked_range_average(s, RankedRange(0, 4)) == pytest.approx(2.5)
    assert ranked_range_average(s, RankedRange(0, 1)) == pytest.approx(4.0)
    assert ranked_range_average(s, RankedRange(1, 3)) == pytest.approx(2.5)


def test_degenerate_range_rejected():
    with pytest.raises(ValueError):
        RankedRange(2, 2)
    with pytest.raises(ValueError):
        RankedRange(-1, 2)
    with pytest.raises(ValueError):
        RankedRange(1, 3).validate(2)


@pytest.mark.parametrize("m, k, name", [
    (1.5, 3, "m"), (1, 3.5, "k"), (1, 3.0, "k"), ("1", 3, "m")])
def test_non_integral_rank_rejected_when_built(m, k, name):
    with pytest.raises(ValueError, match=f"rank {name}="):
        RankedRange(m, k)


def test_numpy_integer_ranks_are_valid():
    r = RankedRange(np.int64(1), np.int32(3))
    assert ranked_range_sum([4.0, 1.0, 3.0, 2.0], r) == 5.0


@given(values_lists)
def test_difference_of_top_sums(vals):
    s = np.array(vals)
    n = s.size
    rng = np.random.default_rng(n)
    k = int(rng.integers(1, n + 1))
    m = int(rng.integers(0, k))
    got = ranked_range_sum(s, RankedRange(m, k))
    assert got == top_k_sum(s, k) - top_k_sum(s, m)


@given(values_lists, st.randoms(use_true_random=False))
def test_permutation_invariance(vals, pyrng):
    s = list(vals)
    k = 1 + len(s) // 2
    m = k - 1
    before = ranked_range_sum(s, RankedRange(m, k))
    pyrng.shuffle(s)
    assert ranked_range_sum(s, RankedRange(m, k)) == before


@given(values_lists, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_constant_shift(vals, c):
    s = np.array(vals)
    n = s.size
    k = max(1, n // 2)
    m = k // 2
    r = RankedRange(m, k)
    shifted = ranked_range_sum(s + c, r)
    assert shifted == pytest.approx(ranked_range_sum(s, r) + (k - m) * c,
                                    abs=1e-6)


# --- largest_descending: the blocked selection ---------------------------

# integer-valued floats give heavy ties; no -0.0, so the selections can be
# compared to the bit
selection_values = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=200),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
             .map(lambda x: x + 0.0), min_size=1, max_size=200))


def assert_selects_like_a_full_sort(s, k):
    full = sort_descending(s)
    top = largest_descending(s, k)
    assert top.tobytes() == full[:k].tobytes()
    assert top_k_sum(s, k) == float(np.sum(full[:k]))
    if k >= 1:
        m = k // 2
        assert ranked_range_sum(s, RankedRange(m, k)) == (
            float(np.sum(full[:k])) - float(np.sum(full[:m])))


@settings(deadline=None)
@given(selection_values, st.data())
def test_blocked_selection_equals_the_full_sort(vals, data):
    s = np.array(vals)
    k = data.draw(st.integers(0, s.size), label="k")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_SELECT_BLOCK", 4)
        assert_selects_like_a_full_sort(s, k)


@pytest.mark.parametrize("n, k", [
    (6, 2),    # k + block = n: one negated copy
    (7, 2),    # k + block = n - 1: two blocks, the last one value
    (5, 2),    # k + block = n + 1: one negated copy
    (10, 3),   # k + block = n - 3: a full block, then a short one
    (40, 0),   # k = 0 through the blocked path
    (40, 5),   # block = k, not the constant
])
def test_blocked_selection_at_its_edges(monkeypatch, n, k):
    monkeypatch.setattr(core, "_SELECT_BLOCK", 4)
    rng = np.random.default_rng(n * 100 + k)
    for s in (rng.normal(size=n), rng.integers(0, 3, size=n).astype(float),
              np.arange(n, dtype=float), np.arange(n, 0, -1, dtype=float)):
        assert_selects_like_a_full_sort(s, k)


@settings(deadline=None)
@given(selection_values, st.data())
def test_a_block_stream_selects_like_its_array(vals, data):
    # cut points anywhere, so blocks may be empty or cross a buffer fill
    s = np.array(vals)
    k = data.draw(st.integers(0, s.size), label="k")
    cuts = sorted(data.draw(st.lists(st.integers(0, s.size), max_size=8),
                            label="cuts"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_SELECT_BLOCK", 4)
        streamed = largest_descending(iter(np.split(s, cuts)), k, s.size)
        assert streamed.tobytes() == largest_descending(s, k).tobytes()


@pytest.mark.parametrize("n", [9, 11], ids=["too-few", "too-many"])
def test_a_block_stream_of_another_length_raises(n):
    blocks = iter(np.split(np.arange(10.0), [3, 7]))
    with pytest.raises(ValueError, match=f"10 values, not n={n}"):
        largest_descending(blocks, 2, n)


def test_sort_descending_signed_zero_tie():
    # -0.0 == 0.0, so the value sort may order them either way within their
    # tie; the sorted copy keeps every value with its sign, and the sums
    # cannot tell the order apart
    s = np.array([-0.0, 1.0, 0.0, -0.0, -1.0])
    srt = sort_descending(s)
    assert srt.tolist() == [1.0, 0.0, 0.0, 0.0, -1.0]
    assert np.count_nonzero(np.signbit(srt[1:4])) == 2
    assert srt.flags.c_contiguous and srt is not s
    assert top_k_sum(s, 2) == 1.0 and top_k_sum(s, 4) == 1.0
    assert ranked_range_sum(s, RankedRange(1, 4)) == 0.0


# --- variational forms ----------------------------------------------------

def test_topk_variational_at_optimum():
    # evaluated at lambda = k-th largest value the bound is tight
    assert topk_variational_objective([4, 1, 3, 2], 2, 3.0) == pytest.approx(7.0)


def test_topk_variational_upper_bounds():
    assert topk_variational_objective([4, 1, 3, 2], 2, 0.0) == pytest.approx(10.0)


def test_topk_variational_k_equals_n():
    s = np.array([4.0, 1.0, 3.0, 2.0])
    got = topk_variational_objective(s, 4, float(s.min()))
    assert got == pytest.approx(float(s.sum()), abs=1e-9)


@given(values_lists)
@settings(max_examples=50)
def test_topk_variational_grid_minimum(vals):
    s = np.array(vals)
    n = s.size
    k = max(1, n // 2)
    target = top_k_sum(s, k)
    srt = sort_descending(s)
    tight = topk_variational_objective(s, k, float(srt[k - 1]))
    assert tight == pytest.approx(target, abs=1e-9)
    grid = np.linspace(s.min() - 1, s.max() + 1, 101)
    assert all(topk_variational_objective(s, k, lam) >= target - 1e-9
               for lam in grid)


def test_bottom_sum_variational_at_optimum():
    assert bottom_sum_variational([4, 1, 3, 2], 1, 4.0) == pytest.approx(6.0)


def test_bottom_sum_variational_lower_bounds():
    assert bottom_sum_variational([4, 1, 3, 2], 1, 0.0) == pytest.approx(0.0)


def test_bottom_sum_variational_m_zero():
    s = np.array([4.0, 1.0, 3.0, 2.0])
    assert bottom_sum_variational(s, 0, float(s.max())) == pytest.approx(
        float(s.sum()), abs=1e-9)


@given(values_lists)
@settings(max_examples=50)
def test_bottom_sum_variational_grid_maximum(vals):
    s = np.array(vals)
    n = s.size
    m = n // 2
    srt = sort_descending(s)
    target = float(np.sum(srt[m:]))
    lam_star = float(srt[m - 1]) if m >= 1 else float(srt[0]) + 1.0
    assert bottom_sum_variational(s, m, lam_star) == pytest.approx(
        target, abs=1e-9)
    grid = np.linspace(s.min() - 1, s.max() + 1, 101)
    assert all(bottom_sum_variational(s, m, lam) <= target + 1e-9
               for lam in grid)


# --- bilevel corner oracle ------------------------------------------------

def test_corner_oracle_small():
    assert bilevel_corner_oracle([4, 1, 3, 2], RankedRange(1, 3)) == \
        pytest.approx(5.0, abs=1e-9)


def test_corner_oracle_full_range():
    s = [4.0, 1.0, 3.0, 2.0]
    assert bilevel_corner_oracle(s, RankedRange(0, 4)) == pytest.approx(10.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_corner_oracle_equals_sorted_sum(vals):
    s = np.array(vals)
    n = s.size
    k = max(1, (2 * n) // 3)
    m = k // 3
    r = RankedRange(m, k)
    assert bilevel_corner_oracle(s, r) == pytest.approx(
        ranked_range_sum(s, r), abs=1e-9)


def test_value_set_wrapper():
    assert as_values([1.0, 2.0]).size == 2
    with pytest.raises(ValueError):
        as_values([])
    with pytest.raises(ValueError):
        as_values([float("nan")])


# --- argument checks ------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: topk_variational_objective([1.0, 2.0], 3, 0.0),
     "k=3 out of range for value set of size n=2"),
    (lambda: topk_variational_objective([1.0, 2.0], -1, 0.0),
     "k=-1 out of range for value set of size n=2"),
    (lambda: bottom_sum_variational([1.0, 2.0], 2, 0.0),
     "m=2 out of range for value set of size n=2"),
    (lambda: bilevel_corner_oracle([-1.0, 2.0], RankedRange(0, 1)),
     "corner oracle requires non-negative values"),
    (lambda: bilevel_corner_oracle(np.ones(5), RankedRange(0, 1), max_n=4),
     "n=5 exceeds brute-force guard max_n=4"),
], ids=["k-above-n", "k-negative", "m-at-n", "negative-value", "n-above-max_n"])
def test_bad_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
