import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankedrange import (
    RankedRange,
    RiskLevelPair,
    cvar_bound_check,
    empirical_cvar,
    empirical_icvar,
    ranked_range_sum,
    deviation_bound_radii,
    sort_descending,
    top_k_sum,
)
from rankedrange import riskmeasure

value_sets = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=4, max_size=40)


def test_cvar_half():
    assert empirical_cvar([1, 2, 3, 4], 0.5) == pytest.approx(3.5)


def test_cvar_top_one():
    assert empirical_cvar([1, 2, 3, 4], 0.25) == pytest.approx(4.0)


def test_cvar_alpha_one_is_mean():
    s = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_cvar(s, 1.0) == pytest.approx(float(s.mean()))


def test_cvar_alpha_out_of_range():
    with pytest.raises(ValueError):
        empirical_cvar([1.0], 0.0)
    with pytest.raises(ValueError):
        empirical_cvar([1.0], 1.5)


def test_cvar_non_integral_rank_matches_grid():
    rng = np.random.default_rng(0)
    s = rng.uniform(0, 10, size=7)
    alpha = 0.4  # n*alpha = 2.8, not an integer
    got = empirical_cvar(s, alpha)
    grid = np.linspace(s.min() - 1, s.max() + 1, 20001)
    dense = min(lam + np.sum(np.maximum(s - lam, 0)) / (7 * alpha)
                for lam in grid)
    assert got == pytest.approx(dense, abs=1e-3)
    assert got <= dense + 1e-12  # exact breakpoint minimum beats the grid


def test_cvar_non_integral_rank_ties_match_breakpoint_minimum():
    # the objective is convex piecewise linear with kinks at the values, so
    # its minimum is the smallest value over those breakpoints
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        s = rng.integers(0, 4, size=n).astype(float)  # many ties
        alpha = float(rng.uniform(0.01, 1.0))
        if abs(n * alpha - round(n * alpha)) < 1e-6:
            continue
        brute = min(lam + np.sum(np.maximum(s - lam, 0.0)) / (n * alpha)
                    for lam in s)
        assert empirical_cvar(s, alpha) == pytest.approx(brute, abs=1e-12)


@given(value_sets, st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=40)
def test_cvar_translation_equivariance(vals, c):
    s = np.array(vals)
    alpha = max(1, s.size // 4) / s.size
    assert empirical_cvar(s + c, alpha) == pytest.approx(
        empirical_cvar(s, alpha) + c, abs=1e-9)


def test_cvar_positive_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(0, 50, size=int(rng.integers(4, 30)))
        alpha = max(1, s.size // 3) / s.size
        scale = float(rng.uniform(0.1, 5))
        assert empirical_cvar(scale * s, alpha) == pytest.approx(
            scale * empirical_cvar(s, alpha), rel=1e-9)


def test_cvar_non_increasing_in_alpha():
    rng = np.random.default_rng(2)
    s = rng.uniform(0, 10, size=20)
    alphas = [k / 20 for k in range(1, 21)]
    cvars = [empirical_cvar(s, a) for a in alphas]
    assert all(a >= b - 1e-12 for a, b in zip(cvars, cvars[1:]))


# --- interval variant -----------------------------------------------------

def test_icvar_small_example():
    levels = RiskLevelPair(nu=0.5, mu=0.25)
    assert empirical_icvar([1, 2, 3, 4], levels) == pytest.approx(0.75)


def test_icvar_mu_zero():
    levels = RiskLevelPair(nu=0.5, mu=0.0)
    s = np.array([1.0, 2.0, 3.0, 4.0])
    assert empirical_icvar(s, levels) == pytest.approx(7.0 / 4)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_icvar_integral_rank_identity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    s = rng.uniform(0, 100, size=n)
    k = int(rng.integers(2, n + 1))
    m = int(rng.integers(0, k))
    levels = RiskLevelPair(nu=k / n, mu=m / n)
    expected = ranked_range_sum(s, RankedRange(m, k)) / n
    assert empirical_icvar(s, levels) == pytest.approx(expected, abs=1e-9)


def test_icvar_non_integral_rank_warns():
    levels = RiskLevelPair(nu=0.5, mu=0.3)  # n*mu = 2.1 for n=7
    with pytest.warns(UserWarning):
        empirical_icvar(np.arange(7.0), levels)


@pytest.mark.parametrize("nu, mu", [(0.25, 0.2), (0.04, 0.0)],
                         ids=["k-equals-m", "k-zero"])
def test_icvar_rejects_ranks_that_round_to_an_empty_range(nu, mu):
    # on 10 values, 2.5 and 2 both round to rank 2, and 0.4 rounds to 0
    with pytest.raises(ValueError, match="empty range"):
        empirical_icvar(np.arange(1.0, 11.0), RiskLevelPair(nu=nu, mu=mu))


def test_level_pair_validation():
    with pytest.raises(ValueError):
        RiskLevelPair(nu=0.2, mu=0.5)
    with pytest.raises(ValueError):
        RiskLevelPair(nu=1.5, mu=0.1)


# --- deviation bounds -----------------------------------------------------

def test_radii_closed_form():
    import math
    r = RankedRange(5, 20)
    upper, lower = deviation_bound_radii(r, 100, 0.1, (0.0, 1.0))
    common = math.sqrt(math.log(10.0) / 200.0)
    assert upper == pytest.approx(
        math.sqrt(5 * 20 * math.log(30.0) / 100 ** 2) + common)
    assert lower == pytest.approx(
        math.sqrt(5 * 5 * math.log(30.0) / 100 ** 2) + common)
    assert upper > lower  # k > m


def test_bound_check_guards():
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    with pytest.raises(ValueError):
        cvar_bound_check(sampler, 100, RankedRange(5, 20), 0.1, trials=10)
    with pytest.raises(ValueError):
        cvar_bound_check(sampler, 100, RankedRange(5, 20), 0.1, trials=1000,
                         support=(1.0, 1.0))
    with pytest.raises(ValueError):
        cvar_bound_check(sampler, 100, RankedRange(5, 20), 1.5, trials=1000)


@pytest.mark.parametrize("size", [0, -1, 1, 99, 2.5, 2000.0])
def test_bound_check_rejects_a_bad_reference_size(size):
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    with pytest.raises(ValueError, match="reference_size"):
        cvar_bound_check(sampler, 100, RankedRange(5, 20), 0.1, trials=100,
                         reference_size=size)


@pytest.mark.parametrize("name, value", [
    ("n", 100.0), ("n", np.float64(100)), ("n", 0),
    ("trials", 200.5), ("trials", 99), ("seed", -1), ("seed", 1.0),
], ids=["n-float", "n-numpy-float", "n-zero", "trials-fraction",
        "trials-too-few", "seed-negative", "seed-float"])
def test_bound_check_rejects_a_bad_integer_argument(name, value):
    drawn = []

    def sampler(rng, size):
        drawn.append(size)
        return rng.uniform(0, 1, size=size)

    args = {"n": 100, "trials": 100, "seed": 0, name: value}
    with pytest.raises(ValueError, match=f"^{name}=.* must be an integer"):
        cvar_bound_check(sampler, r=RankedRange(5, 20), delta=0.1,
                         reference_size=2000, **args)
    assert drawn == []  # named before the reference thread starts


@pytest.mark.parametrize("support", [
    (0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
def test_bound_check_rejects_a_non_finite_support(support):
    # an infinite bound gives infinite radii, so no gap could escape them
    drawn = []

    def sampler(rng, size):
        drawn.append(size)
        return rng.uniform(0, 1, size=size)

    with pytest.raises(ValueError, match="support"):
        cvar_bound_check(sampler, 100, RankedRange(5, 20), 0.1, trials=100,
                         support=support, reference_size=2000)
    assert drawn == []  # named before the reference thread starts


def test_bound_check_takes_numpy_integers():
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    args = {"r": RankedRange(5, 20), "delta": 0.1, "reference_size": 2000}
    assert cvar_bound_check(sampler, np.int64(100), trials=np.int32(100),
                            seed=np.int64(3), **args) == cvar_bound_check(
        sampler, 100, trials=100, seed=3, **args)


def traced_peak_bytes(call):
    """The tracemalloc peak of ``call()`` above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


VALUE_BYTES = 10 ** 6 * np.dtype(np.float64).itemsize


def test_bound_check_holds_its_top_k_and_one_block_not_the_reference():
    # the reference is drawn block by block into the k + block values of
    # its partial sort: 0.4 of the draw at k = 20% of 10**6, plus one block
    # of 2**16 values; the trials' block of 100 x 100 values is small
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    peak = traced_peak_bytes(lambda: cvar_bound_check(
        sampler, 100, RankedRange(5, 20), 0.1, trials=100,
        reference_size=10 ** 6))
    assert peak < 0.5 * VALUE_BYTES


def test_icvar_holds_k_plus_block_values_not_n():
    # k = 200,000 of 10**6, so block = k and the buffer holds 0.4 of them
    values = np.random.default_rng(0).uniform(size=10 ** 6)
    peak = traced_peak_bytes(
        lambda: empirical_icvar(values, RiskLevelPair(0.2, 0.05)))
    assert peak <= 0.6 * VALUE_BYTES


def test_top_k_sum_holds_k_plus_block_values_not_n():
    # k = 10, so the buffer holds 10 + 2**16 values, not 10**6
    values = np.random.default_rng(0).uniform(size=10 ** 6)
    peak = traced_peak_bytes(lambda: top_k_sum(values, 10))
    assert peak <= 0.2 * VALUE_BYTES


def test_bound_check_delta_one_sanity():
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    up, low = cvar_bound_check(sampler, 50, RankedRange(2, 10), 1.0,
                               trials=100, seed=0, reference_size=50_000)
    assert up <= 1.0 and low <= 1.0


def test_bound_check_uniform_rates_small():
    sampler = lambda rng, size: rng.uniform(0, 1, size=size)
    up, low = cvar_bound_check(sampler, 100, RankedRange(5, 20), 0.1,
                               trials=200, seed=3, reference_size=100_000)
    assert up <= 0.1
    assert low <= 0.1


@pytest.mark.parametrize("sampler", [
    lambda rng, size: rng.uniform(0.0, 1.0, size=size),
    lambda rng, size: rng.beta(2.0, 5.0, size),
], ids=["uniform", "beta-2-5"])
@pytest.mark.parametrize("reference_size, blocks", [
    (4 << 16, 4),     # a multiple of the block
    (123_456, 2),     # not a multiple: a short last block
    (2000, 1),        # below k + block: one block, one sampler call
])
def test_bound_check_streams_the_one_shot_reference(monkeypatch, sampler,
                                                    reference_size, blocks):
    # n = 64 with r = (4, 16) gives integral ranks on every reference size
    r, seed = RankedRange(4, 16), 7
    levels = RiskLevelPair(nu=r.k / 64, mu=r.m / 64)
    one_shot = empirical_icvar(
        sampler(np.random.default_rng(seed), reference_size), levels)
    populations, reference_sizes = [], []
    icvar = riskmeasure.empirical_icvar

    def counting_icvar(*args, **kwargs):
        populations.append(icvar(*args, **kwargs))
        return populations[-1]

    def counting_sampler(rng, size):
        if rng.bit_generator.seed_seq.entropy == seed:
            reference_sizes.append(size)
        return sampler(rng, size)

    monkeypatch.setattr(riskmeasure, "empirical_icvar", counting_icvar)
    cvar_bound_check(counting_sampler, 64, r, 0.1, trials=100, seed=seed,
                     reference_size=reference_size)
    assert [p.hex() for p in populations] == [one_shot.hex()]
    assert len(reference_sizes) == blocks
    assert sum(reference_sizes) == reference_size
    assert max(reference_sizes) <= 1 << 16


def _breaks_draw(*calls, damage):
    """A uniform sampler whose draws from the given seeds (0 is the
    reference, t + 1 is trial t at seed 0) are passed through ``damage``;
    the draws run on two threads, so they are named by seed, not by order."""
    def sampler(rng, size):
        draw = rng.uniform(0.0, 1.0, size=size)
        return (damage(draw) if rng.bit_generator.seed_seq.entropy in calls
                else draw)
    return sampler


@pytest.mark.parametrize("call, damage", [
    (4, lambda d: np.append(d, 0.5)),
    (4, lambda d: d[:-1]),
    (4, lambda d: d.reshape(-1, 1)),
    (4, lambda d: np.where(np.arange(d.size) == 7, 1.25, d)),
    (4, lambda d: np.where(np.arange(d.size) == 7, np.nan, d)),
    (0, lambda d: d[:-1]),
    (0, lambda d: d[None, :]),
    (0, lambda d: -d),
    (0, lambda d: np.where(np.arange(d.size) == 3, np.inf, d)),
], ids=["trial-extra-value", "trial-missing-value", "trial-2d",
        "trial-outside-support", "trial-nan", "reference-missing-value",
        "reference-2d", "reference-outside-support", "reference-inf"])
def test_bound_check_rejects_a_bad_draw_by_name(call, damage):
    name = "reference" if call == 0 else f"trial {call - 1}"
    with pytest.raises(ValueError, match=f"sampler draw {name}:"):
        cvar_bound_check(_breaks_draw(call, damage=damage), 20,
                         RankedRange(2, 5), 0.1, trials=100,
                         reference_size=2000)


def test_bound_check_names_the_reference_before_a_trial():
    # both the reference and trial 3 are bad; the reference is named, as
    # when it was drawn before the trials
    with pytest.raises(ValueError, match="sampler draw reference:"):
        cvar_bound_check(_breaks_draw(0, 4, damage=lambda d: -d), 20,
                         RankedRange(2, 5), 0.1, trials=100,
                         reference_size=2000)


def test_bound_check_joins_its_thread_on_a_bad_draw():
    # the reference draw ends only after trial 3's bad draw, so a call that
    # raised without joining would leave its thread running
    trial_drawn = threading.Event()

    def sampler(rng, size):
        draw = rng.uniform(0.0, 1.0, size=size)
        call = rng.bit_generator.seed_seq.entropy
        if call == 0:
            trial_drawn.wait(timeout=10)
        elif call == 4:
            trial_drawn.set()
            return draw[:-1]
        return draw

    before = threading.active_count()
    with pytest.raises(ValueError, match="sampler draw trial 3:"):
        cvar_bound_check(sampler, 20, RankedRange(2, 5), 0.1, trials=100,
                         reference_size=2000)
    assert trial_drawn.is_set()
    assert threading.active_count() == before


# --- exactness against the stable-argsort order statistics -----------------

def stable_sort_descending(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr[np.argsort(-arr, kind="stable")]


def stable_top_k_sum(values, k):
    return float(np.sum(stable_sort_descending(values)[:k])) if k else 0.0


def stable_empirical_cvar(values, alpha):
    arr = np.asarray(values, dtype=np.float64)
    k_real = arr.size * alpha
    k = int(round(k_real))
    if abs(k_real - k) < 1e-9 and k >= 1:
        return stable_top_k_sum(arr, k) / k
    whole = int(np.floor(k_real))
    srt = stable_sort_descending(arr)
    return (float(np.sum(srt[:whole]))
            + (k_real - whole) * float(srt[whole])) / k_real


def stable_empirical_icvar(values, nu, mu):
    n = len(values)
    k, m = int(round(n * nu)), int(round(n * mu))
    upper = stable_top_k_sum(values, k) / n if k >= 1 else 0.0
    if mu == 0.0:
        return upper
    return upper - (stable_top_k_sum(values, m) / n if m >= 1 else 0.0)


@given(st.lists(st.integers(min_value=-3, max_value=6), min_size=1,
                max_size=300),
       st.sampled_from([0.1, 1.0 / 3.0, 2.718281828459045]), st.data())
@settings(max_examples=150, deadline=None)
def test_value_sorts_match_stable_order_exactly(ints, scale, data):
    # few distinct values, so many ties; a non-dyadic scale makes every sum
    # depend on its order, and sizes up to 300 cross numpy's 8- and
    # 128-element pairwise summation blocks
    s = np.array(ints, dtype=np.float64) * scale
    n = s.size
    assert sort_descending(s).tobytes() == stable_sort_descending(s).tobytes()
    for k in range(n + 1):
        assert top_k_sum(s, k) == stable_top_k_sum(s, k)
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    m = data.draw(st.integers(min_value=0, max_value=k - 1), label="m")
    assert ranked_range_sum(s, RankedRange(m, k)) == \
        stable_top_k_sum(s, k) - stable_top_k_sum(s, m)
    for alpha in (k / n, (k - 0.5) / n):
        assert empirical_cvar(s, alpha) == stable_empirical_cvar(s, alpha)
    levels = RiskLevelPair(nu=k / n, mu=m / n)
    assert empirical_icvar(s, levels) == stable_empirical_icvar(s, k / n, m / n)


def assert_partial_sorts_match_full_sort(s, ks):
    n = s.size
    for k in ks:
        assert top_k_sum(s, k) == stable_top_k_sum(s, k)
        if k == 0:
            continue
        for m in sorted({0, k // 2, k - 1}):
            assert ranked_range_sum(s, RankedRange(m, k)) == \
                stable_top_k_sum(s, k) - stable_top_k_sum(s, m)
            assert empirical_icvar(s, RiskLevelPair(nu=k / n, mu=m / n)) == \
                stable_empirical_icvar(s, k / n, m / n)
        for alpha in (k / n, (k - 0.5) / n):  # integral and fractional n*alpha
            assert empirical_cvar(s, alpha) == stable_empirical_cvar(s, alpha)


@given(st.lists(st.one_of(
    st.sampled_from([-2.5, -1.0 / 3.0, -0.0, 0.0, 0.1, 1.0 / 3.0, 7.0]),
    st.floats(min_value=-10.0, max_value=10.0)), min_size=1, max_size=300))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_partial_sorts_match_the_full_sort_at_every_k(vals):
    # repeated values among distinct ones, both zeros and negatives; every k
    # from 0 through n
    s = np.array(vals)
    assert_partial_sorts_match_full_sort(s, range(s.size + 1))


def test_partial_sorts_match_the_full_sort_on_a_large_set():
    rng = np.random.default_rng(11)
    s = rng.normal(size=200_000)
    s[::2] = np.round(s[::2], 2)  # half of the values tied
    s[rng.integers(0, s.size, size=500)] = -0.0
    n = s.size
    assert_partial_sorts_match_full_sort(
        s, (0, 1, 2, 1000, n // 5, n // 2, n - 1, n))


def per_trial_gaps(sampler, n, r, trials, seed, reference_size):
    """The population-minus-empirical gap of every trial, one draw and one
    stable sort at a time."""
    nu, mu = r.k / n, r.m / n
    reference = sampler(np.random.default_rng(seed), reference_size)
    population = stable_empirical_icvar(reference, nu, mu)
    return [population - stable_empirical_icvar(
        sampler(np.random.default_rng(seed + 1 + t), n), nu, mu)
        for t in range(trials)]


@pytest.mark.parametrize("n, m, k, trials, block", [
    (40, 0, 10, 150, None),     # m = 0, every trial in one block
    (40, 3, 40, 120, None),     # k = n
    (30, 2, 9, 130, 30 * 7),    # 7 trials a block; 130 is not a multiple
    (50, 5, 20, 101, 60),       # a block holds one trial
    (300, 10, 200, 100, 299),   # top sums cross the 128-element block
])
def test_bound_check_replays_the_per_trial_loop(monkeypatch, n, m, k,
                                                trials, block):
    if block is not None:
        monkeypatch.setattr(riskmeasure, "_BLOCK_VALUES", block)
    sampler = lambda rng, size: rng.uniform(0.0, 1.0, size=size)
    r = RankedRange(m, k)
    gaps = per_trial_gaps(sampler, n, r, trials, seed=5, reference_size=6000)
    # with every gap in turn as both radii, a gap one ulp off moves a count
    for g in sorted(set(gaps)):
        monkeypatch.setattr(riskmeasure, "deviation_bound_radii",
                            lambda *args, g=g: (g, -g))
        expected = (sum(x > g for x in gaps) / trials,
                    sum(x < g for x in gaps) / trials)
        assert cvar_bound_check(sampler, n, r, 0.1, trials, seed=5,
                                reference_size=6000) == expected
