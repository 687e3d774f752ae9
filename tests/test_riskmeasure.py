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
)

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


def test_level_pair_validation():
    with pytest.raises(ValueError):
        RiskLevelPair(nu=0.2, mu=0.5)
    with pytest.raises(ValueError):
        RiskLevelPair(nu=1.5, mu=0.1)
    with pytest.raises(ValueError):
        RiskLevelPair(nu=0.5, mu=0.1, a=1.0, b=1.0)


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
