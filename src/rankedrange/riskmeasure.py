"""Empirical conditional value at risk, the interval (two-level) variant,
and a Monte Carlo check of its finite-sample deviation bounds."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import RankedRange, as_values, largest_descending, top_k_sum

# values per block of the reference draw and per Monte Carlo block of trials:
# besides the k + block extra values of the reference's partial sort (not n)
# and one value per trial, memory holds one block of each however large the
# reference and however many trials are run
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class RiskLevelPair:
    """Tail levels (nu, mu) with nu > mu."""

    nu: float
    mu: float

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu={self.nu} outside (0, 1]")
        if not 0.0 <= self.mu < self.nu:
            raise ValueError(f"need 0 <= mu < nu, got mu={self.mu}, nu={self.nu}")


def _rank(x: float) -> tuple:
    """(floor, fraction) of the real rank x, an x within 1e-9 of an
    integer counting as that integer."""
    whole = round(x)
    if abs(x - whole) < 1e-9:
        return whole, 0.0
    whole = math.floor(x)
    return whole, x - whole


def empirical_cvar(values, alpha: float) -> float:
    """min over lam of lam + (1/(n*alpha)) * sum_i [s_i - lam]_+.

    When n*alpha is an integer k this is the mean of the top k values;
    otherwise the minimum, attained at the (floor(n*alpha) + 1)-th largest
    value, is (sum of the floor(n*alpha) largest + the fractional part of
    n*alpha times the next largest) / (n*alpha).  Either sum comes from a
    partial sort of what it needs, which holds k + block extra values, not n.
    """
    arr = as_values(values)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside (0, 1]")
    k_real = arr.size * alpha
    whole, fraction = _rank(k_real)
    if whole >= 1 and not fraction:
        return top_k_sum(arr, whole) / whole
    srt = largest_descending(arr, whole + 1)
    tail = float(np.sum(srt[:whole])) + (k_real - whole) * float(srt[whole])
    return tail / k_real


def empirical_icvar(values, levels: RiskLevelPair,
                    n: int | None = None) -> float:
    """nu * CVaR_nu - mu * CVaR_mu on the empirical sample.

    Each term n * level * CVaR_level is, as in ``empirical_cvar``, the sum
    of the floor(n * level) largest values plus the fractional part of
    n * level times the next largest, an n * level within 1e-9 of an
    integer counting as that integer; so with integral ranks n*nu and
    n*mu this is the (m, k) ranked-range sum divided by n.  ``values`` is
    the sample, or, when ``n`` is given, an iterable of 1-D blocks holding
    the n values of the sample in all, each checked as it is read; the
    result is the same to the bit either way.  The sums come from a
    partial sort of the k = ceil(n * nu) largest values, so memory holds
    k + block extra values, not n, besides the values or the stream's
    current block.
    """
    if n is None:
        arr = as_values(values)
        n, values = arr.size, (arr,)
    else:
        values = map(as_values, values)
    upper, lower = _rank(n * levels.nu), _rank(n * levels.mu)
    srt = largest_descending(values, upper[0] + (upper[1] > 0), n)

    def tail(whole, fraction):
        top = float(np.sum(srt[:whole]))
        return top + fraction * float(srt[whole]) if fraction else top

    return tail(*upper) / n - tail(*lower) / n


def _check_integer(name: str, value, least: int) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name}={value!r} must be an integer >= {least}")


def deviation_bound_radii(r: RankedRange, n: int, delta: float,
                          support: tuple) -> tuple:
    """The (upper, lower) deviation radii of the finite-sample bound.
    Raises ValueError, in this order, for a non-finite or degenerate
    ``support`` [a, b], a delta outside (0, 1], an n that is not an int
    or numpy integer >= 1, and a range whose k exceeds n."""
    a, b = support
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"support [a, b] = [{a}, {b}] must be finite")
    if not a < b:
        raise ValueError(f"degenerate support [a, b] = [{a}, {b}]")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta={delta} outside (0, 1]")
    _check_integer("n", n, 1)
    r.validate(n)
    common = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    upper = (b - a) * (math.sqrt(5.0 * r.k * math.log(3.0 / delta) / n ** 2) + common)
    lower = (b - a) * (math.sqrt(5.0 * r.m * math.log(3.0 / delta) / n ** 2) + common)
    return upper, lower


def _draw(sampler, name: str, rng: np.random.Generator,
          size: int) -> np.ndarray:
    """``sampler(rng, size)`` as a float array; a draw that is not a 1-D
    array of ``size`` values raises ValueError naming it."""
    draw = np.asarray(sampler(rng, size), dtype=np.float64)
    if draw.shape != (size,):
        raise ValueError(f"sampler draw {name}: expected {size} values "
                         f"in a 1-D array, got shape {draw.shape}")
    return draw


def _check_support(rows: np.ndarray, names: list, support: tuple) -> None:
    """Raise ValueError naming the first row of ``rows`` (one per name) that
    holds a non-finite value or one outside the finite ``support``.  Each
    row's min and max propagate NaN, and infinities fall outside the
    support, so one min and one max per row check every value; which kind
    of value is bad is worked out only for the message."""
    a, b = support
    good = (rows.min(axis=1) >= a) & (rows.max(axis=1) <= b)
    if not good.all():
        row = int(np.argmin(good))
        what = ("non-finite values" if not np.isfinite(rows[row]).all()
                else f"values outside the support [{a}, {b}]")
        raise ValueError(f"sampler draw {names[row]}: {what}")


def _reference_blocks(sampler, seed: int, size: int, support: tuple):
    """The reference draw from ``default_rng(seed)``, ``size`` values in
    blocks of ``_BLOCK_VALUES``, each checked against ``support``."""
    rng = np.random.default_rng(seed)
    for first in range(0, size, _BLOCK_VALUES):
        block = _draw(sampler, "reference", rng,
                      min(_BLOCK_VALUES, size - first))
        _check_support(block[np.newaxis], ["reference"], support)
        yield block
        # drop this block before the sampler makes the next one
        del block


def cvar_bound_check(sampler, n: int, r: RankedRange, delta: float,
                     trials: int, seed: int = 0, support: tuple = (0.0, 1.0),
                     reference_size: int = 1_000_000) -> tuple:
    """Monte Carlo violation rates of the two-sided deviation bound.

    ``sampler(rng, size)`` must draw ``size`` i.i.d. values inside the
    finite ``support`` as a 1-D array; any other draw raises ValueError
    naming it, the reference first when it and a trial are both bad.  The
    population interval-CVaR is proxied by one large reference sample of
    ``reference_size`` values (an integer >= n), drawn from one
    ``default_rng(seed)`` in blocks of 2**16 values, one sampler call per
    block; trial t draws n points from ``default_rng(seed + 1 + t)``, and
    the rates report how often the population-minus-empirical gap escapes
    the stated radii.  A sampler that draws value by value from its rng,
    as numpy's Generator distributions do, gives blocks that concatenate
    to its one draw of ``reference_size`` values, so the result is the same
    to the bit as from that draw; one whose draws depend on the call size
    may give a different reference.  The reference is drawn on a second
    thread while the calling thread draws the trials, so ``sampler`` may
    be called from two threads at once and must draw only from the ``rng``
    it is given.  Each reference block is checked while it is fresh and
    negated into the partial sort of ``empirical_icvar``, whose buffer
    holds k + max(k, 2**16) values.  Trials run in blocks of about 2**16
    values, each sorted row-wise at once; memory holds that buffer, one
    reference block, one trial block and one value per trial, not the
    reference sample.  Before any draw, ValueError names the first bad
    argument: those ``deviation_bound_radii`` checks, then ``trials`` (an
    integer >= 100), ``seed`` (>= 0) and ``reference_size`` (>= n), each
    an int or a numpy integer.
    """
    upper_radius, lower_radius = deviation_bound_radii(r, n, delta, support)
    for name, value, least in (("trials", trials, 100), ("seed", seed, 0),
                               ("reference_size", reference_size, n)):
        _check_integer(name, value, least)
    levels = RiskLevelPair(nu=r.k / n, mu=r.m / n)
    reference: dict = {}

    def draw_reference():
        # numpy releases the GIL while it fills, checks and partially sorts
        # each block of the large draw; a serial draw measured slower
        # (ROADMAP, "Ruled out")
        try:
            reference["population"] = empirical_icvar(
                _reference_blocks(sampler, seed, reference_size, support),
                levels, reference_size)
        except BaseException as exc:  # raised again in the calling thread
            reference["error"] = exc

    worker = threading.Thread(target=draw_reference,
                              name="cvar_bound_check reference")
    icvar = np.empty(trials)
    per_block = max(1, _BLOCK_VALUES // n)
    rows = np.empty((min(per_block, trials), n))
    worker.start()
    try:
        for first in range(0, trials, per_block):
            names = [f"trial {t}"
                     for t in range(first, min(first + per_block, trials))]
            block = rows[:len(names)]
            for row, name in enumerate(names):
                block[row] = _draw(sampler, name, np.random.default_rng(
                    seed + 1 + first + row), n)
            _check_support(block, names, support)
            # each row sorted descending in place, then the top sums of
            # empirical_icvar, so every trial's value is the same to the bit
            np.negative(block, out=block)
            block.sort(axis=1)
            np.negative(block, out=block)
            icvar[first:first + len(block)] = (
                np.sum(block[:, :r.k], axis=1) / n
                - np.sum(block[:, :r.m], axis=1) / n)
    finally:
        worker.join()
        # a bad reference is named before a bad trial, as if drawn first
        if "error" in reference:
            raise reference["error"]
    gap = reference["population"] - icvar
    return (int(np.count_nonzero(gap > upper_radius)) / trials,
            int(np.count_nonzero(gap < -lower_radius)) / trials)
