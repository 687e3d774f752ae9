"""Order-statistics primitives: top-k sums, ranked-range sums, and their
variational (difference-of-convex) reformulations.

All functions are pure and operate on a 1-D set of finite real values.
Index orders (``descending_order``) are stable: ties keep ascending
original index.  Value sorts, full (``sort_descending``) or of the k
largest values only (``largest_descending``), have no visible tie order,
since tied values are bitwise equal; the one exception is ``-0.0`` against
``0.0``.  A sum over a ranked range runs over the k largest values in
descending order, so it is the same to the bit from either sort.  The
k largest values are selected block by block, so a ranked-range sum holds
k + block extra values, not n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# values per block of ``largest_descending``'s selection when k is smaller
_SELECT_BLOCK = 1 << 16


def as_values(values) -> np.ndarray:
    """The values as a checked non-empty finite 1-D array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"expected a non-empty 1-D value set, got shape {arr.shape}")
    # min and max propagate NaN, so this is exact without an n-byte mask
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError("value set contains non-finite entries")
    return arr


@dataclass(frozen=True)
class RankedRange:
    """A pair (m, k) naming the consecutive sorted slice from rank m+1 to k.

    m counts excluded top values; validity against a set size n is checked
    at the use site via ``validate``.
    """

    m: int
    k: int

    def __post_init__(self):
        for name in ("m", "k"):
            rank = getattr(self, name)
            if not isinstance(rank, (int, np.integer)):
                raise ValueError(f"rank {name}={rank!r} is not an integer")
        if self.m < 0 or self.k <= self.m:
            raise ValueError(f"need 0 <= m < k, got m={self.m}, k={self.k}")

    def validate(self, n: int) -> "RankedRange":
        if self.k > n:
            raise ValueError(f"rank k={self.k} exceeds set size n={n}")
        return self

    @property
    def width(self) -> int:
        return self.k - self.m


def descending_order(values) -> np.ndarray:
    """Indices that sort the values descending, ties by ascending index."""
    # stable sort on -arr keeps the earliest index first among ties
    return np.argsort(-as_values(values), kind="stable")


def sort_descending(values) -> np.ndarray:
    """A C-contiguous copy of the values sorted descending.

    The value sequence equals that of the stable index order, because tied
    values are bitwise equal; only ``-0.0`` and ``0.0``, which compare
    equal, may come out in either order within their tie.
    """
    srt = np.negative(as_values(values))
    srt.sort()
    return np.negative(srt, out=srt)


def largest_descending(values, k: int, n: int | None = None) -> np.ndarray:
    """The k largest of the checked values, sorted descending.

    ``values`` is a checked 1-D array, or, when ``n`` is given, an iterable
    of checked 1-D blocks holding n values in all, read once in order (a
    total other than n raises ValueError).  A partial sort in
    O(n + k log k): with block = max(k, ``_SELECT_BLOCK``), a buffer of
    min(n, k + block) values keeps the k largest negated values seen so
    far; values are negated into its tail and it is partitioned at rank k
    each time it fills, and once at the end (one fill, so one negated copy,
    when k + block >= n); only the final k are sorted.  The k values equal
    the prefix of ``sort_descending`` in the same order, up to the tie
    order of ``-0.0`` and ``0.0``.  Needs 0 <= k <= n; the result is a view
    of the buffer, so memory holds k + block extra values, not n, while it
    lives, and a stream's blocks are dropped as they are read.
    """
    if n is None:
        n, values = values.size, (values,)
    buf = np.empty(min(n, k + max(k, _SELECT_BLOCK)))
    filled = seen = 0
    for chunk in values:
        seen += chunk.size
        while chunk.size:
            take = min(chunk.size, buf.size - filled)
            np.negative(chunk[:take], out=buf[filled:filled + take])
            chunk = chunk[take:]
            filled += take
            if filled == buf.size:
                buf.partition(k - 1)
                filled = k
        # drop this block before the stream makes the next one
        del chunk
    if seen != n:
        raise ValueError(f"the blocks hold {seen} values, not n={n}")
    if filled > k:
        buf[:filled].partition(k - 1)
    top = buf[:k]
    top.sort()
    return np.negative(top, out=top)


def top_k_sum(values, k: int) -> float:
    """Sum of the k largest entries (empty sum for k=0), from a partial sort
    of those k that holds k + block extra values, not n.  k must be an int
    or a numpy integer, as the ranks of ``RankedRange`` are."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k={k!r} is not an integer")
    arr = as_values(values)
    n = arr.size
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for value set of size n={n}")
    if k == 0:
        return 0.0
    return float(np.sum(largest_descending(arr, k)))


def ranked_range_sum(values, r: RankedRange) -> float:
    """Sum of sorted values from rank m+1 through k.

    Computed from one partial sort of the k largest values, which holds
    k + block extra values, not n, as the difference of two top sums, so
    the identity with ``top_k_sum`` holds exactly, in the same summation
    order.
    """
    arr = as_values(values)
    r.validate(arr.size)
    srt = largest_descending(arr, r.k)
    return float(np.sum(srt[:r.k])) - float(np.sum(srt[:r.m]))


def ranked_range_average(values, r: RankedRange) -> float:
    """Average over the (m, k) ranked range: ranked_range_sum / (k - m)."""
    return ranked_range_sum(values, r) / r.width


def topk_variational_objective(values, k: int, lam: float) -> float:
    """Evaluate k*lam + sum_i [s_i - lam]_+.

    Minimized over lam this equals ``top_k_sum(values, k)``, attained at
    lam = k-th largest value.
    """
    arr = as_values(values)
    if not 0 <= k <= arr.size:
        raise ValueError(f"k={k} out of range for value set of size n={arr.size}")
    return float(k * lam + np.sum(np.maximum(arr - lam, 0.0)))


def bottom_sum_variational(values, m: int, lam: float) -> float:
    """Evaluate (n-m)*lam - sum_i [lam - s_i]_+.

    Maximized over lam this equals the sum of all but the m largest values,
    attained at lam = m-th largest value (any lam >= max for m = 0).
    """
    arr = as_values(values)
    n = arr.size
    if not 0 <= m < n:
        raise ValueError(f"m={m} out of range for value set of size n={n}")
    return float((n - m) * lam - np.sum(np.maximum(lam - arr, 0.0)))


def bilevel_corner_oracle(values, r: RankedRange, max_n: int = 20) -> float:
    """Brute-force ranked-range sum via corner enumeration.

    Minimizes over all binary selections q with exactly n-m ones of the
    inner problem min_lam (k-m)*lam + sum_{i in q} [s_i - lam]_+, whose
    value is the top-(k-m) sum of the selected entries.  Requires
    non-negative values and small n; used as an independent test oracle.
    """
    arr = as_values(values)
    n = arr.size
    r.validate(n)
    if np.any(arr < 0):
        raise ValueError("corner oracle requires non-negative values")
    if n > max_n:
        raise ValueError(f"n={n} exceeds brute-force guard max_n={max_n}")
    best = np.inf
    for keep in itertools.combinations(range(n), n - r.m):
        inner = top_k_sum(arr[list(keep)], r.width)
        if inner < best:
            best = inner
    return float(best)
