"""In-memory span recorder, self-time arithmetic and percentile summaries.

A span is one call through a wrapped layer boundary: its name, start, end
and the span that was open when it began (its parent).  Spans are kept in
flat arrays so that a traced run with a few hundred thousand per-sample
calls stays small, and are reduced to per-layer figures after the run.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Records spans for wrapped callables.

    ``group`` names the set a span belongs to for "outermost" counting: a
    span is nested when a span of the same group is already open (for
    example ``sort_descending`` called from inside ``top_k_sum``), so a
    group's calls and time are counted once per outermost call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.groups: list = []
        self._name_ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.nested = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list = []
        self._open: Counter = Counter()

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return nid

    def wrap(self, name: str, group: str, fn, on_return=None):
        """Wrap ``fn`` so that each call records one span.

        ``on_return(args, kwargs, result, nested, counters)`` runs after the
        span closes, so its cost is charged to the caller's self time, not
        to the wrapped layer.
        """
        nid = self._name_id(name, group)
        clock, stack, open_ = self.clock, self._stack, self._open
        name_ids, parents, nested_flags = self.name_ids, self.parents, self.nested
        starts, ends, counters = self.starts, self.ends, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            depth = open_[group]
            nested_flags.append(depth > 0)
            starts.append(0.0)
            ends.append(0.0)
            open_[group] = depth + 1
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[group] = depth
                starts[i] = t0
                ends[i] = t1
            if on_return is not None:
                on_return(args, kwargs, result, depth > 0, counters)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: outermost calls, outermost seconds, self seconds,
        all calls, plus the per-call durations of outermost calls."""
        selfs = self_times(self.starts, self.ends, self.parents)
        out = {name: {"group": group, "calls": 0, "s": 0.0, "self_s": 0.0,
                      "all_calls": 0, "durations": []}
               for name, group in zip(self.names, self.groups)}
        names = self.names
        for i, nid in enumerate(self.name_ids):
            row = out[names[nid]]
            row["all_calls"] += 1
            row["self_s"] += selfs[i]
            if not self.nested[i]:
                d = self.ends[i] - self.starts[i]
                row["calls"] += 1
                row["s"] += d
                row["durations"].append(d)
        return out


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        out[p] -= union_length(kids, starts[p], ends[p])
    return out


TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def _rank(p: float, n: int) -> int:
    # 1-based nearest rank; the epsilon keeps p*n/100 = 999.0000000000001
    # from rounding up to the next rank
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(p, len(ordered)) - 1]


def summarize(values) -> dict:
    """Median and sample count, plus the highest percentile that has at
    least ten samples beyond it (absent when there are too few samples)."""
    values = list(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            out["tail_p"] = p
            out["tail"] = percentile(values, p)
            break
    return out
