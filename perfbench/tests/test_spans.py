"""Span arithmetic and percentile reporting of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer, percentile, self_times, summarize, union_length  # noqa: E402


class FakeClock:
    """Clock that returns scripted times, one per reading."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (3, 4)], 0, 10) == 3  # back-to-back
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2  # clipped
    assert union_length([], 0, 10) == 0
    assert union_length([(4, 4)], 0, 10) == 0


def test_self_time_subtracts_union_of_direct_children():
    # 0: [0, 10] with children 1: [1, 4] and 2: [4, 6] back to back;
    # 1 has a nested child 3: [2, 3]
    starts = [0.0, 1.0, 4.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == 5.0


def test_tracer_records_nesting_and_outermost_calls():
    # clock readings: outer start, inner start, inner end, second inner
    # start, second inner end, outer end
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 3.0, 4.0, 10.0]))
    inner = tracer.wrap("core.sort", "core", lambda x: x)
    outer = tracer.wrap("core.top", "core", lambda: inner(1) + inner(2))
    assert outer() == 3
    assert list(tracer.parents) == [-1, 0, 0]
    assert list(tracer.nested) == [0, 1, 1]
    rows = tracer.summary()
    assert rows["core.top"]["calls"] == 1
    assert rows["core.top"]["s"] == 10.0
    assert rows["core.top"]["self_s"] == 7.0
    assert rows["core.sort"]["calls"] == 0  # nested in its own group
    assert rows["core.sort"]["all_calls"] == 2
    assert rows["core.sort"]["self_s"] == 3.0


def test_tracer_other_group_child_is_outermost_in_its_group():
    tracer = Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0]))
    spec = tracer.wrap("optim.spec.losses", "optim.spec", lambda: None)
    train = tracer.wrap("optim.train", "optim.train", spec)
    train()
    rows = tracer.summary()
    assert rows["optim.spec.losses"]["calls"] == 1
    assert rows["optim.spec.losses"]["s"] == 3.0
    assert rows["optim.train"]["self_s"] == 3.0


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("data.load", "data.load", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert list(tracer.ends) == [1.0]
    again = tracer.wrap("data.prep", "data.prep", lambda: 7)
    assert again() == 7
    assert list(tracer.parents) == [-1, -1]  # the stack was unwound


def test_on_return_hook_sees_nesting_and_counts():
    seen = []

    def hook(args, kwargs, result, nested, counters):
        seen.append(nested)
        counters["rows"] += result

    tracer = Tracer()
    inner = tracer.wrap("a", "g", lambda: 2, hook)
    outer = tracer.wrap("b", "g", lambda: inner() + 1, hook)
    outer()
    assert seen == [True, False]
    assert tracer.counters["rows"] == 5


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(list(range(1, 1001)), 99.9) == 999
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_reports_tail_with_ten_samples_beyond():
    # 20 samples: p50 leaves 10 beyond, p90 only 2
    out = summarize(range(1, 21))
    assert out["n"] == 20 and out["median"] == 10.5
    assert out["tail_p"] == 50.0 and out["tail"] == 10
    # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1
    out = summarize(range(1, 1001))
    assert out["tail_p"] == 99.0 and out["tail"] == 990
    out = summarize(range(1, 100001))
    assert out["tail_p"] == 99.99 and out["tail"] == 99990


def test_summarize_omits_tail_when_too_few_samples():
    out = summarize([3.0, 1.0, 2.0])
    assert out == {"n": 3, "median": 2.0}
