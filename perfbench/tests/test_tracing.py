import time

import pytest

from perfbench.tracing import (
    GROUPS,
    ModuleProfiler,
    Span,
    Tracer,
    classify,
    self_times,
    summarize,
    union_length,
)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(0, 4), (1, 2), (3, 5)]) == 5
    assert union_length([(1, 1), (2, 1)]) == 0


def test_self_time_subtracts_children():
    spans = [
        Span("parent", 0.0, 10.0, None, "r1"),
        Span("child", 1.0, 3.0, 0, "r1"),
        Span("child", 5.0, 6.0, 0, "r1"),
        Span("grandchild", 5.0, 5.5, 2, "r1"),
    ]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 0.5, 0.5])


def test_self_time_with_overlapping_children():
    # Two concurrent children (asyncio tasks) overlap on [2, 3]; the
    # parent loses their union, 4 units, not the sum of 5.
    spans = [
        Span("parent", 0.0, 10.0, None, None),
        Span("a", 1.0, 3.0, 0, None),
        Span("b", 2.0, 5.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_self_time_clips_children_to_parent():
    spans = [
        Span("parent", 0.0, 4.0, None, None),
        Span("late", 3.0, 9.0, 0, None),
    ]
    assert self_times(spans) == pytest.approx([3.0, 6.0])


def test_summarize_totals():
    spans = [
        Span("p", 0.0, 4.0, None, None),
        Span("c", 1.0, 2.0, 0, None),
        Span("c", 2.0, 3.0, 0, None),
    ]
    summary = summarize(spans)
    assert summary["c"]["count"] == 2
    assert summary["c"]["total_s"] == pytest.approx(2.0)
    assert summary["p"]["self_s"] == pytest.approx(2.0)


def test_tracer_links_parents_and_ids():
    tracer = Tracer()
    with tracer.span("request", "r7"):
        with tracer.span("submit"):
            pass
    with tracer.span("other"):
        pass
    request, submit, other = tracer.spans
    assert submit.parent == 0 and submit.ident == "r7"
    assert other.parent is None and other.ident is None
    assert request.start <= submit.start <= submit.end <= request.end


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_classify_layers():
    assert classify("repro.core.cpu") == "core.cpu"
    assert classify("repro.cache.setassoc") == "cache"
    assert classify("repro.prefetch.matcher") == "prefetch.matcher"
    assert classify("repro.prefetch.markov") == "repro.other"
    assert classify("repro.service.store") == "service"
    assert classify("perfbench.sweeps") == "perfbench"
    assert classify("json.decoder") == "other"


def _busy():
    total = 0
    for value in range(20000):
        total += abs(value)
    return total


def test_profiler_self_times_add_up_to_wall():
    profiler = ModuleProfiler()
    with profiler:
        _busy()
        time.sleep(0.01)
    assert set(profiler.self_s) == set(GROUPS)
    total = sum(profiler.self_s.values()) + profiler.unattributed_s
    assert total == pytest.approx(profiler.wall_s)
    assert profiler.calls["perfbench"] >= 1
    # the sleep builtin is charged to its caller, this test module
    assert profiler.self_s["other"] >= 0.009
