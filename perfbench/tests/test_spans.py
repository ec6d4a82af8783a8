import types

import pytest

from perfbench.spans import Span, Tracer, covered, self_time


def span(start, end, parent=None, span_id=0):
    return Span(span_id, "s", start, end, parent)


def test_self_time_without_children_is_the_duration():
    assert self_time(span(1.0, 4.0), []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    parent = span(0.0, 10.0)
    kids = [span(1.0, 3.0), span(5.0, 6.0)]
    assert self_time(parent, kids) == pytest.approx(7.0)


def test_overlapping_children_are_counted_once():
    parent = span(0.0, 10.0)
    kids = [span(1.0, 4.0), span(3.0, 6.0), span(5.5, 5.8)]
    assert covered(0.0, 10.0, [(k.start, k.end) for k in kids]) == \
        pytest.approx(5.0)
    assert self_time(parent, kids) == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    parent = span(2.0, 6.0)
    kids = [span(0.0, 3.0), span(5.0, 9.0), span(7.0, 8.0)]
    assert self_time(parent, kids) == pytest.approx(2.0)


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = Tracer()
    with tracer.span("outer", request=7) as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id
    assert inner.request == 7
    assert outer.parent is None
    selves = tracer.self_times()
    assert selves[outer.span_id] == pytest.approx(
        outer.duration - inner.duration)


def test_shim_records_a_child_span_and_restores_the_name():
    module = types.SimpleNamespace(work=lambda x: x * 2)
    original = module.work
    tracer = Tracer()
    with tracer.span("caller", request=3) as caller:
        with tracer.shim(module, "work", "callee"):
            assert module.work(21) == 42
    assert module.work is original
    (callee,) = tracer.named("callee")
    assert callee.parent == caller.span_id
    assert callee.request == 3


def test_adopt_renumbers_and_keeps_parent_links():
    tracer = Tracer()
    with tracer.span("local"):
        pass
    adopted = tracer.adopt([
        {"span_id": 1, "name": "cell", "start": 0.0, "end": 2.0,
         "parent": None, "request": 5, "attrs": {}},
        {"span_id": 2, "name": "kernel", "start": 0.5, "end": 1.5,
         "parent": 1, "request": 5, "attrs": {}},
    ])
    cell, kernel = adopted
    assert len({s.span_id for s in tracer.spans}) == 3
    assert kernel.parent == cell.span_id
    assert tracer.self_times()[cell.span_id] == pytest.approx(1.0)
