import asyncio

import pytest

import spans
from spans import Span, SpanRecorder, self_time


def _span(start, end, parent=None, id=0):
    return Span(id, parent, None, "s", start, end, 0, {})


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(0.0, 10.0), []) == 10.0


def test_self_time_subtracts_nested_children():
    parent = _span(0.0, 10.0)
    assert self_time(parent, [_span(1.0, 3.0), _span(5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    parent = _span(0.0, 10.0)
    children = [_span(1.0, 4.0), _span(3.0, 6.0), _span(5.5, 7.0), _span(8.0, 9.0)]
    # Union is [1, 7] and [8, 9]: 7 seconds covered.
    assert self_time(parent, children) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_span():
    parent = _span(2.0, 8.0)
    children = [_span(0.0, 3.0), _span(7.0, 12.0), _span(20.0, 30.0)]
    assert self_time(parent, children) == pytest.approx(4.0)


def test_spans_inherit_parent_and_request():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("request", request=7):
        with rec.span("inner") as attrs:
            attrs["x"] = 1
    inner, outer = rec.spans
    assert (outer.name, outer.request, outer.parent) == ("request", 7, None)
    assert (inner.name, inner.request, inner.parent) == ("inner", 7, outer.id)
    assert inner.attrs == {"x": 1}
    assert rec.children() == {outer.id: [inner]}
    assert rec.current() is None


def test_concurrent_requests_keep_separate_stacks():
    rec = SpanRecorder()

    async def one(request):
        with rec.span("request", request=request):
            await asyncio.sleep(0)
            with rec.span("step"):
                await asyncio.sleep(0)

    async def main():
        await asyncio.gather(one(1), one(2))

    asyncio.run(main())
    parents = {s.id: s for s in rec.spans if s.name == "request"}
    for step in rec.named("step"):
        assert parents[step.parent].request == step.request


def test_install_wraps_and_undo_restores():
    from repro.browse.resilience import ResilientBrowsingService
    from repro.cache import TileResultCache
    from repro.gateway import Gateway
    import repro.browse.resilience as resilience

    before = (Gateway.submit, ResilientBrowsingService.browse, TileResultCache.probe, resilience.plan_delta)
    undo = spans.install(SpanRecorder())
    try:
        during = (Gateway.submit, ResilientBrowsingService.browse, TileResultCache.probe, resilience.plan_delta)
        assert all(a is not b for a, b in zip(before, during))
    finally:
        undo()
    after = (Gateway.submit, ResilientBrowsingService.browse, TileResultCache.probe, resilience.plan_delta)
    assert all(a is b for a, b in zip(before, after))
