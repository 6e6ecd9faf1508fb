import math

import pytest

from perfbench.tracing import Span, Tracer, children_of, reconcile, self_times, subtree_layers


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, None, False)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "child", 1.0, 5.0, 1),
        span(3, "grandchild", 2.0, 3.0, 2),
        span(4, "child", 6.0, 8.0, 1),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0}
    assert math.isclose(sum(own.values()), 10.0)


def test_subtree_layers_group_self_time():
    spans = [
        span(1, "batch", 0.0, 10.0),
        span(2, "score", 1.0, 5.0, 1),
        span(3, "read", 2.0, 3.0, 2),
        span(4, "score", 6.0, 8.0, 1),
        span(5, "other-root", 20.0, 30.0),
    ]
    layers = subtree_layers(spans[0], children_of(spans), self_times(spans), lambda n: n)
    assert layers == {"batch": 4.0, "score": 5.0, "read": 1.0}


def test_reconcile_splits_out_the_unattributed_rest():
    result = reconcile(10.0, {"a": 6.0, "b": 3.0})
    assert result["ok"]
    assert math.isclose(result["unattributed"], 1.0)
    assert math.isclose(result["unattributed_share"], 0.1)
    assert math.isclose(result["attributed"] + result["unattributed"], result["end_to_end"])


def test_reconcile_flags_double_counting_beyond_tolerance():
    assert reconcile(10.0, {"a": 6.0, "b": 4.4}, tolerance=0.05)["ok"]
    assert not reconcile(10.0, {"a": 6.0, "b": 4.6}, tolerance=0.05)["ok"]
    assert not reconcile(10.0, {"a": 11.0, "b": -1.0}, tolerance=0.05)["ok"]
    with pytest.raises(ValueError):
        reconcile(0.0, {})


def test_wrapped_calls_nest_and_keep_results():
    tracer = Tracer()

    class Thing:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    tracer.patch(Thing, "inner", "inner")
    tracer.patch(Thing, "outer", "outer", link=lambda self, x: x)
    assert Thing().outer(3) == 8
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.id and outer.parent is None and outer.link == 3
    assert outer.start <= inner.start <= inner.end <= outer.end
