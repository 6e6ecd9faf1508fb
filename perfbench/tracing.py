"""Spans around the program's public calls, recorded from benchmark code.

A :class:`Tracer` wraps functions (on a class, a module or one object)
so each call records a span ``(id, name, start, end, parent, link,
failed)``.  The parent is the span open in the caller's context
(:mod:`contextvars`, so interleaved asyncio tasks and worker threads
each keep their own chain); ``link`` carries the request id(s) a span
serves.  Spans stay in memory and are written out once, at the end.

The arithmetic half of the module turns spans into self times (a span's
duration minus the part its child spans cover) and reconciles per-layer
sums against the end-to-end time.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Layers may sum to more than the end-to-end time by at most this share
#: (clock reads at span edges cost a little inside every span).
RECONCILE_TOLERANCE = 0.05


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    link: Any
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span (kept minimal: it runs per call)."""

    __slots__ = ("tracer", "name", "link", "id", "parent", "start", "token")

    def __init__(self, tracer: "Tracer", name: str, link: Any):
        self.tracer = tracer
        self.name = name
        self.link = link

    def __enter__(self) -> int:
        self.id = next(self.tracer.ids)
        self.parent = CURRENT.get()
        self.token = CURRENT.set(self.id)
        self.start = time.perf_counter()
        return self.id

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        CURRENT.reset(self.token)
        self.tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, self.link, exc_type is not None)
        )
        return False


class Tracer:
    """In-memory span recorder plus function patching."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ids = itertools.count(1)
        self.counters: Counter = Counter()

    def span(self, name: str, link: Any = None) -> _Open:
        return _Open(self, name, link)


    def wrap(self, fn: Callable, name: str, link: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``link(*args)`` tags it."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                with self.span(name, link(*args, **kwargs) if link else None):
                    return await fn(*args, **kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, link(*args, **kwargs) if link else None):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, link: Callable | None = None) -> None:
        """Replace ``owner.attr`` (class, module or instance) by a traced wrapper."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, link)))
        elif inspect.isclass(owner) or inspect.ismodule(owner):
            setattr(owner, attr, self.wrap(raw, name, link))
        else:  # one object: wrap its bound method
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, link))

    def count(self, owner: Any, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = inspect.getattr_static(owner, attr)

        @functools.wraps(original)
        def counting(*args, **kwargs):
            self.counters[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counting)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        payload = {"fields": list(Span._fields), "spans": [list(span) for span in self.spans]}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_spans(path: Path) -> list[Span]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [
        Span(s[0], s[1], s[2], s[3], s[4], tuple(s[5]) if isinstance(s[5], list) else s[5], s[6])
        for s in payload["spans"]
    ]


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def children_of(spans: list[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return children


def subtree_layers(
    root: Span,
    children: dict[int | None, list[Span]],
    own: dict[int, float],
    layer_of: Callable[[str], str],
) -> dict[str, float]:
    """Self time of every span under (and including) ``root``, by layer."""
    totals: dict[str, float] = {}
    stack = [root]
    while stack:
        span = stack.pop()
        layer = layer_of(span.name)
        totals[layer] = totals.get(layer, 0.0) + own[span.id]
        stack.extend(children.get(span.id, ()))
    return totals


def reconcile(
    end_to_end: float, layers: dict[str, float], tolerance: float = RECONCILE_TOLERANCE
) -> dict:
    """Split ``end_to_end`` into the layer sums plus an unattributed rest.

    ``ok`` is false when any layer is negative, or the layers add up to
    more than the end-to-end time, by more than ``tolerance`` of it:
    either means spans overlap or were attributed twice.
    """
    if end_to_end <= 0:
        raise ValueError(f"end-to-end time must be > 0, got {end_to_end}")
    attributed = sum(layers.values())
    unattributed = end_to_end - attributed
    slack = tolerance * end_to_end
    ok = unattributed >= -slack and all(value >= -slack for value in layers.values())
    return {
        "end_to_end": end_to_end,
        "attributed": attributed,
        "unattributed": unattributed,
        "unattributed_share": unattributed / end_to_end,
        "tolerance": tolerance,
        "ok": bool(ok),
    }
