"""Spans recorded around calls into the planner's layers.

A :class:`Tracer` keeps every span in memory as a small list
``[span_id, name, start, end, parent_id, request_id, continued]`` and the
benchmark writes them out once the run ends.  Spans come from two places:

* the benchmark's own code (:meth:`Tracer.begin`), e.g. one ``http`` span
  per request the client sends;
* wrappers that :class:`Installer` puts at every place the program looks a
  layer's function up (a module global bound by ``from x import f``, a
  module attribute reached as ``x.f``, or a class attribute).  The program
  itself is not edited, and :meth:`Installer.uninstall` puts the original
  objects back, so an untraced run measures the unmodified program.

A recursive re-entry of a function (``dataclass_from_jsonable`` rebuilding
a nested dataclass, ``pareto_body`` calling ``pareto_point_body``, ...) is
recorded as part of the outer span, not as a span of its own.  A generator
(``parallel_configs``) is timed only while it runs: every resumption is a
span segment, and only the first segment of a call counts as a call.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

# Indices into a span record.
SID, NAME, START, END, PARENT, REQUEST, CONTINUED = range(7)

#: ``observe(counts, args, kwargs, result)``: adds a wrapped call's work
#: counts (rows, hits, ...) to ``counts``.
Observer = Callable[[Dict[str, float], tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder shared by the client and the server thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Request the client is currently waiting for; spans opened in any
        #: thread are tagged with it.
        self.request_id: Optional[int] = None
        #: Span of that request on the client side: spans that open with an
        #: empty stack in another thread (the server's) are its children.
        self.request_span: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
        return local

    def _open(self, name: str, local, continued: bool = False) -> list:
        stack = local.stack
        parent = stack[-1][SID] if stack else self.request_span
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent,
                self.request_id, continued]
        self.spans.append(span)
        stack.append(span)
        local.active.add(name)
        return span

    def _close(self, span: list, local) -> None:
        span[END] = time.perf_counter()
        local.stack.pop()
        local.active.discard(span[NAME])

    def begin(self, name: str) -> list:
        """Open a span from the benchmark's own code; close it with :meth:`end`."""
        return self._open(name, self._state())

    def end(self, span: list) -> None:
        self._close(span, self._state())

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """``fn`` with every outermost call recorded as a span ``name``."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return tracer._iterate(name, fn(*args, **kwargs), observe, args, kwargs)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            if name in local.active:
                return fn(*args, **kwargs)
            span = tracer._open(name, local)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, local)
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _iterate(self, name, generator, observe, args, kwargs):
        continued = False
        while True:
            local = self._state()
            span = self._open(name, local, continued)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._close(span, local)
            continued = True
            if observe is not None:
                observe(self.counts, args, kwargs, item)
            yield item


class Installer:
    """Replaces attributes with traced wrappers and restores them later."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def lookup_sites(modules: Iterable[Any], fn: Callable) -> List[tuple]:
    """Every ``(module, attribute)`` of ``modules`` bound to ``fn`` itself."""
    sites = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, attr))
    return sites


# ----------------------------------------------------------------------
# Turning spans into per-layer numbers
# ----------------------------------------------------------------------

def _covered(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    Children may overlap one another (spans of two threads); the part of
    the parent they cover is counted once.
    """
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        out[span[SID]] = (end - start) - _covered(children.get(span[SID], ()), start, end)
    return out


def layer_totals(spans: Sequence[list], requests: Optional[set] = None) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and summed ``self_s``.

    With ``requests``, only spans tagged with one of those request ids are
    counted (self times are still computed against every child).
    """
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        if requests is not None and span[REQUEST] not in requests:
            continue
        entry = totals[span[NAME]]
        entry["self_s"] += selfs[span[SID]]
        if not span[CONTINUED]:
            entry["calls"] += 1
    return dict(totals)
