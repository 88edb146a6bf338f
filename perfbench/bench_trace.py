"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces a public function at the attribute where its caller
looks it up (``stereo_costvol.pipeline.build_compact_concat``,
``stereo_costvol.io_formats.read_gray_image``, ...) with a wrapper that
records a span, and puts the originals back on ``restore``.  Spans stay in
memory and are written out once, when the run ends.  Nothing is recorded
while no pair is active, so the benchmark's own checks never show up.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# on_result(args, kwargs, result) -> extra span attributes (counts, bytes).
ResultHook = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass
class Span:
    id: int
    name: str
    pair: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds between start and end
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover.

    ``spans[i].id`` must equal ``i``.  Children that overlap one another (for
    example on a thread pool) are merged before subtracting, so covered
    time is never counted twice.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.pair: Optional[int] = None
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def instrument(self, module, attr: str, name: str,
                   on_result: Optional[ResultHook] = None, alloc: bool = False):
        """Wrap ``module.attr`` so each call records a span called ``name``.

        With ``alloc``, the span also records ``alloc_peak_bytes``, the
        tracemalloc peak of the call.  tracemalloc runs only inside such a
        call: it makes every Python-level allocation slow, which would
        distort the self time of byte-at-a-time code such as the PNG decoder.
        """
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.pair is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = Span(len(tracer.spans), name, tracer.pair,
                        stack[-1].id if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            measure = alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                stack.pop()
                if measure:
                    span.attrs["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if on_result is not None:
                span.attrs.update(on_result(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def per_pair(spans: Sequence[Span], values: Iterable[float], names: Iterable[str],
             pairs: Iterable[int]) -> List[float]:
    """Per pair, the sum of ``values`` over the spans whose name is in ``names``.

    Pairs with no such span give 0, so an idle layer reads exactly zero.
    """
    wanted = set(names)
    totals = {p: 0.0 for p in pairs}
    for s, v in zip(spans, values):
        if s.name in wanted:
            totals[s.pair] += v
    return list(totals.values())

