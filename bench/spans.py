"""Spans around ttlam's public functions, installed from outside the package.

Each public function of a layer module is replaced by a wrapper, both in its
own module and under every name a sibling ttlam module imported it by;
``GraphSelfMap.apply`` and ``GraphSelfMap.iterate`` are wrapped on the
class.  The graph layer's dart helpers in UNWRAPPED run hundreds of
thousands of times per pass inside ``apply``; a span around each would
swamp the run, so their time stays in the caller's self time.

A wrapper records a span (op, name, parent span, start, end, self time) in
memory.  Self time is a span's duration minus the time covered by its
direct children.  Spans of one op share the op's index.  ``fold`` adds a
pass's spans to the running totals, self times divided by the op's machine
slowdown (reference seconds, as run.py reports every time), and hands them
back, so memory holds one pass of spans at a time.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("mapfile", "cli", "graph", "graph_map", "train_track", "spectral", "nielsen", "lamination")
UNWRAPPED = frozenset({"graph.reverse_path", "graph.reverse_dart", "graph.edge_index", "graph.is_forward", "graph.turn"})

# result size recorded per call: span name -> function of the result
SIZES = {
    "graph_map.apply": len,
    "lamination.leaf_language": len,
    "nielsen.interior_periodic_points": len,
}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, name, parent index or -1, start, end, self time)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.sizes = Counter()
        self.errors = Counter()  # (span name, exception class name)
        self.op = -1
        self._stack = []  # [span index, time covered by children]

    def start_op(self, op: int) -> None:
        self.op = op
        self._stack.clear()

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                t1 = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                    if stack:
                        stack[-1][1] += t1 - t0
                spans[frame[0]] = (self.op, name, parent, t0, t1, t1 - t0 - frame[1])
            if size is not None:
                self.sizes[name] += size(result)
            return result

        return traced

    def install(self, ttlam) -> None:
        """Wrap every layer's public functions everywhere ttlam binds them."""
        modules = [ttlam] + [m for m in vars(ttlam).values() if inspect.ismodule(m) and m.__name__.startswith("ttlam.")]
        for layer in LAYERS:
            mod = getattr(ttlam, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if f"{layer}.{attr}" in UNWRAPPED:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, alias, wrapper)
        cls = ttlam.graph_map.GraphSelfMap
        for attr in ("apply", "iterate"):
            setattr(cls, attr, self.wrap(f"graph_map.{attr}", getattr(cls, attr)))

    def fold(self, slowdowns: dict) -> list:
        """Add the spans recorded so far to the totals, self times divided by
        the slowdown of their op (op index -> slowdown); return and forget them."""
        spans = [span for span in self.spans if span is not None]  # None: cut off by the time limit
        for span in spans:
            self.calls[span[1]] += 1
            self.self_s[span[1]] += span[5] / slowdowns[span[0]]
        self.spans.clear()
        return spans
