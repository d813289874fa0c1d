"""Outside-in layer tracer: spans around the public functions of each module.

``Tracer.install`` wraps every target and rebinds the wrapper in *every*
``padicsums`` module that holds the original function object (``cli``,
``decay`` and ``singular`` import their own copies; patching only the
defining module would lose their spans without any error).  Spans are kept
in memory as ``[layer, parent, start, end, child_time]`` lists; self time is
a span's duration minus its direct children's.  Work counts are read from
the values the wrapped functions return.

``count_fibers`` gets one of two layers per call: ``singular.count`` when it
enumerates the residue grid and ``singular.count_fallback`` when it descends
recursively, so the fallback's time is not mixed into the grid's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable

from padicsums.padic import PhaseHistogram
from padicsums.polymap import coefficient_floor

ROOT = "cli"

#: (layer, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("polymap.parse", "padicsums.polymap", "parse_polymap"),
    ("polymap.substitute", "padicsums.polymap", "substitute_affine"),
    ("expsum.recursive", "padicsums.expsum", "eval_recursive"),
    ("expsum.naive", "padicsums.expsum", "eval_naive"),
    ("expsum.sweep", "padicsums.expsum", "eval_unit_directions"),
    ("padic.reduce", "padicsums.padic", "PhaseHistogram.reduced"),
    ("padic.magnitude", "padicsums.padic", "PhaseHistogram.magnitude"),
    ("padic.abs_square", "padicsums.padic", "PhaseHistogram.abs_square"),
    ("singular.count", "padicsums.singular", "count_fibers"),
    ("singular.fourier", "padicsums.singular", "fourier_check"),
    ("decay.sup", "padicsums.decay", "sup_at_level"),
    ("decay.fit", "padicsums.decay", "fit_alpha"),
    ("decay.report", "padicsums.decay", "degree_bound_report"),
)

FIBER_FALLBACK = "singular.count_fallback"

LAYERS = (ROOT,) + tuple(layer for layer, _, _ in TARGETS) + (FIBER_FALLBACK,)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- spans

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += end - span[2]

    def _parent_layer(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def run(self, fn: Callable, *args):
        """Call ``fn`` inside a root span (one CLI job)."""
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def take_pass(self) -> tuple[list[list], Counter]:
        """Hand over and reset the spans and counts gathered so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # ------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(layer)
        pick = _LAYER_PICKERS.get(layer)
        if inspect.isgeneratorfunction(fn):
            # A generator does its work in each next(), not in the call.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    parent = self._parent_layer()
                    index = self._open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(index)
                    count(self.counts, parent, layer, item)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._parent_layer()
            name = pick(fn, args, kwargs) if pick else layer
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self.counts, parent, name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "padicsums" or name.startswith("padicsums."))
        ]
        for layer, module, attr in TARGETS:
            if attr.startswith("PhaseHistogram."):
                method = attr.split(".")[1]
                orig = PhaseHistogram.__dict__[method]
                self._rebind(PhaseHistogram, method, self._wrap(layer, orig))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(layer, orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, name, wrapper)

    def _rebind(self, owner, name: str, wrapper: Callable) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, orig = self._restore.pop()
            setattr(owner, name, orig)


# -------------------------------------------------------------- work counts


def _count_recursive(counts: Counter, parent, layer, result) -> None:
    st = result.stats
    counts["expsum.p1"] += st.p1
    counts["expsum.p2"] += st.p2
    counts["expsum.splits"] += st.splits
    counts["expsum.leaves"] += st.leaves
    if parent == "decay.sup":
        counts["decay.directions"] += 1


def _count_naive(counts: Counter, parent, layer, result) -> None:
    counts["expsum.grid_points"] += result.stats.points


def _count_sweep(counts: Counter, parent, layer, item) -> None:
    counts["expsum.directions"] += 1
    if parent == "decay.sup":
        counts["decay.directions"] += 1


def _fiber_layer(fn: Callable, args, kwargs) -> str:
    """The layer of one count_fibers call, decided from its arguments by
    the rule of its ``auto`` strategy: the grid when the residue space
    p**((m+B)n) fits the budget, the recursive fallback otherwise."""
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    f, m, ctx, strategy = (call.arguments[k] for k in ("f", "m", "ctx", "strategy"))
    if strategy == "auto":
        grid = (ctx.p ** (m + coefficient_floor(f.components, ctx.p))) ** f.n <= ctx.naive_budget
    else:
        grid = strategy == "naive"
    return "singular.count" if grid else FIBER_FALLBACK


def _count_fibers(counts: Counter, parent, layer, table) -> None:
    counts["singular.fibers"] += len(table.counts)
    if layer != FIBER_FALLBACK:
        counts["singular.grid_points"] += table.total()


_LAYER_PICKERS = {"singular.count": _fiber_layer}

_COUNTERS = {
    "expsum.recursive": _count_recursive,
    "expsum.naive": _count_naive,
    "expsum.sweep": _count_sweep,
    "singular.count": _count_fibers,
}


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter, float]:
    """Per-layer self seconds, per-layer call counts, and total root wall."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: Counter = Counter()
    root_wall = 0.0
    for layer, parent, start, end, child in spans:
        self_s[layer] += end - start - child
        calls[layer] += 1
        if parent < 0:
            root_wall += end - start
    return self_s, calls, root_wall
