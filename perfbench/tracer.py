"""Span tracer that wraps wavesel's public functions from outside the package.

Every public function of a layer module, and every public method of a
class defined there, is replaced by a wrapper in each namespace of the
package that binds it: a call through ``transform.analyze`` and one through
a name bound by ``from .transform import analyze`` both record a span.
Spans are held in memory as (id, name, tag, start, end, parent, work) and
written out at the end; nothing in ``src/`` is edited.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the tracing thread as its parent, so the bench's
thread pool still nests under ``bench.run_bench``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("signals", "transform", "bases", "estimator", "selection",
          "concentration", "bench", "cli")
# off every path the benchmark targets; wrapping would only add overhead
SKIP = {"bases.certify_slb"}


def _kernel_flops(n: int, taps: int) -> int:
    """Computed flops of one full pyramid pass (analyze or synthesize).

    Each level of input length m produces m outputs at ``taps``
    multiply-adds (2 * taps flops) each; summed over m = n, n/2, ..., 2.
    """
    return 2 * taps * (2 * n - 2)


# work counters for the kernels: args -> computed flops
WORK = {
    "transform.analyze": lambda args, kwargs: _kernel_flops(len(args[0]), len(args[1])),
    "transform.synthesize": lambda args, kwargs: _kernel_flops(args[0].n, len(args[1])),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.tag = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        self._restore = []
        self.wrapped = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._owner and self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = None
            work = None
            if work_of is not None:
                try:
                    work = work_of(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    work = None
            span_id = next(self._ids)
            tag = self.tag
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, tag, start, end, parent, work))

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        mods = {layer: importlib.import_module(f"wavesel.{layer}") for layer in LAYERS}
        package = [m for k, m in sys.modules.items()
                   if k == "wavesel" or k.startswith("wavesel.")]
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name in SKIP:
                        continue
                    wrapper = self._wrap(name, obj)
                    # rebind at every call site: module attributes and
                    # names imported with ``from ... import``
                    for other in package:
                        ns = vars(other)
                        for key, val in list(ns.items()):
                            if val is obj:
                                self._restore.append((ns, key, obj))
                                ns[key] = wrapper
                    self.wrapped.add(name)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{layer}.{meth}"
                        self._restore.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn))
                        self.wrapped.add(name)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], s[2], s[3], s[4], s[5], s[6]]
                for s in sorted(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "tag", "start_ns", "end_ns", "parent", "flops"],
                       "names": names, "spans": rows}, fh)


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "flops")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.flops = 0


def _covered(start: int, end: int, intervals: list) -> int:
    """Length of [start, end] covered by the union of the intervals."""
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def aggregate(spans: list) -> dict:
    """Per (root name, tag, span name) statistics with self time.

    Self time is a span's duration minus the part of it covered by its
    child spans; the root is the outermost ancestor.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            children[s[5]].append((s[3], s[4]))
    root_of = {}

    def root(span_id):
        path = []
        while span_id not in root_of:
            parent = by_id[span_id][5]
            if parent is None or parent not in by_id:
                root_of[span_id] = by_id[span_id][1]
                break
            path.append(span_id)
            span_id = parent
        for p in path:
            root_of[p] = root_of[span_id]
        return root_of[span_id]

    stats = defaultdict(Stat)
    for s in spans:
        span_id, name, tag, start, end, _, work = s
        st = stats[(root(span_id), tag, name)]
        st.calls += 1
        st.total_ns += end - start
        st.self_ns += end - start - _covered(start, end, children.get(span_id, []))
        if work:
            st.flops += work
    return stats
