"""Span tracer that instruments the ``higman`` layers from outside.

Every public function of the seven layer modules is wrapped, and the wrapper
is bound in place of the original in *every* ``higman`` module (and in the
package namespace) that holds a reference to it.  Cross-module calls go
through names bound at import time (``from .schemes import restriction``), so
rebinding only the defining module would leave those inner calls invisible.
The ``QuadraticNumber`` operators ``+ - * /`` are wrapped on the class.

A span is (id, parent id, name, start, end).  Spans are kept in memory; self
time per module and the time outside every layer span are computed as the
spans close.  Nothing is installed until :meth:`Tracer.install`, and
:meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "schemes", "higmanian", "spectral", "quadratic", "groups",
          "constructions")
QN_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__")
ROOT_SPAN = "op"  # the span the benchmark opens around one operation


def _dismantle_hook(tr: "Tracer", args, result) -> None:
    tr.counters["higmanian.dismantle.unions_checked"] += result.unions_checked


def _rds_search_hook(tr: "Tracer", args, result) -> None:
    G, N = args[0], args[1]
    tr.counters["constructions.search_semiregular_rds.found"] += len(result)
    tr.counters["constructions.search_semiregular_rds.space"] += \
        N.order ** (G.order // N.order)


# counters read off return values at the layer boundary
RESULT_HOOKS = {
    "higmanian.is_dismantlable": _dismantle_hook,
    "constructions.search_semiregular_rds": _rds_search_hook,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [id, name, layer, start, child_time]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()
        self.enabled = False  # the benchmark turns spans on around each op

    # -- spans -------------------------------------------------------------------

    def enter(self, name: str, layer: str) -> None:
        self.calls[name] += 1
        self._active[name] += 1
        self._stack.append([self._next_id, name, layer, time.perf_counter(),
                            0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, layer, start, child = self._stack.pop()
        dur = end - start
        self.self_time[layer] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self._active[name] -= 1
        if not self._active[name]:  # count recursion once
            self.inclusive[name] += dur
        self.spans.append((sid, parent[0] if parent else 0, name,
                           start - self.origin, end - self.origin))

    def _wrap(self, fn, name: str, layer: str):
        hook = RESULT_HOOKS.get(name)
        tracer = self  # the wrappers outlive this frame, not the tracer

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so consumer time is not charged here
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not tracer.enabled:
                    yield from gen
                    return
                while True:
                    tracer.enter(name, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def _wrap_operator(self, fn):
        tracer = self

        @functools.wraps(fn)
        def op(a, b):
            # only the outermost operator counts; __sub__ calls __add__
            if not tracer.enabled or (tracer._stack and
                                      tracer._stack[-1][1] == "quadratic.ops"):
                return fn(a, b)
            tracer.enter("quadratic.ops", "quadratic")
            try:
                return fn(a, b)
            finally:
                tracer.exit()
        return op

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        import higman
        from higman import quadratic

        modules = {layer: sys.modules[f"higman.{layer}"] for layer in LAYERS}
        holders = [higman] + [m for n, m in sorted(sys.modules.items())
                              if n.startswith("higman.")]
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                new = wrapped.get(id(obj))
                if new is not None and inspect.isfunction(obj):
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, new)
        cls = quadratic.QuadraticNumber
        for attr in QN_OPERATORS:
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._wrap_operator(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, obj = self._restore.pop()
            setattr(holder, attr, obj)

