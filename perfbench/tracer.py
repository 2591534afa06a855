"""In-memory span tracer that wraps aslyap's public functions from outside.

The tracer patches functions and methods for the traced run only and puts
the originals back afterwards.  A function imported by value into another
module (``from .simulate import simulate_ensemble`` in ``aslyap.cli``) is
patched in every ``aslyap`` module that holds it, because callers look it up
there.  Each call records one span: id, name, start, end, parent span and a
per-call measure (points, sweeps, nodes ...).  All spans of one run share
the tracer's ``run_id``.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import threading
import time
import uuid
from contextlib import contextmanager

_MARK = "__perfbench_wrapped__"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "info")

    def __init__(self, sid, name, start, end, parent, info):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores.

    Spans opened on a worker thread with an empty stack take as parent the
    innermost span open on the thread that installed the tracer: the only
    threads aslyap starts are the ensemble workers, whose caller is blocked
    in ``simulate_ensemble`` while they run.
    """

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._main_thread and self._main_stack:
            return self._main_stack[-1]
        return None

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; the block may set ``span.info``."""
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), None, self._parent(stack), None)
        stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append(span)

    def wrap(self, fn, name: str, measure=None):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span.info = measure(args, kwargs, result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self, targets) -> None:
        """Patch each target ``(module, "func" or "Class.method", span, measure)``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr_path, span_name, measure in targets:
            module = sys.modules[module_name]
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self.wrap(original, span_name, measure))
                continue
            original = getattr(module, attr_path)
            wrapper = self.wrap(original, span_name, measure)
            for name, mod in list(sys.modules.items()):
                if (name == "aslyap" or name.startswith("aslyap.")) and \
                        vars(mod).get(attr_path) is original:
                    self._patch(mod, attr_path, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        if not restored or leftover_wrappers():
            raise RuntimeError("tracer wrappers still installed after uninstall")

    def dump(self, path, extra: dict | None = None) -> None:
        """Write spans and per-name call counts as gzipped JSON."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s.sid, index[s.name], s.start, s.end, s.parent, s.info]
                for s in sorted(self.spans, key=lambda s: s.sid)]
        calls = {n: 0 for n in names}
        for s in self.spans:
            calls[s.name] += 1
        doc = {"run_id": self.run_id, "names": names, "calls": calls,
               "columns": ["id", "name", "start", "end", "parent", "info"],
               "spans": rows, **(extra or {})}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, default=float)


def leftover_wrappers() -> list[str]:
    """Names of aslyap functions or methods that are still tracer wrappers."""
    found = []
    for name, mod in list(sys.modules.items()):
        if not (name == "aslyap" or name.startswith("aslyap.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(f"{name}.{attr}.{m}" for m, v in vars(value).items()
                             if hasattr(v, _MARK))
    return found


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover.

    Children may overlap (ensemble worker threads), so the covered part is
    the length of the union of their intervals, clipped to the span.
    """
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
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
    return span.duration - covered
