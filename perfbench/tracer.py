"""Spans around exobench's module-level functions, for traced runs only.

``SpanTracer`` replaces each function named in ``spec.SPAN_TARGETS`` in
the namespace its caller looks it up in (or on its class, for methods)
with a wrapper that records wall time and calls, and puts the originals
back on exit.  No source file changes.  A span's self time is its wall
time minus the time of spans nested inside it, so the self times of all
spans plus ``other_s`` add up to the traced pass time.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

from spec import SPAN_COUNTERS, SPAN_TARGETS


class SpanTracer:
    def __init__(self):
        self.self_s = {name: 0.0 for name in SPAN_TARGETS}
        self.calls = {name: 0 for name in SPAN_TARGETS}
        self.counters = {name: 0 for name in SPAN_COUNTERS}
        self.missing = []
        self._stack = []
        self._restore = []

    # -- counters attached to particular spans -------------------------------

    def _count(self, name, args, result):
        if name == "streams.load_csv":
            self.counters["streams.rows_parsed"] += len(result)
        elif name == "streams.save_csv":
            self.counters["streams.bytes_written"] += os.path.getsize(args[1])
        elif name == "simulator.replay":
            self.counters["simulator.replay_frames"] += len(args[0])

    def _wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                self.self_s[name] += elapsed - nested
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            self._count(name, args, result)
            return result

        return traced

    # -- install / remove ----------------------------------------------------

    def __enter__(self):
        for name, (module_name, attrs) in SPAN_TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                raw = None if owner is None else vars(owner).get(leaf)
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                setattr(owner, leaf, patched)
                self._restore.append((owner, leaf, raw))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, leaf, raw = self._restore.pop()
            setattr(owner, leaf, raw)
        return False
