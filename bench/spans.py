"""Span tracing from outside the program: wrap named functions, record spans.

A :class:`Tracer` replaces each target function at the name its caller
resolves (a module global such as ``meta.grad``, or a class attribute such as
``Propagation.apply``) with a wrapper that records one span per call: name,
start, end and the enclosing span.  Spans stay in memory; :meth:`Tracer.summary`
turns them into per-name call counts and self times, where a span's self time
is its duration minus the durations of the spans directly inside it.  The
wrappers exist only inside ``with tracer.installed():`` and the originals are
put back on exit, so code outside that block runs untraced.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Spans of the calls made to ``targets``, a list of (owner, attribute,
    span name) triples; several targets may share one span name.  Targets
    missing from their owner are skipped and listed in ``missing``.

    ``count_init``, a class, additionally counts its instance constructions
    in ``constructed``.
    """

    def __init__(self, targets, count_init=None):
        self.targets = list(targets)
        self.count_init = count_init
        self.names = list(dict.fromkeys(name for _, _, name in self.targets))
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self.spans = []          # [name index, start ns, end ns, parent span or -1]
        self.constructed = 0
        self.missing = sorted({name for owner, attr, name in self.targets
                               if attr not in vars(owner)})
        self._stack = []

    def _wrap(self, fn, name):
        idx = self._name_index[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = [idx, start, end, parent]
        return traced

    def _counting_init(self, init):
        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)
        return __init__

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        wrappers = [(owner, attr, self._wrap(vars(owner)[attr], name))
                    for owner, attr, name in self.targets if attr in vars(owner)]
        if self.count_init is not None:
            cls = self.count_init
            wrappers.append((cls, "__init__", self._counting_init(vars(cls)["__init__"])))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in wrappers]
        try:
            for owner, attr, wrapper in wrappers:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            if any(vars(owner)[attr] is not original for owner, attr, original in saved):
                raise RuntimeError("a traced function was not restored")

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0] for name in self.names}
        for (idx, start, end, _), inner in zip(self.spans, child_ns):
            row = out[self.names[idx]]
            row[0] += 1
            row[1] += end - start - inner
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def dump(self) -> dict:
        """The raw spans, for a sidecar file."""
        return {"names": self.names, "constructed": self.constructed,
                "span_fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": self.spans}
