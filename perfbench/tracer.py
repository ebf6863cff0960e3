"""In-memory spans recorded around calls into the library's modules.

The benchmark installs wrappers on ``dmapnet`` module attributes at the
layer boundaries it measures; nothing under ``src/`` is edited.  A wrapper
records one span per call: id, parent id, name, start and end (seconds on
``time.perf_counter``).  Spans stay in memory until the run writes them out.

A boundary whose attribute no longer exists (a later change removed or moved
the function) is listed in ``Tracer.absent`` and simply yields no spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.absent = set()
        self._stack = []
        self._next_id = 0
        self._installed = []  # (module, attr, original)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def span(self, name):
        """Context manager recording a span opened by the benchmark itself."""
        return _Span(self, name)

    def install(self, boundaries):
        """Wrap each ``(span name, module path, attribute)`` boundary."""
        for name, module_path, attr in boundaries:
            try:
                module = importlib.import_module(module_path)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(f"{module_path}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
        return wrapper

    def tree(self):
        return SpanTree(self.spans)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False


class SpanTree:
    """Parent/child index over recorded spans, with self times."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s[0])

    def duration(self, sid):
        s = self.by_id[sid]
        return s[4] - s[3]

    def self_time(self, sid):
        """The span's duration minus the part its child spans cover."""
        return self.duration(sid) - sum(self.duration(c)
                                        for c in self.children[sid])

    def named(self, name, under=None):
        """Ids of spans called ``name``, optionally only below span ``under``."""
        if under is None:
            return sorted(sid for sid, s in self.by_id.items() if s[2] == name)
        found = []
        stack = list(self.children[under])
        while stack:
            sid = stack.pop()
            if self.by_id[sid][2] == name:
                found.append(sid)
            stack.extend(self.children[sid])
        return sorted(found)

    def total(self, name, under):
        """Summed self time of every ``name`` span below ``under``."""
        return sum(self.self_time(s) for s in self.named(name, under))

    def to_json(self):
        return [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4]} for s in sorted(self.by_id.values())]
