"""Spans around the public functions at each layer boundary, kept in memory.

``Tracer.install`` replaces each traced function, in every ``weaksep`` module
that holds it, with a wrapper that records a span: name, start, end, parent
span and call id, plus a work count read off the arguments or the result.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.
A layer is the module that defines the function, so ``cli.run`` belongs to
``cli`` and ``cliques.purity_report`` to ``cliques`` wherever it is called.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from math import comb
from time import perf_counter

# (defining module, function, work count taken from (args, result) or None)
TRACED = [
    ("cli", "run", None),
    ("domains", "build_domain_AIJ", lambda args, out: comb(args[0].n, len(args[0]))),
    ("domains", "cluster_distance", None),
    ("domains", "lr_domain", None),
    ("necklaces", "domain_in_for_necklace", None),
    ("cliques", "build_compat_graph", lambda args, out: comb(len(out), 2)),
    ("cliques", "purity_report", lambda args, out: out.clique_count or 0),
    ("cliques", "enumerate_maximal_cliques", lambda args, out: len(out)),
    ("cliques", "max_clique_size", None),
    ("cliques", "complete_to_maximal", None),
    ("mutations", "mutation_distance", lambda args, out: out.nodes_explored),
    ("mutations", "explore_mutation_graph", lambda args, out: out.node_count),
    ("mutations", "find_square_moves", None),
    ("mutations", "apply_square_move", None),
    ("octahedron", "move_projection_effect", None),
    ("octahedron", "check_no_interior", None),
    ("octahedron", "phi", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "call", "phase", "count", "child_time", "scale")

    def __init__(self, name: str, parent: int, call: int, phase: str) -> None:
        self.name, self.parent, self.call, self.phase = name, parent, call, phase
        self.start = self.end = 0.0
        self.count = None
        self.child_time = 0.0
        self.scale = 1.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.call = -1
        self.phase = "call"

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.call, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def root(self, call: int, phase: str):
        """The root span of one timed call (``phase`` "call") or one verification."""
        self.call, self.phase = call, phase
        span = self._open("bench." + phase)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.count = count(args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "weaksep" or key.startswith("weaksep.")]
        for module_name, func, count in TRACED:
            original = getattr(sys.modules["weaksep." + module_name], func)
            wrapper = self._wrap(f"{module_name}.{func}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def scale_roots(self, factor) -> None:
        """Give every root span ``factor(root)`` and every other span its root's value."""
        for span in self.spans:
            span.scale = factor(span) if span.parent < 0 else self.spans[span.parent].scale

    def write(self, path) -> None:
        """Write every span as one JSON line, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start - t0,
                            "end": span.end - t0,
                            "parent": span.parent,
                            "call": span.call,
                            "phase": span.phase,
                            "count": span.count,
                            "scale": span.scale,
                        }
                    )
                    + "\n"
                )
