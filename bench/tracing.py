"""Span tracing of the package from outside, by wrapping module attributes.

``Tracer.install`` replaces every public function of the traced modules
(and ``MomentMatrix.from_matrix``) with a wrapper that records a span:
name, start, end, parent span and operation id.  The package calls its
own functions through module attributes (``sdp.phase1_min_t``,
``matcore.hermitian_eig`` ...), so its internal calls are caught too and no
source change is needed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

LAYERS = ("matcore", "spinalg", "reduction", "sdp", "feasibility", "scan")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # operation id (one verdict or one scan call)
    info: Any = None  # eig dimension, or (status, iterations) of an SDP solve

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _span_info(name: str, args, result):
    if name in ("matcore.hermitian_eig", "matcore.hermitian_eigvals"):
        return int(np.shape(args[0])[0])
    if name == "sdp.solve":
        return (result.status, result.iterations)
    return None


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.op = -1

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx].start, spans[idx].end = t0, t1
            spans[idx].info = _span_info(name, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._patch(mod, attr, self.span(f"{layer}.{attr}", fn))
        cls = self.package.spinalg.MomentMatrix
        raw = cls.__dict__["from_matrix"].__func__
        self._patch(cls, "from_matrix", classmethod(self.span("spinalg.MomentMatrix.from_matrix", raw)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        own = np.array([s.seconds for s in self.spans])
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own
