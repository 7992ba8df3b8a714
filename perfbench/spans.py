"""Spans recorded around calls into the program's public functions.

The program is not changed: :class:`Tracer` replaces a function (in every
loaded module that bound it) or a method (on its class) with a wrapper that
records one :class:`Span` per call while :attr:`Tracer.active` is set and
calls straight through otherwise.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Per thread, the self times of every span inside a window plus
an explicit ``unattributed`` remainder add up to the window.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class Span:
    """One timed call: name, start/end (``perf_counter`` seconds), parent."""

    id: int
    parent: int  # 0 for a root span
    name: str
    thread: int
    start: float
    end: float
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Interval], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Interval]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def thread_accounting(
    spans: Sequence[Span], windows: Sequence[Interval]
) -> Dict[int, Dict[str, float]]:
    """Per thread: summed self time, ``unattributed`` remainder and window.

    Only spans that lie inside one of ``windows`` count.  ``unattributed`` is
    the window time not covered by any root span of the thread, so
    ``self + unattributed == window`` holds whenever child spans nest inside
    their parents (calls on one thread always do).
    """
    window = sum(b - a for a, b in windows)
    inside = [s for s in spans if any(a <= s.start and s.end <= b for a, b in windows)]
    selfs = self_times(inside)
    out: Dict[int, Dict[str, float]] = {}
    for tid in sorted({s.thread for s in inside}):
        mine = [s for s in inside if s.thread == tid]
        roots = [(s.start, s.end) for s in mine if s.parent == 0]
        covered = sum(union_length(roots, a, b) for a, b in windows)
        out[tid] = {
            "self": sum(selfs[s.id] for s in mine),
            "unattributed": window - covered,
            "window": window,
        }
    return out


def accounting_closes(acct: Dict[int, Dict[str, float]], tol: float = 1e-6) -> bool:
    """True when, on every thread, self times plus unattributed equal the window."""
    return all(
        abs(a["self"] + a["unattributed"] - a["window"]) <= tol * max(a["window"], 1e-9)
        for a in acct.values()
    )


AttrsHook = Callable[[int, tuple, dict, object], Optional[dict]]


class Tracer:
    """Records spans around patched functions and methods."""

    def __init__(self):
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrsHook] = None) -> Callable:
        """A wrapper of ``fn`` recording a span named ``name`` per active call.

        ``attrs(span_id, args, kwargs, result)`` may return a dict stored on
        the span; it runs only after a call that returned normally.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            extra: Dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra = {"error": type(exc).__name__}
                raise
            else:
                if attrs is not None:
                    extra = attrs(sid, args, kwargs, result) or {}
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, parent, name, threading.get_ident(), start, end, extra)
                )

        return wrapper

    def patch_function(self, fn: Callable, name: str, attrs: Optional[AttrsHook] = None) -> None:
        """Replace ``fn`` in every loaded module that bound it by name."""
        wrapper = self.wrap(name, fn, attrs)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, attrs: Optional[AttrsHook] = None) -> None:
        """Replace method ``cls.attr`` with a recording wrapper."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, attrs))

    def restore(self) -> None:
        """Undo every patch (last patched first)."""
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.id, s.parent, s.name, s.thread, s.start, s.end, s.attrs],
                        default=str,
                    )
                    + "\n"
                )
