"""Layer tracing from outside the program: wrappers around public calls.

:class:`Tracer` replaces a chosen set of ``repro`` functions and methods
with wrappers that record one span per call (name, layer, start, end,
parent span) and restores every original afterwards.  Nothing
inside ``src/`` changes; a function imported by name into other
modules is replaced in each of them, so every call site is seen.

A span's *self time* is its duration minus the time covered by its
direct children, so self times over all spans add up to the time spent
inside traced calls, with no double counting.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layers in report order; each names a ``repro`` subpackage.
LAYERS = (
    "data", "core", "stream", "extraction", "models",
    "summary", "pipeline", "synth", "serve", "check",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    children_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Installs span-recording wrappers; use as a context manager.

    ``note`` callbacks receive ``(span, args, kwargs, result)`` after
    the call and may put counts into ``span.attrs``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str, note: Callable | None = None,
             eager: bool = False) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``eager`` drains a generator inside the span (so its work is
        timed) and hands the caller an iterator over the results.
        """
        spans = self.spans
        lock = self._lock

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, layer, time.perf_counter(), parent=stack[-1] if stack else -1)
            with lock:
                spans.append(span)
                index = len(spans) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = iter(list(result))
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].children_s += span.duration
            if note is not None:
                note(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        present = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), present))
        setattr(owner, attr, value)

    def patch_function(self, module: str, attr: str, name: str, layer: str,
                       note: Callable | None = None, eager: bool = False) -> None:
        """Wrap ``module.attr`` everywhere a loaded ``repro`` module binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name, layer, note, eager)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, layer: str,
                     note: Callable | None = None) -> None:
        """Wrap a method (plain, class- or static) on ``cls``."""
        raw = None
        for klass in cls.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        if raw is None:
            raise AttributeError(f"{cls.__name__}.{attr}")
        if isinstance(raw, classmethod):
            value = classmethod(self.wrap(raw.__func__, name, layer, note))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self.wrap(raw.__func__, name, layer, note))
        else:
            value = self.wrap(raw, name, layer, note)
        self._set(cls, attr, value)

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, value, present = self._saved.pop()
            if present:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: call count, busy seconds and self seconds.

        Busy time counts a span only when no enclosing span belongs to
        the same layer, so a layer calling itself is not counted twice.
        """
        totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for span in self.spans:
            entry = totals.setdefault(span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            parent = span.parent
            while parent >= 0 and self.spans[parent].layer != span.layer:
                parent = self.spans[parent].parent
            if parent < 0:
                entry["busy_s"] += span.duration
        return totals

    def total(self, name: str, what: str = "duration") -> float:
        """Sum of ``duration``/``self_s`` (or an attr) over spans named ``name``."""
        out = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            if what == "duration":
                out += span.duration
            elif what == "self_s":
                out += span.self_s
            else:
                out += span.attrs.get(what, 0)
        return out

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_total(self) -> float:
        return sum(span.self_s for span in self.spans)
