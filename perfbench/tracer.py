"""In-memory span tracer that instruments a program from the outside.

``Tracer.wrap_function`` replaces a function under every name any loaded
module binds it to, because ``from X import f`` copies the binding into the
importing module. ``Tracer.link_executor`` makes tasks submitted to a
``ThreadPoolExecutor`` open their spans under the span that submitted them.

A span is ``(id, parent_id, name, start, end, error_class)``, times from
``time.perf_counter``. Spans stay in memory until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable
from time import perf_counter

Span = tuple[int, int, str, float, float, "str | None"]
Observer = Callable[["Tracer", tuple, object, float], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread, 0 for none."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def traced(self, fn: Callable, name: str, observe: Observer | None = None) -> Callable:
        """``fn`` wrapped in a span; ``observe`` sees args, result and duration."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, error))
            if observe is not None:
                observe(tracer, args, result, end - start)
            return result

        return wrapper

    def run_under(self, parent: int, fn: Callable, *args, **kwargs):
        """Call ``fn`` on this thread as if span ``parent`` were open."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # --- instrumentation -------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, modules: Iterable, fn: Callable, name: str,
                      observe: Observer | None = None) -> int:
        """Replace ``fn`` wherever a module in ``modules`` binds it; returns the count."""
        wrapper = self.traced(fn, name, observe)
        bound = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
                    bound += 1
        return bound

    def wrap_method(self, cls: type, attr: str, name: str,
                    observe: Observer | None = None) -> None:
        self._patch(cls, attr, self.traced(cls.__dict__[attr], name, observe))

    def link_executor(self, modules: Iterable, executor_cls: type) -> None:
        """Make ``executor_cls`` tasks run under the span that submitted them."""
        tracer = self

        class LinkedExecutor(executor_cls):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is executor_cls:
                    self._patch(module, attr, LinkedExecutor)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per span id: its duration minus the time its child spans cover.

    Children running on worker threads may overlap each other; their union is
    subtracted once.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _ in spans
    }
