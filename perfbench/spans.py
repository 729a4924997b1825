"""In-memory span recorder and the call wrapping that feeds it.

Spans are recorded from the benchmark's own files, around calls into the
library's public callables; nothing inside ``src/`` knows it is traced.
Each span is a list ``[name, start, end, parent, op, attrs]``: ``parent``
is the index of the enclosing span on the same thread (``None`` for a
root) and ``op`` identifies the solve or service job the span belongs to.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Collects spans from any thread; cheap enough for ~10k spans a pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.fired: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op) -> None:
        """Tag every span this thread opens from now on with ``op``."""
        self._local.op = op

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, self.clock(), None, stack[-1] if stack else None,
                getattr(self._local, "op", None), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack().pop()

    def record(self, name: str, start: float, end: float, op) -> None:
        """Add a finished root span measured elsewhere (e.g. a queue wait
        that starts on the client thread and ends on a service thread)."""
        with self._lock:
            self.spans.append([name, start, end, None, op, None])


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never goes negative even for spans recorded
    from different clocks' rounding.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((max(spans[c][START], start),
                              min(spans[c][END], end))
                             for c in children.get(index, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, end - start - covered))
    return out


def resolve(target: str):
    """``"pkg.module:Name.attr"`` -> ``(owner, attr)``, where ``owner`` is the
    module or class whose attribute gets wrapped."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{target} does not resolve")
    return owner, attr


def wrap(tracer: Tracer, key: str, layer: str, func: Callable,
         probe: Optional[Callable] = None) -> Callable:
    """``func`` inside a ``layer`` span; ``probe(args, kwargs, result)``
    returns the span's counters and runs after the span closes."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        tracer.fired[key] += 1
        index = tracer.open(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        if probe is not None:
            tracer.spans[index][ATTRS] = probe(args, kwargs, result)
        return result

    return traced


_MISSING = object()


class Patches:
    """Attribute replacements that can be applied and undone repeatedly.

    The owner may be a module, a class or an instance; undoing restores
    the owner's own ``__dict__`` entry, or removes the replacement when the
    attribute was inherited (an instance's bound method, say).
    """

    def __init__(self):
        self._items: List[tuple] = []  # (owner, attr, original, replacement)

    def add(self, owner, attr: str, replacement) -> None:
        self._items.append((owner, attr, vars(owner).get(attr, _MISSING),
                            replacement))

    def apply(self) -> None:
        for owner, attr, _, replacement in self._items:
            setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original, _ in reversed(self._items):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        self.apply()
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
