"""In-memory span recording around calls into the program's public functions.

The wrappers live in the benchmark, not in the program: :meth:`Tracer.patch`
replaces a function at the name its caller resolves (a module global or a
class attribute) for the duration of a ``with`` block and restores it after.
Spans are kept in memory and written out once the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .stats import Span

#: ``(owner, attribute, span name, counter)``: what to wrap.  ``counter``,
#: when given, is called after the call as ``counter(tracer, result, *args)``
#: to record counts at the same boundary; a ``None`` span name records the
#: counts only.
Hook = Tuple[Any, str, Optional[str], Optional[Callable[..., None]]]


class Tracer:
    """Collects spans (name, start, end, parent, request id) and counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.request: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.request))

    def wrap(
        self, function: Callable, name: Optional[str], counter: Optional[Callable[..., None]]
    ) -> Callable:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = function(*args, **kwargs)
            else:
                with self.span(name):
                    result = function(*args, **kwargs)
            if counter is not None:
                counter(self, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def patch(self, hooks: List[Hook]) -> Iterator["Tracer"]:
        """Wrap every hook for the duration of the block."""
        originals = []
        try:
            for owner, attribute, name, counter in hooks:
                # a class is patched through its own __dict__, so a method
                # inherited from a base class is never shadowed by accident
                if isinstance(owner, type):
                    original = owner.__dict__[attribute]
                else:
                    original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dataclasses.asdict(span)) + "\n")
