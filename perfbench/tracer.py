"""Outside-in tracer: spans and work counts around a layer's public calls.

The tracer never touches the program's own instrumentation (no
``PerfProbe``, no ``repro.obs`` session).  It replaces a function or
method with a wrapper from the benchmark's side; a function is replaced
in *every* loaded module that binds it (``decode_ok`` is imported by
name into both ``gateway/gateway.py`` and ``sim/engine.py``), and a
method is replaced on its defining class.

Spans are kept in memory as parallel lists — name index, start, end,
parent, thread — and written out once, by :meth:`Tracer.to_json`, when
the traced run ends.  Counts are plain integers keyed by name.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

CountFn = Callable[[tuple, dict, Any], Dict[str, int]]

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder plus exact work counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.span_parent: List[int] = []
        self.span_thread: List[int] = []
        self.counts: Dict[str, int] = {}
        self.errors: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: Dict[int, int] = {}
        self._lock = threading.Lock()
        self._restore: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads[threading.get_ident()] = len(self._threads)
        return stack

    def _open(self, name_id: int) -> int:
        """Reserve a span slot (so a parent precedes its children)."""
        stack = self._stack()
        with self._lock:
            sid = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(_now())
            self.span_end.append(-1)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_thread.append(self._threads[threading.get_ident()])
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = _now()
        self._local.stack.pop()

    def span(self, name: str) -> "_SpanCtx":
        """Context manager recording one span (for the benchmark's own calls)."""
        return _SpanCtx(self, self._name_id(name))

    # -- wrapping ------------------------------------------------------------

    def _wrapper(
        self,
        fn: Callable,
        span: Optional[str],
        calls: Optional[str],
        count: Optional[CountFn],
    ) -> Callable:
        name_id = self._name_id(span) if span is not None else -1
        counts = self.counts
        errors = self.errors
        if calls is not None:
            counts.setdefault(calls, 0)

        if span is None and count is None:

            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = self._open(name_id) if span is not None else -1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[fn.__qualname__] = errors.get(fn.__qualname__, 0) + 1
                raise
            finally:
                if sid >= 0:
                    self._close(sid)
            if calls is not None:
                counts[calls] += 1
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        return wrapper

    def wrap_function(
        self,
        module: str,
        attr: str,
        span: Optional[str] = None,
        calls: Optional[str] = None,
        count: Optional[CountFn] = None,
        only_in: Optional[Sequence[str]] = None,
    ) -> int:
        """Replace module function ``module.attr`` wherever it is bound.

        Every loaded ``repro`` module whose global ``attr`` (or alias)
        is the very function object is patched, so callers that did
        ``from module import attr`` see the wrapper too.  ``only_in``
        restricts the patch to the named modules (used for counters
        that must see one call site only).  Returns the number of
        bindings patched; raises if the function is not found.
        """
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrapper(original, span, calls, count)
        targets: Iterable[str] = only_in if only_in is not None else [
            name
            for name in list(sys.modules)
            if name == "repro" or name.startswith("repro.")
        ]
        patched = 0
        for name in targets:
            mod = sys.modules.get(name)
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)
                    patched += 1
        if patched == 0:
            raise LookupError(f"{module}.{attr}: no binding patched")
        return patched

    def wrap_method(
        self,
        cls: type,
        attr: str,
        span: Optional[str] = None,
        calls: Optional[str] = None,
        count: Optional[CountFn] = None,
    ) -> None:
        """Replace method ``cls.attr`` (inherited by every subclass)."""
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, span, calls, count))

    def unwrap(self) -> None:
        """Put every patched binding back, newest first."""
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- analysis ------------------------------------------------------------

    def durations_ns(self) -> List[int]:
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def self_ns(self) -> List[int]:
        """Each span's duration minus the time covered by its children.

        Children run on their parent's thread, one after another, so the
        covered time is the sum of their durations.
        """
        dur = self.durations_ns()
        out = list(dur)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= dur[sid]
        return out

    def total_s(self, names: Iterable[str]) -> float:
        """Wall time covered by spans in ``names``, nested ones counted once.

        A span is counted only when no ancestor is also in ``names``
        (``prr`` calling ``delivered_count``, a dispatcher calling the
        pool), so the result is the union of the layer's intervals.
        """
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0
        for sid, nid in enumerate(self.span_name):
            if nid in ids and not self._has_ancestor_in(sid, ids):
                total += self.span_end[sid] - self.span_start[sid]
        return total / 1e9

    def self_s(self, names: Iterable[str]) -> float:
        """Summed self time of the spans in ``names``."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        own = self.self_ns()
        return sum(own[sid] for sid, nid in enumerate(self.span_name) if nid in ids) / 1e9

    def spans_of(self, name: str) -> List[int]:
        """Span ids named ``name``, in start order."""
        nid = self._name_ids.get(name)
        return [sid for sid, n in enumerate(self.span_name) if n == nid]

    def _has_ancestor_in(self, sid: int, ids: set) -> bool:
        parent = self.span_parent[sid]
        while parent >= 0:
            if self.span_name[parent] in ids:
                return True
            parent = self.span_parent[parent]
        return False

    def to_json(self) -> Dict[str, Any]:
        """Every span (columnar, ns since the first span) and derived data."""
        base = min(self.span_start, default=0)
        own = self.self_ns()
        by_name: Dict[str, Dict[str, int]] = {}
        for sid, nid in enumerate(self.span_name):
            agg = by_name.setdefault(self.names[nid], {"spans": 0, "total_ns": 0, "self_ns": 0})
            agg["spans"] += 1
            agg["total_ns"] += self.span_end[sid] - self.span_start[sid]
            agg["self_ns"] += own[sid]
        return {
            "names": self.names,
            "spans": {
                "name": self.span_name,
                "start_ns": [s - base for s in self.span_start],
                "end_ns": [e - base for e in self.span_end],
                "parent": self.span_parent,
                "thread": self.span_thread,
                "self_ns": own,
            },
            "by_name": by_name,
            "counts": dict(sorted(self.counts.items())),
            "errors": dict(sorted(self.errors.items())),
        }


class _SpanCtx:
    __slots__ = ("_tracer", "_name_id", "_sid")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self) -> None:
        self._sid = self._tracer._open(self._name_id)

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._sid)
