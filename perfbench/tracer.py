"""Span recording for the traced run, from outside the program.

A :class:`Tracer` replaces a function or method *where its callers look
it up* (a module global or a class attribute) with a wrapper that
records one span per call: name, start, end, parent, process, thread.
Nothing under ``src/`` changes; :meth:`Tracer.restore` puts every
original back.

Spans stay in memory.  A process forked after the wrappers went in (the
gateway's compression pool worker) inherits them; it starts an empty
span list at fork and writes its spans to ``<spill_dir>/spans-<pid>.json``
when it exits, which for a pool worker is when the pool shuts down.

:func:`attribute` turns spans into self times.  A span's self time is
the part of its interval that none of its children cover.  Where spans
of one process run at the same time on different threads (engine
shards, executor threads), each instant is split evenly among the
innermost spans running then, so a process's self times plus its idle
(unattributed) time add up to the region's wall time.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["Span", "Tracer", "attribute", "load_spans"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    sid: int
    parent: int          # 0 = root
    pid: int
    thread: int
    wait: bool = False   # a wait (queue, socket), not work: no self time
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps call sites and keeps their spans in memory."""

    def __init__(self, spill_dir: str | None = None) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._spill_dir = spill_dir
        self._ids = 0
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0)
        # Parent for spans that start on a thread the caller's context
        # does not reach (engine shard threads): the engine call in flight.
        self.thread_parent = 0
        self._undo: list[tuple[object, str, object]] = []
        from multiprocessing import util

        # Runs in each multiprocessing child after its finalizer registry
        # is reset, so the finalizer registered there survives.
        util.register_after_fork(self, Tracer._after_fork)

    # ------------------------------------------------------------ record

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return (os.getpid() << 32) | self._ids

    def _open(self) -> tuple[int, int, contextvars.Token]:
        parent = self._current.get()
        if not parent and threading.current_thread() is not threading.main_thread():
            parent = self.thread_parent
        sid = self._next_id()
        return sid, parent, self._current.set(sid)

    def _close(self, name, sid, parent, token, t0, attrs, wait=False) -> None:
        t1 = perf_counter()
        self._current.reset(token)
        span = Span(name, t0, t1, sid, parent, os.getpid(),
                    threading.get_ident(), wait, attrs)
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, *,
            wait: bool = False) -> None:
        """Record a root span whose interval was measured elsewhere."""
        span = Span(name, start, end, self._next_id(), 0, os.getpid(),
                    threading.get_ident(), wait)
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------- wrap

    def wrap(self, owner, attr: str, name: str, *, result_attrs=None,
             engine: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or class.  ``result_attrs(result)`` may
        return a dict stored on the span.  ``engine=True`` makes spans
        opened on other threads during the call its children.  A missing
        attribute is noted in :attr:`missing` and skipped.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                sid, parent, token = tracer._open()
                t0 = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(name, sid, parent, token, t0, {}, wait=True)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid, parent, token = tracer._open()
                saved = tracer.thread_parent
                if engine:
                    tracer.thread_parent = sid
                t0 = perf_counter()
                attrs = {}
                try:
                    result = fn(*args, **kwargs)
                    if result_attrs is not None:
                        attrs = result_attrs(result)
                    return result
                finally:
                    if engine:
                        tracer.thread_parent = saved
                    tracer._close(name, sid, parent, token, t0, attrs)

        self._undo.append((owner, attr, raw if isinstance(owner, type) else fn))
        setattr(owner, attr, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, type) and original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- fork

    def _after_fork(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        if self._spill_dir is None:
            return
        from multiprocessing import util

        # A pool worker leaves through multiprocessing's exit hook, which
        # runs these finalizers; atexit handlers would not run there.
        util.Finalize(None, self.spill, exitpriority=100)

    def spill(self) -> None:
        path = os.path.join(self._spill_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


def load_spans(spill_dir: str) -> list[Span]:
    """Spans that forked processes spilled into ``spill_dir``."""
    out = []
    for name in sorted(os.listdir(spill_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(spill_dir, name)) as fh:
                out.extend(Span(**d) for d in json.load(fh))
    return out


def attribute(spans: list[Span], lo: float, hi: float
              ) -> tuple[dict[int, float], dict[int, float]]:
    """Self seconds per work span, and idle seconds per process.

    Only the part of each span inside ``[lo, hi)`` counts.  Wait spans
    get no self time and do not hide their children.  Returns
    ``(self_seconds_by_span_id, unattributed_seconds_by_pid)``; per
    process, their sum is ``hi - lo``.
    """
    work = [s for s in spans if not s.wait and s.end > lo and s.start < hi]
    by_pid: dict[int, list[Span]] = {}
    for s in work:
        by_pid.setdefault(s.pid, []).append(s)
    self_s: dict[int, float] = {s.sid: 0.0 for s in work}
    idle: dict[int, float] = {}
    for pid, group in by_pid.items():
        events = []
        for s in group:
            events.append((max(s.start, lo), 1, s))
            events.append((min(s.end, hi), 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Span] = {}
        idle_s = 0.0
        t_prev = lo
        for t, kind, s in events:
            dt = t - t_prev
            if dt > 0:
                parents = {a.parent for a in active.values()}
                leaves = [sid for sid in active if sid not in parents]
                if leaves:
                    share = dt / len(leaves)
                    for sid in leaves:
                        self_s[sid] += share
                else:
                    idle_s += dt
                t_prev = t
            if kind:
                active[s.sid] = s
            else:
                active.pop(s.sid, None)
        idle[pid] = idle_s + max(0.0, hi - t_prev)
    return self_s, idle
