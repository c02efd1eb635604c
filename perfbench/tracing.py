"""In-memory span recording for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions: :meth:`Tracer.wrap` swaps a module attribute
for a timing wrapper and :meth:`Tracer.restore` puts every original back.
Spans stay in memory and :meth:`Tracer.write` emits one Chrome Trace Event
Format file at the end (load it in Perfetto).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        #: (span id, parent id, name, start, end, request id, thread id)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.epoch = time.perf_counter()

    # -- recording ------------------------------------------------------------

    def span(self, name: str, rid: Optional[int] = None) -> "_Span":
        return _Span(self, name, rid)

    def record(self, name: str, start: float, end: float, rid: Optional[int] = None) -> None:
        """A span measured by the caller (a client request, say)."""
        self.spans.append(
            (next(self._ids), self._parent(), name, start, end, rid, threading.get_ident())
        )

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    # -- wrapping ---------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(args, kwargs, result)`` runs after each call, inside
        the span's accounting, to record counts where the work happens.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer.count(f"{name}.calls")
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, start, end, _, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _, _ in self.spans:
            covered, cursor = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path: Path, summary: dict) -> None:
        events = []
        for sid, parent, name, start, end, rid, tid in self.spans:
            args = {"id": sid, "parent": parent}
            if rid is not None:
                args["request"] = rid
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - self.epoch) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        doc = {
            "traceEvents": events,
            "selfTimes": self.self_times(),
            "counts": dict(self.counts),
            "summary": summary,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class _Span:
    __slots__ = ("tracer", "name", "rid", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, rid: Optional[int]) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> int:
        self.sid = next(self.tracer._ids)
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self.sid

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.start, end, self.rid, threading.get_ident())
        )
