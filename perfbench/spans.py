"""In-memory span recorder for the traced replica.

A span is one call into a layer: name, start, end, parent span, task id
``(round, instance, N, dataset seed, algorithm)`` (``None`` where a field
does not apply), work counts and, if the call raised, the exception type
and message.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    task: tuple
    parent: int | None
    start: float
    end: float = 0.0
    #: Work done by the call; filled in by the caller inside the ``with``.
    counts: dict = field(default_factory=dict)
    error: str | None = None
    #: Recorded while the tracer was paused (checks and probes), so outside
    #: the replica's wall clock.
    paused: bool = False

    @property
    def layer(self) -> str:
        head = self.name.split(".", 1)[0]
        return "bench" if head == "phase" else head

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.paused_seconds = 0.0
        self._stack: list[Span] = []
        self._paused = 0
        self._next_id = 0
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, task: tuple, **counts):
        sp = Span(
            id=self._next_id,
            name=name,
            task=task,
            parent=self._stack[-1].id if self._stack else None,
            start=time.perf_counter() - self._origin,
            counts=dict(counts),
            paused=self._paused > 0,
        )
        self._next_id += 1
        self._stack.append(sp)
        try:
            yield sp
        except Exception as exc:
            sp.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            sp.end = time.perf_counter() - self._origin
            self._stack.pop()
            self.spans.append(sp)

    @contextmanager
    def paused(self):
        """Time spent inside is excluded from the replica's wall clock."""
        start = time.perf_counter()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            if not self._paused:
                self.paused_seconds += time.perf_counter() - start

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(
                    json.dumps(
                        {
                            "id": sp.id,
                            "name": sp.name,
                            "parent": sp.parent,
                            "task": list(sp.task),
                            "start": sp.start,
                            "end": sp.end,
                            "counts": sp.counts,
                            "error": sp.error,
                            "paused": sp.paused,
                        }
                    )
                    + "\n"
                )
