"""Low-overhead span recording for phase-level query telemetry.

A :class:`Tracer` collects :class:`TraceEvent` records — named spans with a
monotonic start offset, a duration, a wall-clock completion time and a flat
attribute mapping — into a bounded thread-safe buffer.  Every producer
times its block itself and calls :meth:`Tracer.record` with the measured
``started``/``duration``.  The EVE query driver passes the phase times it
already takes for :class:`repro.core.result.PhaseStats`, so tracing adds
no clock reads there; the HTTP front end's ``http.request`` and
``http.batch`` spans time their own blocks.

Events are plain picklable objects on purpose: process-pool workers build a
local tracer per task and ship the drained events back to the parent engine
inside the task result (see :class:`repro.service.engine.GroupExecution`),
so traces from worker-side execution land in the same buffer as in-process
spans.

Tracing off is ``None``: the EVE driver and the engine hold no tracer, and
every telemetry site reduces to one ``is not None`` check.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Union

__all__ = ["TraceEvent", "Tracer"]

#: Bound on retained events: one batch of a few thousand misses traces
#: completely, while a long-lived engine cannot grow without bound.
CAPACITY = 65_536


@dataclass
class TraceEvent:
    """One completed span.

    Attributes
    ----------
    name:
        Span name, e.g. ``"phase.distance"`` or ``"query"``.
    started:
        ``time.perf_counter()`` at span start — monotonic, comparable only
        within one process (workers' offsets are not the parent's).
    duration:
        Span length in seconds (monotonic-clock difference).
    wall_time:
        ``time.time()`` at span *completion*, for cross-process ordering
        and human-readable export.
    attributes:
        Flat, JSON-friendly span attributes (query endpoints, index sizes,
        verification counters, ...).
    """

    name: str
    started: float
    duration: float
    wall_time: float
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The JSONL export form: one flat object per event."""
        return {
            "name": self.name,
            "started": self.started,
            "duration_seconds": self.duration,
            "wall_time": self.wall_time,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """A bounded, thread-safe buffer of trace events.

    It retains at most :data:`CAPACITY` events; recording beyond that drops
    the *oldest* events (the buffer is a ring) and counts them in
    :attr:`dropped`, so a forgotten long-running trace degrades instead of
    exhausting memory.
    """

    def __init__(self) -> None:
        self._events: Deque[TraceEvent] = deque()
        self._lock = threading.Lock()
        self._dropped = 0

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events discarded because the buffer was full."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        started: float,
        duration: float,
        **attributes: object,
    ) -> TraceEvent:
        """Record one already-measured span and return its event."""
        event = TraceEvent(
            name=name,
            started=started,
            duration=duration,
            wall_time=time.time(),
            attributes=attributes,
        )
        self.append(event)
        return event

    def append(self, event: TraceEvent) -> None:
        """Add one pre-built event (used when merging worker-side events)."""
        with self._lock:
            if len(self._events) >= CAPACITY:
                self._events.popleft()
                self._dropped += 1
            self._events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge a sequence of pre-built events (e.g. from a pool worker)."""
        for event in events:
            self.append(event)

    # ------------------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """A point-in-time copy of the retained events (oldest first)."""
        with self._lock:
            return list(self._events)

    def drain(self) -> List[TraceEvent]:
        """Return the retained events (oldest first) and clear the buffer."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
            return events

    def clear(self) -> None:
        """Drop every retained event and reset the dropped counter."""
        with self._lock:
            self._events.clear()
            self._dropped = 0

    # ------------------------------------------------------------------
    def export_jsonl(self, sink: Union[str, io.TextIOBase]) -> int:
        """Write the retained events as JSON lines; returns the event count.

        ``sink`` is a path or an open text handle.  Path writes are atomic:
        events are serialised into a temporary file in the target directory
        and ``os.replace``-d into place only once every event has been
        written, so a crash (or an unserialisable span attribute) mid-write
        leaves any previous export intact instead of destroying it with a
        truncate-on-open.  Events stay in the buffer — pair with
        :meth:`drain` for incremental exports.
        """
        events = self.events()
        if isinstance(sink, str):
            return self._export_path(sink, events)
        return self._write_jsonl(sink, events)

    def _export_path(self, path: str, events: List[TraceEvent]) -> int:
        """Serialise ``events`` to ``path`` via a same-directory temp file."""
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                count = self._write_jsonl(handle, events)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        os.replace(tmp_path, path)
        return count

    @staticmethod
    def _write_jsonl(handle, events: List[TraceEvent]) -> int:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
        return len(events)

    def __repr__(self) -> str:
        return (
            f"Tracer(events={len(self)}, capacity={CAPACITY}, "
            f"dropped={self.dropped})"
        )

