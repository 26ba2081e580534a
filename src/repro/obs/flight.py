"""Always-on bounded flight recorder: the last N events, dumped on fault.

A post-mortem needs the moments *before* the crash, but full tracing of
every fleet process is too expensive to leave on.  The flight recorder
is the black-box compromise: a fixed-size ring of the most recent
events (a ``deque`` append — O(1), no allocation growth) that stays
silent until a trigger event (Master crash, journal readonly-flip) or
an explicit :meth:`FlightRecorder.dump` call, at which point the ring is
flushed to ``flight-<pid>.jsonl`` in the configured directory.

The recorder subscribes to the trace bus like any listener
(:meth:`observe_event`), so it works on count-only recorders
(``max_events=0``) — full storage off, black box on.  Overhead versus a
detached run stays under the 5 % observability budget, asserted by
``benchmarks/test_hook_overhead.py``.

Dump files are diagnostics, not traces: lines carry wall-free event
bodies but the header records the pid and dump reason, and write errors
are swallowed (a black box must never take the process down with it).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .events import EventType, WALL_SUFFIX

__all__ = ["FlightRecorder", "DEFAULT_TRIGGERS", "FLIGHT_CAPACITY"]

# Ring size: enough to cover the event burst of one fault window in a
# fast chaos run while keeping the per-process footprint trivial.
FLIGHT_CAPACITY = 256

# Event types that flush the ring the moment they are observed.
DEFAULT_TRIGGERS: FrozenSet[str] = frozenset(
    {
        EventType.MASTER_CRASH,
        EventType.MASTER_READONLY,
        EventType.MASTER_UNAVAILABLE,
    }
)


class FlightRecorder:
    """Bounded ring of recent events with fault-triggered dumps.

    Args:
        capacity: Ring size (events kept).
        out_dir: Directory receiving ``flight-<pid>.jsonl`` dumps.
        triggers: Event types that auto-dump when observed.
    """

    def __init__(
        self,
        capacity: int = FLIGHT_CAPACITY,
        out_dir: str = ".",
        triggers: Optional[Iterable[str]] = None,
    ) -> None:
        self.capacity = capacity
        self.out_dir = out_dir
        self.triggers: FrozenSet[str] = (
            frozenset(triggers) if triggers is not None else DEFAULT_TRIGGERS
        )
        self.dumps: List[str] = []
        self._ring: Deque[Tuple[str, Optional[float], Dict[str, Any]]] = deque(
            maxlen=capacity
        )

    def __len__(self) -> int:
        return len(self._ring)

    # -- trace-bus listener ------------------------------------------------

    def observe_event(
        self, etype: str, t: Optional[float], fields: Dict[str, Any]
    ) -> None:
        """Append one event to the ring; dump if it is a trigger.

        The fields dict is captured by reference — the emitter hands a
        fresh kwargs dict per event, so no copy is needed on the hot
        path; :meth:`dump` serialises whatever is current at dump time.
        """
        self._ring.append((etype, t, fields))
        if etype in self.triggers:
            self.dump(reason=etype)

    # -- dumping -----------------------------------------------------------

    def snapshot(self) -> List[Dict[str, Any]]:
        """Wire-shaped copies of the ring contents, oldest first."""
        out: List[Dict[str, Any]] = []
        for etype, t, fields in list(self._ring):
            d: Dict[str, Any] = {"type": etype}
            if t is not None:
                d["t"] = t
            for key, value in fields.items():
                if not key.endswith(WALL_SUFFIX):
                    d[key] = value
            out.append(d)
        return out

    def dump(self, reason: str = "manual") -> Optional[str]:
        """Flush the ring to ``flight-<pid>.jsonl``; return its path.

        Repeat dumps of one process overwrite the same file — the latest
        dump is the one closest to the failure, which is the one a
        post-mortem wants.  Returns ``None`` when the ring is empty or
        the write fails (a black box never raises).
        """
        events = self.snapshot()
        if not events:
            return None
        path = os.path.join(self.out_dir, "flight-%d.jsonl" % os.getpid())
        head = {
            "type": "flight",
            "pid": os.getpid(),
            "reason": reason,
            "events": len(events),
            "capacity": self.capacity,
        }
        try:
            with open(path, "w") as fh:
                fh.write(json.dumps(head, separators=(",", ":")) + "\n")
                for d in events:
                    fh.write(json.dumps(d, separators=(",", ":")) + "\n")
        except OSError:
            return None
        if path not in self.dumps:
            self.dumps.append(path)
        return path
