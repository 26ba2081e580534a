"""Benchmark-suite helpers: run once, report the reproduced series.

Each ``run_once`` executes the driver inside a count-only observability
session (events are tallied by type but not stored), so ``report`` can
record *how much work* a run did next to *how long* it took.  Every
report appends a ``{date, duration_s, events, event_counts,
events_per_s}`` record to ``benchmarks/BENCH_<slug>.json``,
accumulating a performance trajectory across sessions.
"""

import json
import os
import re
import time
from datetime import datetime, timezone

import pytest

from repro.obs import observe

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Timing/counting handoff from the latest run_once to the next report.
_last_run = {}


def run_once(benchmark, fn, health=False, flight=False, **kwargs):
    """Time one full experiment run (no warmup: these are minutes-long).

    ``health=True`` additionally attaches a streaming
    :class:`~repro.obs.health.HealthMonitor` to the session (the
    observatory's overhead benchmark compares the two modes);
    ``flight`` attaches a black-box
    :class:`~repro.obs.flight.FlightRecorder` the same way.
    """
    counts = {}

    def observed(**kw):
        with observe(
            trace=True, metrics=False, health=health,
            flight=flight,
        ) as session:
            # Count-only mode: emit() tallies per-type counts before the
            # storage-cap check, so a zero cap keeps memory flat while
            # the counts stay exact.
            session.recorder.max_events = 0
            out = fn(**kw)
        counts.update(session.event_counts())
        return out

    t0 = time.perf_counter()
    result = benchmark.pedantic(
        observed, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )
    _last_run.clear()
    _last_run["duration_s"] = round(time.perf_counter() - t0, 3)
    _last_run["event_counts"] = counts
    return result


def _slug(title):
    head = title.split(":", 1)[0].lower()
    return re.sub(r"[^a-z0-9]+", "_", head).strip("_") or "untitled"


def _append_trajectory(title, duration_s, event_counts):
    path = os.path.join(_BENCH_DIR, f"BENCH_{_slug(title)}.json")
    records = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                records = json.load(fh)
        except (OSError, ValueError):
            records = []
    events = sum(event_counts.values())
    records.append(
        {
            "date": datetime.now(timezone.utc).isoformat(),
            "duration_s": duration_s,
            "events": events,
            "event_counts": event_counts,
            # Derived throughput.  Wall-clock-bearing, but regress-safe:
            # metrics_from_bench only extracts events/event_counts, so
            # the trajectory carries eps without ever gating on it.
            "events_per_s": (
                round(events / duration_s, 1) if duration_s else 0.0
            ),
        }
    )
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def report(title, payload):
    """Print a reproduction record into the benchmark output."""
    print(f"\n=== {title} ===")
    duration_s = _last_run.get("duration_s")
    event_counts = _last_run.get("event_counts") or {}
    if duration_s is not None:
        print(
            f"(duration {duration_s:.3f} s, "
            f"{sum(event_counts.values())} trace events)"
        )
        _append_trajectory(title, duration_s, event_counts)
    print(json.dumps(payload, indent=2, default=str))
    _last_run.clear()
