"""Observability: structured tracing, metrics, and profiling hooks.

The paper's core finding — capacity bounded by FCFS decoder scheduling,
not RF collisions — came from instrumenting the gateway reception
pipeline and dissecting its logs.  This package gives the reproduction
the same discipline at run time, with zero dependencies and zero
behavioural impact:

* :class:`TraceRecorder` — typed, timestamped events (lock-ons, decoder
  lease grants/rejections, decode outcomes, backhaul fates, reboots,
  Master retries, GA telemetry) exported as schema-versioned JSONL.
* :class:`MetricsRegistry` — counters / gauges / histograms with
  Prometheus-text and JSON export.
* :class:`PerfProbe` — per-phase hot-path timing and work counts
  (attached on its own, see :mod:`repro.obs.perf`).
* :func:`observe` — scoped activation; every hook in the simulation
  stack is a no-op unless a session is active.

Usage::

    from repro.obs import observe

    with observe() as session:
        result = run_chaos(seed=0)
    session.recorder.write_jsonl("chaos_trace.jsonl")
    print(session.metrics.to_prometheus())

Traces are deterministic: events carry simulation time only; wall-clock
measurements live in ``*wall_s`` fields stripped from the canonical
export, and in the run manifest (the first JSONL line).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Union

from . import runtime
from .causal import TraceContext, derive_id
from .events import EventType, TraceEvent
from .flight import FlightRecorder
from .health import Alert, AlertRule, HealthMonitor, health_score, health_status
from .logconf import setup_logging
from .manifest import build_manifest, config_digest, git_revision, scrub_wall_fields
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perf import (
    PHASES,
    PerfProbe,
    Phase,
    PhaseStat,
    perf_count,
    phase_timed,
    profile_hotspots,
    render_hotspots,
    render_phase_table,
    render_throughput,
    run_profiled,
)
from .recorder import TraceRecorder, load_trace
from .timeline import (
    decoder_occupancy,
    filter_events,
    final_run_events,
    packet_timelines,
    render_occupancy,
    run_segments,
    summarize_trace,
    trace_outcome_counts,
)

__all__ = [
    "EventType",
    "TraceEvent",
    "TraceRecorder",
    "TraceContext",
    "derive_id",
    "FlightRecorder",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "PerfProbe",
    "PhaseStat",
    "Phase",
    "PHASES",
    "phase_timed",
    "perf_count",
    "profile_hotspots",
    "run_profiled",
    "render_phase_table",
    "render_hotspots",
    "render_throughput",
    "HealthMonitor",
    "AlertRule",
    "Alert",
    "health_score",
    "health_status",
    "ObservabilitySession",
    "observe",
    "setup_logging",
    "build_manifest",
    "config_digest",
    "git_revision",
    "scrub_wall_fields",
    "load_trace",
    "run_segments",
    "final_run_events",
    "trace_outcome_counts",
    "packet_timelines",
    "decoder_occupancy",
    "filter_events",
    "summarize_trace",
    "render_occupancy",
    "runtime",
]


class ObservabilitySession:
    """The recorder / registry / monitors of one observed run."""

    def __init__(
        self,
        recorder: Optional[TraceRecorder],
        metrics: Optional[MetricsRegistry],
        health: Optional[HealthMonitor] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        self.recorder = recorder
        self.metrics = metrics
        self.health = health
        self.flight = flight

    def event_counts(self) -> Dict[str, int]:
        """Events recorded so far, by type (empty when tracing is off)."""
        if self.recorder is None:
            return {}
        return dict(sorted(self.recorder.counts.items()))


@contextmanager
def observe(
    trace: bool = True,
    metrics: bool = True,
    health: Union[bool, HealthMonitor] = False,
    flight: Union[bool, FlightRecorder] = False,
    manifest: Optional[Dict[str, Any]] = None,
) -> Iterator[ObservabilitySession]:
    """Activate observability for the dynamic extent of the block.

    Only one session can be active per process (the hooks read
    process-local slots); nested sessions raise ``RuntimeError``.

    ``health`` enables the streaming :class:`HealthMonitor` (pass
    ``True`` for default alert rules, or a configured monitor).  The
    monitor subscribes to the event stream, so enabling health with
    ``trace=False`` still creates a count-only recorder (``max_events=0``
    — events feed the listeners but are not stored).  ``flight``
    likewise enables the bounded :class:`FlightRecorder` black box
    (pass ``True`` for defaults, or a configured recorder); it too
    rides the listener bus, so it works with full tracing off.
    """
    if (
        runtime.TRACE is not None
        or runtime.METRICS is not None
        or runtime.HEALTH is not None
        or runtime.FLIGHT is not None
    ):
        raise RuntimeError("an observability session is already active")
    monitor: Optional[HealthMonitor] = None
    if isinstance(health, HealthMonitor):
        monitor = health
    elif health:
        monitor = HealthMonitor()
    black_box: Optional[FlightRecorder] = None
    if isinstance(flight, FlightRecorder):
        black_box = flight
    elif flight:
        black_box = FlightRecorder()
    recorder: Optional[TraceRecorder] = None
    if trace:
        recorder = TraceRecorder(manifest=manifest)
    elif monitor is not None or black_box is not None:
        recorder = TraceRecorder(manifest=manifest, max_events=0)
    if recorder is not None and monitor is not None:
        recorder.add_listener(monitor.observe_event)
    if recorder is not None and black_box is not None:
        recorder.add_listener(black_box.observe_event)
    session = ObservabilitySession(
        recorder=recorder,
        metrics=MetricsRegistry() if metrics else None,
        health=monitor,
        flight=black_box,
    )
    runtime.activate(session.recorder, session.metrics, monitor, black_box)
    try:
        yield session
    finally:
        runtime.deactivate()
