"""Process-local observability state shared by every instrumented module.

Instrumented hot paths (decoder pool, dispatcher, engine) are written
against five module-level slots that default to ``None``:

* :data:`TRACE` — the active :class:`~repro.obs.recorder.TraceRecorder`
* :data:`METRICS` — the active :class:`~repro.obs.metrics.MetricsRegistry`
* :data:`HEALTH` — the active :class:`~repro.obs.health.HealthMonitor`
* :data:`PERF` — the active :class:`~repro.obs.perf.PerfProbe`
* :data:`FLIGHT` — the active :class:`~repro.obs.flight.FlightRecorder`

A hook is a single attribute load plus a ``None`` check when
observability is disabled — the overhead budget for the default
(untraced) configuration is <5 % of the hot-path wall time, asserted by
``benchmarks/test_hook_overhead.py``.  Activation is scoped with
:func:`repro.obs.observe` (and :meth:`~repro.obs.perf.PerfProbe.attach`
for ``PERF``) rather than set directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .flight import FlightRecorder
    from .health import HealthMonitor
    from .metrics import MetricsRegistry
    from .perf import PerfProbe
    from .recorder import TraceRecorder

__all__ = [
    "TRACE",
    "METRICS",
    "HEALTH",
    "PERF",
    "FLIGHT",
    "activate",
    "deactivate",
]

# The active observability session components (None = disabled).
TRACE: Optional["TraceRecorder"] = None
METRICS: Optional["MetricsRegistry"] = None
HEALTH: Optional["HealthMonitor"] = None
# The performance probe has its own lifecycle (PerfProbe.attach): a
# perf measurement may wrap an observe() session or run without one.
PERF: Optional["PerfProbe"] = None
# The crash black box (see repro.obs.flight): components needing a
# fault-time dump (campaign workers, the drill harness) read this slot.
FLIGHT: Optional["FlightRecorder"] = None


def activate(
    trace: Optional["TraceRecorder"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    health: Optional["HealthMonitor"] = None,
    flight: Optional["FlightRecorder"] = None,
) -> None:
    """Install session components into the module slots.

    Called by :func:`repro.obs.observe`; tests may call it directly.
    Passing ``None`` for a component leaves that dimension disabled.
    """
    global TRACE, METRICS, HEALTH, FLIGHT
    TRACE = trace
    METRICS = metrics
    HEALTH = health
    FLIGHT = flight


def deactivate() -> None:
    """Disable all observability (restores the zero-overhead default)."""
    activate(None, None, None, None)
