"""Every observability hook stays under its 5 % overhead budget.

Four hooks ride the simulation hot path, each with the same budget:
its projected cost over a representative chaos run stays below 5 % of
that run's wall time.  The projection takes one of two forms:

* ``obs`` and ``perf`` — a disabled hook compiles to one
  module-attribute load plus a ``None`` check.  The guard is timed
  directly and multiplied by how often the hooks fire (trace events for
  ``obs``, phase calls of a sampled probe for ``perf``), scaled by a
  generous guards-per-firing factor.
* ``health`` and ``flight`` — the monitor and the black box are
  listeners on the recorder's event bus, so their marginal cost is one
  listener call per event.  That call is timed on a representative
  event mix and multiplied by the events a count-only run emits.

Two loose end-to-end bounds catch accidental heavy work in the enabled
modes (a count-only trace session, a sampled attached probe), and the
health/flight chaos benchmarks accumulate their records in
``BENCH_health.json`` and ``BENCH_flight.json``.  Select one hook's
cases with ``-k obs``, ``-k perf``, ``-k health`` or ``-k flight``.
"""

import json
import time
import timeit

import pytest

from repro.experiments.chaos import run_chaos
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.flight import FlightRecorder
from repro.obs.health import HealthMonitor
from repro.obs.perf import PerfProbe

from bench_utils import report, run_once

_BUDGET = 0.05
_GUARD_SETUP = "from repro.obs import runtime"
# A representative slice of the chaos event mix (hot-path types only).
_EVENT_MIX = (
    (EventType.GW_LOCK_ON, {"gw": 0}),
    (EventType.DECODER_GRANT, {"gw": 0, "dec": 0, "until": 1.5}),
    (EventType.GW_RECEPTION, {"gw": 0, "outcome": "received"}),
    (EventType.DECODER_REJECT, {"gw": 1, "blockers": [0]}),
    (EventType.GW_RECEPTION, {"gw": 1, "outcome": "no_decoder"}),
)


def _run_plain_s():
    t0 = time.perf_counter()
    run_chaos(seed=0)
    return time.perf_counter() - t0


def _run_count_only():
    """Wall time and event count of a count-only traced chaos run.

    Events are tallied, not stored (``max_events = 0``).
    """
    t0 = time.perf_counter()
    with observe(trace=True, metrics=False) as session:
        session.recorder.max_events = 0
        run_chaos(seed=0)
    return time.perf_counter() - t0, sum(session.recorder.counts.values())


def _per_guard_s(stmt):
    return (
        min(timeit.repeat(stmt, setup=_GUARD_SETUP, number=100_000, repeat=3))
        / 100_000
    )


def _per_event_s(feed):
    """Cost of one listener call, ``feed`` delivering ``_EVENT_MIX`` once."""
    rounds = 2_000
    best = min(timeit.repeat(feed, number=rounds, repeat=3))
    return best / (rounds * len(_EVENT_MIX))


def _project_obs():
    """Disabled trace/metrics guards over a plain chaos run."""
    run_s = min(_run_plain_s() for _ in range(2))
    _, events = _run_count_only()
    assert events > 0
    # Firing sites check both the trace and the metrics slot, and some
    # guards sit on paths that never emit; scale the per-event guard
    # count generously to stay conservative.
    guards_per_event = 10
    per_guard_s = _per_guard_s(
        "rec = runtime.TRACE\nif rec is not None:\n    pass"
    )
    return per_guard_s * events * guards_per_event, run_s


def _project_perf():
    """Detached phase guards over a plain chaos run."""
    run_s = min(_run_plain_s() for _ in range(2))
    # How many phase hooks fire (sampled probe: exact counts, 1-in-32
    # timings).
    probe = PerfProbe(sample_every=32)
    with probe.attach():
        run_chaos(seed=0)
    firings = sum(
        stat["calls"]
        for stat in probe.report()["deterministic"]["phases"].values()
    )
    assert firings > 0
    # Each phase firing wraps a begin + end pair, and the per-gateway
    # loop hoists four stat lookups; scale generously to stay
    # conservative.
    guards_per_firing = 4
    per_guard_s = _per_guard_s(
        "probe = runtime.PERF\nif probe is not None:\n    pass"
    )
    return per_guard_s * firings * guards_per_firing, run_s


def _project_health():
    """One HealthMonitor listener call per event of a traced run."""
    run_s, events = min(
        (_run_count_only() for _ in range(2)), key=lambda r: r[0]
    )
    assert events > 0
    monitor = HealthMonitor()

    def feed():
        for i, (etype, fields) in enumerate(_EVENT_MIX):
            monitor.observe_event(etype, 0.1 * i, dict(fields))

    return _per_event_s(feed) * events, run_s


def _project_flight():
    """One ring append per event of a traced run, the ring at capacity."""
    run_s, events = min(
        (_run_count_only() for _ in range(2)), key=lambda r: r[0]
    )
    assert events > 0
    # No triggers: measure the pure ring append, which is what every
    # non-fault event (i.e. almost all of them) costs.
    flight = FlightRecorder(triggers=())
    for i in range(flight.capacity):  # steady state: every append evicts
        flight.observe_event(EventType.GW_LOCK_ON, float(i), {"gw": 0})

    def feed():
        for i, (etype, fields) in enumerate(_EVENT_MIX):
            flight.observe_event(etype, 0.1 * i, fields)

    return _per_event_s(feed) * events, run_s


_PROJECTIONS = {
    "obs": _project_obs,
    "perf": _project_perf,
    "health": _project_health,
    "flight": _project_flight,
}


@pytest.mark.parametrize("hook", sorted(_PROJECTIONS))
def test_projected_overhead_under_five_percent(hook):
    projected_s, run_s = _PROJECTIONS[hook]()
    assert projected_s < _BUDGET * run_s, (
        f"{hook} hooks project to {projected_s:.6f}s over a "
        f"{run_s:.3f}s run ({projected_s / run_s:.1%})"
    )


def test_obs_enabled_count_only_stays_reasonable():
    disabled_s = _run_plain_s()
    enabled_s, _ = _run_count_only()
    # Loose bound: tracing must not change the run's complexity class.
    assert enabled_s < 2.0 * disabled_s + 0.5


def test_perf_attached_sampled_probe_stays_reasonable():
    detached_s = _run_plain_s()
    probe = PerfProbe(sample_every=32)
    with probe.attach():
        t0 = time.perf_counter()
        run_chaos(seed=0)
        attached_s = time.perf_counter() - t0
    # Loose bound: a sampled probe must not change the complexity class.
    assert attached_s < 1.5 * detached_s + 0.5


def test_health_enabled_chaos_benchmark(benchmark):
    result = run_once(benchmark, run_chaos, health=True, seed=0, fast=True)
    report(
        "Health: chaos run with the streaming observatory attached",
        result,
    )
    # The observatory saw the run: faults fired their alert rules and
    # the embedded verdict is degraded or worse.
    assert result["health"]["status"] in ("degraded", "critical")
    rules = {a["rule"] for a in result["alerts"]}
    assert "gateway_offline" in rules
    assert "master_unreachable" in rules


def test_flight_black_box_chaos_benchmark(benchmark, tmp_path):
    flight = FlightRecorder(out_dir=str(tmp_path))
    result = run_once(benchmark, run_chaos, flight=flight, seed=0, fast=True)
    report(
        "Flight: chaos run with the always-on black box attached",
        result,
    )
    # The chaos run's Master faults tripped a trigger: the ring flushed.
    assert flight.dumps, "expected a fault-triggered flight dump"
    with open(flight.dumps[0]) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows[0]["type"] == "flight"
    assert rows[0]["reason"] in flight.triggers
    assert 1 <= rows[0]["events"] <= flight.capacity
    assert len(rows) == rows[0]["events"] + 1
