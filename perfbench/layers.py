"""Per-layer instrumentation: which public calls are wrapped, and how
each per-layer metric is derived from the spans and counts.

Layers are named after ``src/repro`` packages.  Every metric listed in
``BENCHMARK.json`` under ``per_layer`` is produced by :func:`derive`;
``metrics.json`` records which end-to-end metric each should move, on
which workload.  Work counts are exact; times are seconds (or
microseconds for single RPC-path calls) at the reference host speed.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from tracer import Tracer

SIM_METRICS_FUNCS = (
    "breakdown_ratios",
    "outcome_counts",
    "bucketed_prr",
    "retry_delivery_breakdown",
    "time_to_recover_s",
    "degraded_time_s",
)
BUILD_FUNCS = (
    ("repro.sim.scenario", "build_network"),
    ("repro.sim.scenario", "assign_orthogonal_combos"),
    ("repro.sim.scenario", "assign_plan_homogeneous"),
    ("repro.sim.scenario", "assign_tier_by_reach"),
    ("repro.sim.scenario", "assign_random_channels"),
    ("repro.baselines.standard", "apply_standard_lorawan"),
    ("repro.experiments.common", "emulated_traffic"),
    ("repro.node.traffic", "periodic_schedule"),
    ("repro.node.traffic", "bursty_schedule"),
    ("repro.node.traffic", "diurnal_schedule"),
    ("repro.node.traffic", "duty_cycle_schedule"),
)
RPC_KINDS = ("register", "status", "release", "resume")


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> List[Any]:
    """Wrap every measured boundary; returns the MasterClient registry.

    Must run after the workload's imports and before its set-up.
    """
    import repro.baselines.standard  # noqa: F401  (imported lazily by the compiler)
    import repro.core.master_client
    import repro.experiments.common  # noqa: F401
    import repro.sim.resilience  # noqa: F401
    from repro.core.cp_problem import CPEvaluator
    from repro.core.intra_planner import IntraNetworkPlanner
    from repro.core.journal import StateJournal
    from repro.core.master import MasterNode
    from repro.gateway.decoder import DecoderPool
    from repro.gateway.dispatcher import FcfsDispatcher
    from repro.gateway.gateway import Gateway
    from repro.sim.engine import OnlineSimulator
    from repro.sim.simulator import SimulationResult, Simulator

    t = tracer
    # sim
    for module, attr in BUILD_FUNCS:
        t.wrap_function(module, attr, span="sim.build")
    t.wrap_method(Simulator, "run", span="sim.run")
    t.wrap_method(OnlineSimulator, "run_online", span="sim.run")
    t.wrap_function(
        "repro.sim.resilience", "run_with_retransmissions", span="sim.retransmit",
        count=lambda a, k, r: {"sim.retransmissions": len(r.retransmissions)},
    )
    for attr in SIM_METRICS_FUNCS:
        t.wrap_function("repro.sim.metrics", attr, span="sim.metrics")
    t.wrap_method(SimulationResult, "delivered_count", span="sim.metrics")
    t.wrap_method(SimulationResult, "prr", span="sim.metrics")
    # phy
    t.wrap_method(
        Simulator, "observations_at", span="phy.observe",
        count=lambda a, k, r: {
            "phy.observe_items": len(_arg(a, k, 2, "transmissions")),
            "phy.audible": len(r),
        },
    )
    t.wrap_function("repro.phy.lora", "time_on_air_s", calls="phy.airtime_calls")
    t.wrap_function(
        "repro.phy.interference", "decode_ok", span="phy.decode",
        calls="phy.decode_calls",
        count=lambda a, k, r: {"phy.interferers": len(_arg(a, k, 4, "interferers"))},
    )
    # gateway
    t.wrap_method(Gateway, "receive", span="gateway.receive")
    t.wrap_function(
        "repro.gateway.detector", "detect", span="gateway.detect",
        calls="gateway.detect_calls",
        count=lambda a, k, r: {"gateway.lock_ons": r is not None},
    )
    t.wrap_function("repro.gateway.detector", "match_rx_channel", calls="gateway.match_calls")
    t.wrap_method(FcfsDispatcher, "dispatch", span="gateway.dispatch")
    t.wrap_method(
        DecoderPool, "try_allocate", span="gateway.allocate",
        count=lambda a, k, r: {"gateway.grants": r is not None},
    )
    # The interferer scan has no public boundary: its one private method
    # is wrapped, and the overlap tests are counted at the scan's own
    # call sites only (sim.metrics calls time_overlap_s too).
    t.wrap_method(
        Gateway, "_interferers_for", span="gateway.scan",
        count=lambda a, k, r: {"gateway.scan_kept": len(r)},
    )
    t.wrap_function(
        "repro.types", "time_overlap_s", calls="gateway.time_tests",
        only_in=["repro.gateway.gateway"],
    )
    t.wrap_function(
        "repro.phy.channels", "overlap_hz", calls="gateway.freq_tests",
        only_in=["repro.gateway.gateway"],
    )
    # core: planner
    t.wrap_method(IntraNetworkPlanner, "plan", span="core.plan")
    t.wrap_function(
        "repro.core.evolutionary", "evolve", span="core.evolve",
        count=lambda a, k, r: {
            "core.ga_generations": r.generations_run,
            "core.ga_evals": r.evaluations,
        },
    )
    t.wrap_method(CPEvaluator, "fitness", span="core.fitness", calls="core.fitness_calls")
    # core: Master RPC path (client, server-side node, journal)
    clients: List[Any] = []
    client_cls = repro.core.master_client.MasterClient
    for kind in RPC_KINDS:
        t.wrap_method(client_cls, kind, span=f"core.rpc.{kind}")
        t.wrap_method(MasterNode, kind, span="core.master")
    t.wrap_method(
        client_cls, "__init__",
        count=lambda a, k, r: clients.append(a[0]) or {},
    )
    t.wrap_method(StateJournal, "append", span="core.journal.append")
    return clients


def _median_us(tracer: Tracer, names: List[str]) -> float:
    durs = tracer.durations_ns()
    values = [durs[sid] for name in names for sid in tracer.spans_of(name)]
    return statistics.median(values) / 1e3 if values else 0.0


def _wire_us(tracer: Tracer) -> float:
    """Median client round-trip minus the Master call it contains.

    The server runs each request on its handler thread; its
    ``MasterNode`` span is matched to the client span whose interval
    contains it (one client, so requests never overlap).
    """
    client = sorted(
        sid for kind in RPC_KINDS for sid in tracer.spans_of(f"core.rpc.{kind}")
    )
    server = tracer.spans_of("core.master")
    start, end = tracer.span_start, tracer.span_end
    wires: List[int] = []
    j = 0
    for sid in client:
        while j < len(server) and start[server[j]] < start[sid]:
            j += 1
        if j < len(server) and end[server[j]] <= end[sid]:
            wires.append((end[sid] - start[sid]) - (end[server[j]] - start[server[j]]))
            j += 1
    return statistics.median(wires) / 1e3 if wires else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(
    tracer: Tracer, clients: List[Any], scale: float = 1.0, setup_scale: float = 1.0
) -> Dict[str, float]:
    """Every per-layer metric of one traced execution (0 where unused).

    Times are multiplied by the host-speed scale (``speed.py``) of the
    window they fall in, like the end-to-end times: ``setup_scale`` for
    the spec compile, which runs in set-up, ``scale`` for the rest.
    """
    t = tracer
    c = t.counts
    rpc_names = [f"core.rpc.{kind}" for kind in RPC_KINDS]
    durs = t.durations_ns()
    rtts = sorted(durs[sid] for name in rpc_names for sid in t.spans_of(name))

    def total(names: List[str]) -> float:
        return t.total_s(names) * scale

    def median_us(names: List[str]) -> float:
        return _median_us(t, names) * scale

    evolve_s = total(["core.evolve"])
    out: Dict[str, float] = {
        "scenarios.compile_s": t.total_s(["scenarios.compile"]) * setup_scale,
        "sim.build_s": total(["sim.build"]),
        "sim.run_s": total(["sim.run"]),
        "sim.self_s": t.self_s(["sim.run"]) * scale,
        "sim.metrics_s": total(["sim.metrics"]),
        "sim.retransmit_s": total(["sim.retransmit"]),
        "sim.retransmissions": c.get("sim.retransmissions", 0),
        "phy.observe_s": total(["phy.observe"]),
        "phy.observe_items": c.get("phy.observe_items", 0),
        "phy.audible": c.get("phy.audible", 0),
        "phy.airtime_calls": c["phy.airtime_calls"],
        "phy.decode_s": total(["phy.decode"]),
        "phy.decode_calls": c["phy.decode_calls"],
        "phy.interferers": c.get("phy.interferers", 0),
        "gateway.receive_s": total(["gateway.receive"]),
        "gateway.detect_s": total(["gateway.detect"]),
        "gateway.detect_calls": c["gateway.detect_calls"],
        "gateway.match_calls": c["gateway.match_calls"],
        "gateway.dispatch_s": total(["gateway.dispatch", "gateway.allocate"]),
        "gateway.lock_ons": c.get("gateway.lock_ons", 0),
        "gateway.grants": c.get("gateway.grants", 0),
        "gateway.grant_ratio": _ratio(c.get("gateway.grants", 0), c.get("gateway.lock_ons", 0)),
        "gateway.scan_s": total(["gateway.scan"]),
        "gateway.overlap_tests": c["gateway.time_tests"] + c["gateway.freq_tests"],
        "gateway.scan_hit_ratio": _ratio(c.get("gateway.scan_kept", 0), c["gateway.time_tests"]),
        "core.plan_s": total(["core.plan"]),
        "core.evolve_s": evolve_s,
        "core.evolve_self_s": t.self_s(["core.evolve"]) * scale,
        "core.fitness_calls": c["core.fitness_calls"],
        "core.fitness_s": total(["core.fitness"]),
        "core.ga_generations": c.get("core.ga_generations", 0),
        "core.ga_evals": c.get("core.ga_evals", 0),
        "core.ga_evals_per_s": _ratio(c.get("core.ga_evals", 0), evolve_s),
        "core.rpc_register_us": median_us(["core.rpc.register"]),
        "core.rpc_status_us": median_us(["core.rpc.status"]),
        "core.rpc_release_us": median_us(["core.rpc.release"]),
        "core.rpc_p99_us": _p99(rtts) / 1e3 * scale,
        "core.rpc_samples": len(rtts),
        "core.master_apply_us": median_us(["core.master"]),
        "core.journal_append_us": median_us(["core.journal.append"]),
        "core.rpc_wire_us": _wire_us(t) * scale,
        "core.rpc_retries": sum(client.retries for client in clients),
    }
    return {k: (int(v) if isinstance(v, bool) else v) for k, v in out.items()}


def _p99(sorted_values: List[int]) -> float:
    """Nearest-rank 99th percentile (0 with no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(0, -(-99 * len(sorted_values) // 100) - 1)
    return float(sorted_values[rank])


# Counts that must repeat exactly across runs of one seed.
EXACT = (
    "sim.retransmissions", "phy.observe_items", "phy.audible",
    "phy.airtime_calls", "phy.decode_calls", "phy.interferers",
    "gateway.detect_calls", "gateway.match_calls", "gateway.lock_ons",
    "gateway.grants", "gateway.grant_ratio", "gateway.overlap_tests",
    "gateway.scan_hit_ratio", "core.fitness_calls", "core.ga_generations",
    "core.ga_evals", "core.rpc_samples", "core.rpc_retries",
)
