"""Layer wrapping on the real program, on small scenarios."""

import json
import os

import pytest

import layers
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = """
seed: 3
run: {kind: load}
region: {band: TESTBED_16}
area: {preset: compact}
networks: {count: 2, gateways: 2, devices: 20, seed_stride: 1}
assignment: {kind: standard, tier: {enabled: true, k_nearest: 2}}
traffic: {kind: poisson, users: 300, mean_interval_s: 10.0, window_s: 4.0, seed_stride: 1}
link: {kind: urban}
metrics: {outcomes: true, breakdown: true}
"""
FAULTS = """
faults:
  gateway_crashes: [{time_s: 1.0, gateway_id: 0, down_s: 1.0}]
"""


def run_spec(text):
    from repro.scenarios import compile_run, parse_spec

    (run,) = parse_spec(text).runs()
    return compile_run(run).execute()


def traced(text):
    import repro.scenarios.compile  # noqa: F401

    tracer = Tracer()
    clients = layers.install(tracer)
    try:
        result = run_spec(text)
        return result, layers.derive(tracer, clients)
    finally:
        tracer.unwrap()


@pytest.mark.parametrize("text", [SMALL, SMALL + FAULTS], ids=["batch", "online"])
def test_traced_equals_untraced_and_counts_hold(text):
    result, metrics = traced(text)
    assert json.dumps(result, sort_keys=True) == json.dumps(run_spec(text), sort_keys=True)
    audible = sum(result["outcome_counts"].values())
    assert metrics["phy.audible"] == audible
    assert metrics["phy.observe_items"] >= audible
    assert 0 < metrics["gateway.grants"] <= metrics["gateway.lock_ons"]
    assert metrics["phy.decode_calls"] == metrics["gateway.grants"]
    assert metrics["gateway.detect_calls"] <= audible
    assert metrics["phy.airtime_calls"] > 0 and metrics["gateway.match_calls"] > 0
    assert 0.0 < metrics["gateway.scan_hit_ratio"] <= 1.0
    assert metrics["sim.run_s"] >= metrics["sim.self_s"] > 0.0
    online = "faults" in text
    assert (metrics["gateway.receive_s"] == 0.0) == online
    assert metrics["sim.metrics_s"] > 0.0 and metrics["sim.build_s"] > 0.0


def test_counts_repeat_exactly():
    _, first = traced(SMALL + FAULTS)
    _, second = traced(SMALL + FAULTS)
    for name in layers.EXACT:
        assert first[name] == second[name], name


def test_unwrap_restores_every_binding():
    import repro.gateway.gateway as gw
    import repro.sim.engine as engine
    from repro.phy.interference import decode_ok

    before = (gw.decode_ok, engine.decode_ok, gw.Gateway.receive)
    tracer = Tracer()
    layers.install(tracer)
    assert gw.decode_ok is engine.decode_ok is not decode_ok
    tracer.unwrap()
    assert (gw.decode_ok, engine.decode_ok, gw.Gateway.receive) == before


def test_derive_names_match_the_benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = Tracer()
    clients = layers.install(tracer)
    tracer.unwrap()
    derived = list(layers.derive(tracer, clients)) + ["bench.trace_overhead_frac"]
    assert sorted(derived) == sorted(declared)
    assert set(layers.EXACT) <= set(derived)


def test_scale_multiplies_times_and_leaves_counts():
    import repro.scenarios.compile  # noqa: F401

    tracer = Tracer()
    clients = layers.install(tracer)
    try:
        run_spec(SMALL)
    finally:
        tracer.unwrap()
    one = layers.derive(tracer, clients)
    two = layers.derive(tracer, clients, scale=2.0, setup_scale=2.0)
    for name, value in one.items():
        if name in layers.EXACT:
            assert two[name] == value, name
        elif name.endswith("_per_s"):
            assert two[name] == pytest.approx(value / 2), name
        else:
            assert two[name] == pytest.approx(2 * value), name
