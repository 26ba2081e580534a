"""Cross-checks between instrumented hot paths and their results.

Runs the batch and online simulators inside an observability session
and verifies that the emitted events and metric counters agree with the
returned reception records — the invariants the trace loader relies on.
"""

import pytest

from repro.gateway.gateway import Outcome
from repro.node.traffic import capacity_burst
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.perf import PerfProbe, Phase
from repro.sim.engine import OnlineSimulator, Reconfiguration
from repro.sim.simulator import Simulator


def _outcomes(result):
    counts = {}
    for recs in result.receptions.values():
        for r in recs:
            counts[r.outcome.value] = counts.get(r.outcome.value, 0) + 1
    return counts


class TestBatchInstrumentation:
    def test_events_match_records(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe() as session:
            result = sim.run(txs)
        counts = session.event_counts()
        assert counts["sim.run_start"] == 1
        assert counts["sim.run_end"] == 1
        # One reception event per record; grants+rejects == lock-ons.
        total_records = sum(len(r) for r in result.receptions.values())
        assert counts["gw.reception"] == total_records
        assert counts["gw.lock_on"] == (
            counts.get("decoder.grant", 0) + counts.get("decoder.reject", 0)
        )
        rejected = _outcomes(result).get("no_decoder", 0)
        assert counts.get("decoder.reject", 0) == rejected

    def test_metrics_match_records(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with observe(trace=False) as session:
            result = sim.run(txs)
        snap = session.metrics.to_json()
        metric_outcomes = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["repro_outcomes_total"]["series"]
        }
        assert metric_outcomes == {
            k: float(v) for k, v in _outcomes(result).items()
        }

    def test_phases_recorded(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        with PerfProbe().attach() as probe:
            sim.run(txs)
        phases = probe.report()["deterministic"]["phases"]
        # One observe block per gateway batch.
        assert phases[Phase.OBSERVE]["calls"] == len(compact_network.gateways)
        assert Phase.DISPATCH in phases

    def test_no_events_without_session(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        # Simply must not raise: every hook no-ops when disabled.
        sim.run(capacity_burst(compact_network.devices))


class TestOnlineInstrumentation:
    def test_reboot_and_final_outcomes(self, compact_network, link):
        sim = OnlineSimulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        txs = capacity_burst(compact_network.devices)
        gw = compact_network.gateways[0]
        reconf = Reconfiguration(
            time_s=0.1,
            gateway_id=gw.gateway_id,
            channels=tuple(gw.channels),
            outage_s=5.0,
        )
        with observe() as session:
            result = sim.run_online(txs, [reconf])
        counts = session.event_counts()
        assert counts["gw.reboot"] == 1
        reboot = next(
            e for e in session.recorder.events if e.etype == EventType.GW_REBOOT
        )
        assert reboot.fields["reason"] == "reconfig"
        assert reboot.t == 0.1
        # Reception events carry the *final* outcome (post-reboot
        # mutation), so offline counts agree with the records.
        offline_events = sum(
            1
            for e in session.recorder.events
            if e.etype == EventType.GW_RECEPTION
            and e.fields["outcome"] == Outcome.GATEWAY_OFFLINE.value
        )
        assert offline_events == _outcomes(result).get("gateway_offline", 0)
        assert offline_events > 0
