"""Acceptance: the health observatory watches the chaos scenario.

ISSUE criteria: every injected fault must fire its alert rule inside
the fault window (gateway crash -> ``gateway_offline``, backhaul fault
-> ``backhaul_loss``, Master outage -> ``master_unreachable``), the
``/healthz`` endpoint must flip away from ``ok`` while the crash alert
is live, and a trace replay must reconstruct the same health verdict
offline.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.experiments import run_chaos
from repro.experiments.chaos import CRASH_DOWN_S, CRASH_S, WINDOW_S
from repro.obs import observe
from repro.obs.health import HealthMonitor
from repro.obs.httpexport import HealthHTTPExporter
from repro.obs.recorder import load_trace


@pytest.fixture(scope="module")
def chaos_health(tmp_path_factory):
    path = tmp_path_factory.mktemp("health") / "chaos.jsonl"
    with observe(
        manifest={"experiment": "chaos", "seed": 0}, health=True
    ) as session:
        metrics = run_chaos(seed=0, fast=True)
    session.recorder.write_jsonl(str(path))
    return metrics, session.health, load_trace(str(path))


def _alerts_by_rule(alerts):
    out = {}
    for alert in alerts:
        out.setdefault(alert["rule"], []).append(alert)
    return out


class TestChaosAlerts:
    def test_every_fault_fires_its_rule(self, chaos_health):
        metrics, _, _ = chaos_health
        rules = _alerts_by_rule(metrics["alerts"])
        assert "gateway_offline" in rules
        assert "backhaul_loss" in rules
        assert "master_unreachable" in rules

    def test_crash_alert_fires_inside_the_fault_window(self, chaos_health):
        metrics, _, _ = chaos_health
        (crash,) = _alerts_by_rule(metrics["alerts"])["gateway_offline"]
        assert crash["severity"] == "critical"
        assert CRASH_S <= crash["fired_s"] <= CRASH_S + CRASH_DOWN_S
        # The outage heals once the EWMA decays after the reboot window.
        assert crash["resolved_s"] is not None
        assert CRASH_S + CRASH_DOWN_S <= crash["resolved_s"] <= WINDOW_S

    def test_backhaul_alert_fires_inside_its_window(self, chaos_health):
        metrics, _, _ = chaos_health
        alerts = _alerts_by_rule(metrics["alerts"])["backhaul_loss"]
        assert any(
            CRASH_S <= a["fired_s"] <= CRASH_S + CRASH_DOWN_S for a in alerts
        )

    def test_run_result_embeds_health_verdict(self, chaos_health):
        metrics, _, _ = chaos_health
        assert metrics["health"]["status"] in ("degraded", "critical")
        assert metrics["health"]["gateways"]
        assert metrics["health"]["alerts_total"] == len(metrics["alerts"])

    def test_result_is_json_serializable(self, chaos_health):
        metrics, _, _ = chaos_health
        json.dumps(metrics["health"])
        json.dumps(metrics["alerts"])

    def test_same_seed_reproduces_alert_timeline(self):
        with observe(trace=False, metrics=False, health=True):
            again = run_chaos(seed=0, fast=True)
        with observe(trace=False, metrics=False, health=True):
            baseline = run_chaos(seed=0, fast=True)
        assert again["alerts"] == baseline["alerts"]


class TestHealthzFlip:
    def test_healthz_not_ok_after_crash(self, chaos_health):
        _, monitor, _ = chaos_health
        with HealthHTTPExporter(monitor=monitor) as exporter:
            try:
                with urllib.request.urlopen(
                    exporter.url + "/healthz", timeout=5.0
                ) as resp:
                    status, body = resp.status, resp.read().decode()
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read().decode()
        assert status == 503
        assert json.loads(body)["status"] != "ok"


class TestTraceReplay:
    def test_replay_reconstructs_live_alerts(self, chaos_health):
        _, monitor, events = chaos_health
        replayed = HealthMonitor().replay(events)
        assert [a["rule"] for a in replayed.alerts()] == [
            a["rule"] for a in monitor.alerts()
        ]
        assert replayed.healthz()["status"] == monitor.healthz()["status"]

    def test_partial_replay_mid_crash_is_not_ok(self, chaos_health):
        _, _, events = chaos_health
        partial = [
            ev
            for ev in events
            if not isinstance(ev.get("t"), (int, float))
            or ev["t"] <= CRASH_S + 5.0
        ]
        monitor = HealthMonitor().replay(partial)
        assert monitor.healthz()["status"] != "ok"
        assert any(
            a["rule"] == "gateway_offline" and a["active"]
            for a in monitor.alerts()
        )
