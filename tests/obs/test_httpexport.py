"""Tests for the zero-dependency health/metrics HTTP exporter."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.master import MasterNode
from repro.core.master_server import MasterServer
from repro.netserver.server import NetworkServer
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.health import HealthMonitor
from repro.obs.httpexport import HealthHTTPExporter
from repro.obs.metrics import MetricsRegistry
from repro.phy.regions import TESTBED_16


def _get(url):
    """(status, body) for a GET, including HTTP-error statuses."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestEndpoints:
    def test_metrics_merges_registry_and_monitor(self):
        reg = MetricsRegistry()
        reg.counter("repro_outcomes_total", outcome="received").inc(3)
        monitor = HealthMonitor()
        monitor.observe_event(
            EventType.DECODER_GRANT, 1.0, {"gw": 0, "dec": 0, "until": 2.0}
        )
        with HealthHTTPExporter(metrics=reg, monitor=monitor) as exporter:
            status, body = _get(exporter.url + "/metrics")
        assert status == 200
        assert 'repro_outcomes_total{outcome="received"} 3' in body
        assert 'repro_health_score{gateway="0"}' in body

    def test_metrics_includes_attached_perf_probe(self):
        from repro.obs.perf import PerfProbe

        probe = PerfProbe()
        with HealthHTTPExporter(metrics=MetricsRegistry()) as exporter:
            with probe.attach():
                probe.count("gw.detect", 7)
                status, body = _get(exporter.url + "/metrics")
            _, body_after = _get(exporter.url + "/metrics")
        assert status == 200
        assert "repro_perf_events_total 7.0" in body
        assert 'repro_perf_phase_items_total{phase="gw.detect"} 7.0' in body
        # Detached probe: the gauges disappear with it.
        assert "repro_perf_events_total" not in body_after

    def test_healthz_ok_while_healthy(self):
        with HealthHTTPExporter(monitor=HealthMonitor()) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_healthz_flips_to_503_on_critical_alert(self):
        monitor = HealthMonitor()
        monitor.observe_event(
            EventType.GW_REBOOT,
            30.0,
            {"gw": 0, "outage": 8.0, "reason": "crash"},
        )
        with HealthHTTPExporter(monitor=monitor) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "critical"
        assert payload["active_alerts"] >= 1

    def test_alerts_endpoint_lists_fired_rules(self):
        monitor = HealthMonitor()
        monitor.observe_event(EventType.MASTER_DROPPED, None, {"req": "x"})
        with HealthHTTPExporter(monitor=monitor) as exporter:
            status, body = _get(exporter.url + "/alerts")
        assert status == 200
        rules = [a["rule"] for a in json.loads(body)["alerts"]]
        assert "master_unreachable" in rules

    def test_unknown_path_is_404(self):
        with HealthHTTPExporter(monitor=HealthMonitor()) as exporter:
            status, _ = _get(exporter.url + "/nope")
        assert status == 404

    def test_falls_back_to_active_session(self):
        with HealthHTTPExporter() as exporter:
            with observe(trace=False, health=True) as session:
                session.metrics.counter("live_total").inc()
                session.recorder.emit(EventType.GW_LOCK_ON, t=1.0, gw=0)
                _, metrics_body = _get(exporter.url + "/metrics")
                _, healthz_body = _get(exporter.url + "/healthz")
            # Session over: the exporter sees no registry/monitor at all.
            _, after = _get(exporter.url + "/metrics")
        assert "live_total 1" in metrics_body
        assert json.loads(healthz_body)["gateways"]
        assert after == ""

    def test_degraded_health_source_downgrades_status(self):
        sources = {"master": lambda: {"degraded": True, "phase": "outage"}}
        with HealthHTTPExporter(
            monitor=HealthMonitor(), health_sources=sources
        ) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["sources"]["master"]["phase"] == "outage"

    def test_benign_source_status_string_stays_ok(self):
        # Informational status strings ("running", "idle", ...) must
        # not flip /healthz to 503; only explicit negative signals do.
        sources = {"master": lambda: {"status": "running", "uptime_s": 5}}
        with HealthHTTPExporter(
            monitor=HealthMonitor(), health_sources=sources
        ) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("bad", ["degraded", "critical", "error"])
    def test_negative_source_status_downgrades(self, bad):
        sources = {"master": lambda: {"status": bad}}
        with HealthHTTPExporter(
            monitor=HealthMonitor(), health_sources=sources
        ) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_crashing_health_source_reports_error(self):
        def boom():
            raise RuntimeError("snapshot failed")

        with HealthHTTPExporter(
            monitor=HealthMonitor(), health_sources={"bad": boom}
        ) as exporter:
            status, body = _get(exporter.url + "/healthz")
        assert status == 503
        assert json.loads(body)["sources"]["bad"]["status"] == "error"


class TestComponentAttachment:
    def test_master_server_exposes_status(self):
        master = MasterNode(TESTBED_16.grid(), expected_networks=1)
        with MasterServer(master) as server:
            exporter = server.attach_exporter()
            assert server.attach_exporter() is exporter  # idempotent
            status, body = _get(exporter.url + "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["sources"]["master"]["dropped_requests"] == 0
        # Closing the server also closes the exporter.
        with pytest.raises(OSError):
            urllib.request.urlopen(exporter.url + "/healthz", timeout=0.5)

    def test_netserver_degraded_flips_healthz(self):
        server = NetworkServer(1)
        exporter = server.attach_exporter()
        try:
            status, _ = _get(exporter.url + "/healthz")
            assert status == 200
            server.degraded = True
            status, body = _get(exporter.url + "/healthz")
            assert status == 503
            source = json.loads(body)["sources"]["netserver"]
            assert source["degraded"] is True
        finally:
            server.close_exporter()
        assert server._exporter is None
