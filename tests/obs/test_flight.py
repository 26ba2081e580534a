"""Tests for the bounded flight recorder (fault black box)."""

import json
import os

from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.flight import DEFAULT_TRIGGERS, FLIGHT_CAPACITY, FlightRecorder


class TestRing:
    def test_ring_is_bounded(self):
        fr = FlightRecorder(capacity=4, triggers=())
        for i in range(10):
            fr.observe_event(EventType.GW_LOCK_ON, float(i), {"i": i})
        assert len(fr) == 4
        assert [e["i"] for e in fr.snapshot()] == [6, 7, 8, 9]

    def test_snapshot_strips_wall_fields(self):
        fr = FlightRecorder(capacity=4, triggers=())
        fr.observe_event(
            EventType.GA_GENERATION, None, {"gen": 1, "gen_wall_s": 0.5}
        )
        (ev,) = fr.snapshot()
        assert ev == {"type": "ga.generation", "gen": 1}

    def test_default_triggers_cover_master_faults(self):
        assert EventType.MASTER_CRASH in DEFAULT_TRIGGERS
        assert EventType.MASTER_READONLY in DEFAULT_TRIGGERS
        assert EventType.MASTER_UNAVAILABLE in DEFAULT_TRIGGERS
        assert FLIGHT_CAPACITY >= 64


class TestDump:
    def test_trigger_event_dumps_ring(self, tmp_path):
        fr = FlightRecorder(capacity=8, out_dir=str(tmp_path))
        fr.observe_event(EventType.GW_RECEPTION, 1.0, {"gw": 0})
        fr.observe_event(EventType.MASTER_CRASH, None, {"req": "renew"})
        assert len(fr.dumps) == 1
        path = fr.dumps[0]
        assert os.path.basename(path) == "flight-%d.jsonl" % os.getpid()
        rows = [json.loads(l) for l in open(path)]
        assert rows[0]["type"] == "flight"
        assert rows[0]["reason"] == EventType.MASTER_CRASH
        assert rows[0]["events"] == 2
        assert [r["type"] for r in rows[1:]] == [
            "gw.reception",
            "master.crash",
        ]

    def test_repeat_dumps_overwrite_latest_wins(self, tmp_path):
        fr = FlightRecorder(capacity=2, out_dir=str(tmp_path), triggers=())
        fr.observe_event(EventType.GW_RECEPTION, 1.0, {"gw": 0})
        first = fr.dump(reason="one")
        fr.observe_event(EventType.GW_RECEPTION, 2.0, {"gw": 1})
        second = fr.dump(reason="two")
        assert first == second
        assert fr.dumps == [first]
        rows = [json.loads(l) for l in open(second)]
        assert rows[0]["reason"] == "two"

    def test_empty_ring_dump_is_noop(self, tmp_path):
        fr = FlightRecorder(out_dir=str(tmp_path))
        assert fr.dump() is None
        assert os.listdir(str(tmp_path)) == []

    def test_write_failure_never_raises(self, tmp_path):
        fr = FlightRecorder(out_dir=str(tmp_path / "missing" / "dir"))
        fr.observe_event(EventType.GW_RECEPTION, 1.0, {})
        assert fr.dump() is None
        assert fr.dumps == []


class TestSessionWiring:
    def test_observe_flight_true_attaches_black_box(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # default out_dir is cwd
        with observe(trace=False, metrics=False, flight=True) as s:
            assert s.flight is not None
            # trace=False still yields a count-only recorder carrying
            # the bus the black box listens on.
            assert s.recorder is not None
            s.recorder.emit(EventType.GW_RECEPTION, t=1.0, gw=0)
            assert len(s.flight) == 1

    def test_observe_accepts_prebuilt_recorder(self, tmp_path):
        fr = FlightRecorder(capacity=16, out_dir=str(tmp_path))
        with observe(trace=True, metrics=False, flight=fr) as s:
            assert s.flight is fr
            s.recorder.emit(EventType.MASTER_UNAVAILABLE, req="renew")
        assert fr.dumps, "trigger event must dump through the session bus"
