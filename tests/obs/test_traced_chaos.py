"""Acceptance: a traced chaos run round-trips through JSONL.

The ISSUE's tentpole criteria: events written to JSONL, re-loaded, and
the reconstructed per-packet timelines / decoder-occupancy summary must
reproduce the run's ``outcome_counts`` exactly; two same-seed runs must
export byte-identical traces modulo the manifest's wall-clock fields.
"""

import json

import pytest

from repro.experiments import run_chaos
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.recorder import load_trace
from repro.obs.timeline import (
    decoder_occupancy,
    packet_timelines,
    summarize_trace,
    trace_outcome_counts,
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "chaos.jsonl"
    with observe(manifest={"experiment": "chaos", "seed": 0}) as session:
        metrics = run_chaos(seed=0, fast=True)
    session.recorder.write_jsonl(str(path))
    return metrics, session, load_trace(str(path))


class TestTracedChaosRoundTrip:
    def test_manifest_first(self, traced_run):
        _, _, events = traced_run
        assert events[0]["type"] == EventType.MANIFEST
        assert events[0]["experiment"] == "chaos"

    def test_outcome_counts_reproduced_exactly(self, traced_run):
        metrics, _, events = traced_run
        assert trace_outcome_counts(events) == dict(
            sorted(metrics["outcome_counts"].items())
        )

    def test_packet_timelines_reconstructed(self, traced_run):
        metrics, _, events = traced_run
        timelines = packet_timelines(events)
        # One reception event per packet per observing gateway; every
        # timeline ends in (or contains) a final reception record.
        assert len(timelines) > 0
        receptions = 0
        for timeline in timelines.values():
            types = [e["type"] for e in timeline]
            assert EventType.GW_RECEPTION in types
            receptions += types.count(EventType.GW_RECEPTION)
        assert receptions == sum(metrics["outcome_counts"].values())

    def test_decoder_occupancy_summary(self, traced_run):
        _, _, events = traced_run
        xs, series = decoder_occupancy(events, bucket_s=1.0)
        assert xs and series
        # Chaos runs one gateway (gw0); its pool never exceeds the
        # largest COTS decoder count.
        assert 0 < max(series["gw0"]) <= 32

    def test_summary_consistent(self, traced_run):
        metrics, _, events = traced_run
        summary = summarize_trace(events)
        assert summary["outcome_counts"] == trace_outcome_counts(events)
        assert summary["sim_runs"] >= 1
        assert summary["master_dropped"] == metrics["master_dropped_requests"]
        assert summary["gateway_reboots"].get("gw0", 0) >= 1

    def test_trace_events_under_wall_clock_ban(self, traced_run):
        _, _, events = traced_run
        # No wall-clock field survives the default export.
        for ev in events[1:]:
            assert not any(k.endswith("wall_s") for k in ev)

    def test_metrics_registry_mirrors_outcomes(self, traced_run):
        metrics, session, _ = traced_run
        snap = session.metrics.to_json()
        outcomes = {
            s["labels"]["outcome"]: s["value"]
            for s in snap["repro_outcomes_total"]["series"]
        }
        # The registry accumulates over every retransmission round, so
        # each final-count is a lower bound.
        for outcome, count in metrics["outcome_counts"].items():
            assert outcomes.get(outcome, 0) >= count


class TestDeterminism:
    def test_same_seed_byte_identical_modulo_manifest(self):
        blobs = []
        for _ in range(2):
            with observe(metrics=False) as session:
                run_chaos(seed=0, fast=True)
            blobs.append(session.recorder.canonical_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_differs(self):
        blobs = []
        for seed in (0, 1):
            with observe(metrics=False) as session:
                run_chaos(seed=seed, fast=True)
            blobs.append(session.recorder.canonical_bytes())
        assert blobs[0] != blobs[1]
