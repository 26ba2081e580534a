"""Benchmark: campaign runner overhead vs direct scenario invocation.

Times a 4-run load sweep as a plain loop over
:func:`repro.scenarios.compile.execute_run` (what a hand-written script
would do) and through :func:`repro.campaign.run_campaign` (which adds
manifests, atomic result writes, and the index), five times each,
interleaved.  The campaign layer must cost < 5 % on top of the
simulations it orchestrates, median against median; the trajectory
lands in ``BENCH_campaign.json``.
"""

import shutil
import statistics
import tempfile
import time

from repro.campaign import run_campaign
from repro.obs import observe
from repro.scenarios import parse_spec
from repro.scenarios.compile import execute_run

from bench_utils import report, run_once

SPEC = """\
meta: {name: bench-campaign}
run: {kind: load, seed_stride: 1}
area: {preset: testbed}
networks:
  count: 2
  gateways: 3
  devices: 60
  seed_stride: 17
  gateway_id_stride: 100
  node_id_stride: 10000
assignment:
  kind: standard
  tier: {enabled: true, spread: true}
traffic:
  kind: poisson
  users: 1500
  mean_interval_s: 35.0
  window_s: 10.0
  seed_stride: 31
link: {kind: urban}
sweep:
  traffic.users: [600, 1000, 1400, 1800]
"""


# Direct and campaign legs alternate (and alternate which goes first),
# and the gate compares their medians: one timing of each leg is at the
# mercy of host-speed noise larger than the 5 % budget.
LEGS = 5


def _spec():
    return parse_spec(SPEC, "bench-campaign.yaml")


def _observed(fn, **kwargs):
    """Run ``fn`` in the count-only session ``run_once`` uses."""
    with observe(trace=True, metrics=False, spans=False) as session:
        session.recorder.max_events = 0
        return fn(**kwargs)


def _direct_leg(runs):
    """Direct invocation: the compiled runs, no store, no manifests."""
    t0 = time.perf_counter()
    direct = _observed(lambda: [execute_run(run) for run in runs])
    return time.perf_counter() - t0, direct


def _campaign_leg(spec, benchmark=None):
    """The same runs through the campaign runner; with ``benchmark``,
    timed through ``run_once`` so the trajectory gets its record."""
    out_dir = tempfile.mkdtemp(prefix="bench-campaign-")
    try:
        t0 = time.perf_counter()
        if benchmark is None:
            summary = _observed(run_campaign, spec=spec, out_dir=out_dir, jobs=1)
        else:
            summary = run_once(
                benchmark, run_campaign, spec=spec, out_dir=out_dir, jobs=1
            )
        return time.perf_counter() - t0, summary
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def test_campaign_overhead_vs_direct(benchmark):
    spec = _spec()
    runs = spec.runs()

    direct_times, campaign_times = [], []
    for leg in range(LEGS):
        last = leg == LEGS - 1
        if leg % 2:
            campaign_s, summary = _campaign_leg(spec, benchmark if last else None)
            direct_s, direct = _direct_leg(runs)
        else:
            direct_s, direct = _direct_leg(runs)
            campaign_s, summary = _campaign_leg(spec, benchmark if last else None)
        assert len(summary["executed"]) == len(runs)
        direct_times.append(direct_s)
        campaign_times.append(campaign_s)

    direct_s = statistics.median(direct_times)
    campaign_s = statistics.median(campaign_times)
    overhead = (campaign_s - direct_s) / direct_s
    report(
        "Campaign: 4-run sweep, runner overhead vs direct invocation",
        {
            "runs": len(runs),
            "offered_per_run": [r["offered"] for r in direct],
            "legs": LEGS,
            "direct_s": [round(t, 3) for t in direct_times],
            "campaign_s": [round(t, 3) for t in campaign_times],
            "overhead_frac": round(overhead, 4),
            "executed": len(summary["executed"]),
        },
    )
    assert overhead < 0.05
