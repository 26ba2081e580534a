"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T
        [--trace-out FILE] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is shared by all processes), so
``setup_s`` counts interpreter start, imports and the workload's set-up.
A :class:`speed.Meter` runs from the start of ``main`` to the end of the
measured work.  ``setup_s``, ``wall_s`` and ``request_s`` are program
time (the meter's own time left out) multiplied by the scale of their
window, i.e. seconds at the reference host speed; ``raw_wall_s`` and
the scales are reported beside them.
Prints one JSON object on its last stdout line.  With ``--trace-out``
the run is traced: every layer boundary is wrapped, the spans are kept
in memory and written to FILE when the run ends, and the per-layer
metrics are included in the printed object.
"""

import time  # first: nothing before the imports below is timed twice

import argparse
import json
import logging
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from speed import Meter  # noqa: E402


def main(argv=None) -> int:
    meter = Meter().start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, digest

    # The chaos drill logs every dropped request; keep stderr quiet.
    logging.getLogger("repro").setLevel(logging.CRITICAL)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = clients = None
    workload.imports()
    if args.trace_out:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        clients = layers.install(tracer)
        workload.setup(tracer.span)
    else:
        workload.setup()
    setup_raw = time.monotonic() - args.spawned_at - meter.spent
    setup_scale = meter.scale(0)
    report = {"setup_s": setup_raw * setup_scale, "setup_scale": setup_scale}
    if args.setup_only:
        meter.stop()
        workload.teardown()
    else:
        window = meter.mark()
        t0 = meter.now()
        outcome = workload.execute(meter.now)
        raw_wall_s = meter.now() - t0
        scale = meter.scale(window)
        meter.stop()
        wall_s = raw_wall_s * scale
        if tracer is not None:
            report["layers"] = layers.derive(tracer, clients, scale, setup_scale)
            tracer.unwrap()
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "wall_s": wall_s, **tracer.to_json()}, fh)
        workload.finish(outcome)
        report.update(
            wall_s=wall_s,
            raw_wall_s=raw_wall_s,
            scale=scale,
            work=outcome.work,
            request_s=[r * scale for r in outcome.request_s],
            attempted=outcome.attempted,
            failed=outcome.failed,
            errors=outcome.errors,
            digest=digest(outcome.result),
            summary=summarize(outcome.result),
        )
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


def summarize(result):
    """The human-readable part of a result, stored next to its digest."""
    keys = ("offered", "delivered", "outcome_counts", "retransmissions", "final")
    if isinstance(result, dict):
        return {k: result[k] for k in keys if k in result}
    return [summarize(r) for r in result]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
