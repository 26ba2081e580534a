"""The repository benchmark: four workloads, host-time metrics, layer trace.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from any directory; the checkout is the parent of ``perfbench/``.
Each repetition runs in a fresh interpreter (``worker.py``), so no
module-level cache carries over between repetitions.  Repetitions start
until ``--seconds`` would be exceeded (at least one).  A workload whose
cost depends strongly on its input rotates its untraced repetitions
through ``inputs`` input seeds ``seed + INPUT_STRIDE * j``, so one run
measures several inputs instead of one.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
medians over the repetitions.  Their times are scaled to the reference
host speed by the worker's host-speed meter (``speed.py``).  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, derived from the
traced ones (medians of times; work counts must repeat exactly).  Each
traced repetition writes its spans to ``perfbench/out``.

Every repetition is checked: the workload's invariants, equal results
across repetitions, the pinned result when ``pins.json`` holds one for
the seed, and traced equal to untraced.  The last stdout line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
exit code is 1 when any check failed.  ``--workload all`` runs every
workload in both modes and prints every metric with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
MIN_SETUPS = 5          # set-up samples per run, topped up with set-up-only starts
INPUT_STRIDE = 1000     # input seed j of a run at seed S is S + INPUT_STRIDE * j
CHILD_TIMEOUT_S = 150


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def spawn(workload, seed, trace_out=None, setup_only=False):
    """Run one repetition in a fresh interpreter; returns its report."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"repetition exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


class Run:
    """Repetitions of one workload at one seed, with their checks."""

    def __init__(self, workload, seed, pins, inputs=1):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.pins = pins.get(workload, {})
        self.first = {}       # input seed -> first result digest
        self.reps = []        # untraced reports
        self.traced = []      # traced reports
        self.setups = []
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def add(self, report, seed, traced=False):
        """Check and keep one repetition's report (``seed``: its input seed)."""
        if "crashed" in report:
            self.errors.append(report["crashed"])
            self.attempted += 1
            self.failed += 1
            return False
        self.setups.append(report["setup_s"])
        if "wall_s" not in report:
            return True
        self.attempted += report["attempted"]
        failed = report["failed"]
        self.errors.extend(report["errors"])
        pin = self.pins.get(str(seed))
        reference = pin["digest"] if pin else self.first.setdefault(seed, report["digest"])
        if report["digest"] != reference:
            what = "pinned result" if pin else "first repetition"
            kind = "traced" if traced else "untraced"
            self.errors.append(f"input seed {seed}: {kind} result differs from the {what}")
            failed = report["attempted"]
        self.failed += failed
        (self.traced if traced else self.reps).append(report)
        return True

    def repeat(self, seconds, trace):
        """Start repetitions (pairs when tracing) until the time is spent."""
        start = time.monotonic()
        n = 0
        while True:
            # Traced pairs stay on the run's own seed: their work counts
            # must repeat exactly.
            seed = self.seed + INPUT_STRIDE * (0 if trace else n % self.inputs)
            ok = self.add(spawn(self.workload, seed), seed)
            if ok and trace:
                os.makedirs(OUT, exist_ok=True)
                out = os.path.join(OUT, f"{self.workload}-seed{seed}.trace.json")
                ok = self.add(spawn(self.workload, seed, trace_out=out), seed, traced=True)
            n += 1
            elapsed = time.monotonic() - start
            # Start another only if it would end within half a
            # repetition of the deadline: the count is seconds / per
            # repetition, rounded, and stays put under small jitter.
            if not ok or elapsed + 0.5 * elapsed / n > seconds:
                break
        while not trace and self.reps and len(self.setups) < MIN_SETUPS:
            if not self.add(spawn(self.workload, self.seed, setup_only=True), self.seed):
                break

    @property
    def correct(self):
        return self.failed == 0 and not self.errors and self.attempted > 0

    def end_to_end(self):
        reps = self.reps
        requests = [s for r in reps for s in r["request_s"]]
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "work_per_s": statistics.median(r["work"] / r["wall_s"] for r in reps),
            "request_p50_ms": statistics.median(requests) * 1e3,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }

    def per_layer(self, exact):
        layers = [r["layers"] for r in self.traced]
        out = {}
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if name in exact and len(set(values)) > 1:
                self.errors.append(f"{name} differs between traced runs: {values}")
                self.failed += 1
            out[name] = values[0] if name in exact else statistics.median(values)
        untraced = statistics.median(r["wall_s"] for r in self.reps)
        traced = statistics.median(r["wall_s"] for r in self.traced)
        out["bench.trace_overhead_frac"] = traced / untraced - 1.0
        return out


def measure(workload, seed, seconds, trace, bench, pins):
    """One benchmark run; returns (run, metrics named as in BENCHMARK.json)."""
    from workloads import WORKLOADS

    run = Run(workload, seed, pins, WORKLOADS[workload].inputs)
    run.repeat(seconds, trace)
    if not run.reps or (trace and not run.traced):
        return run, {}
    if trace:
        import layers

        values = run.per_layer(set(layers.EXACT))
        specs = bench["per_layer"]
    else:
        values = run.end_to_end()
        specs = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return run, metrics


def print_metrics(workload, seed, run, metrics):
    scales = [r["scale"] for r in run.reps + run.traced]
    print(f"# {workload} seed={seed}: {len(run.reps)} untraced + {len(run.traced)}"
          f" traced repetitions, {len(run.setups)} set-ups,"
          f" {run.attempted} operations, {run.failed} failed,"
          f" host-speed scale {statistics.median(scales) if scales else 0:.3f}")
    print("# wall_s (scale) per repetition: " + " ".join(
        f"{r['wall_s']:.3f} ({r['scale']:.2f})" for r in run.reps))
    print("# setup_s per start: " + " ".join(f"{s:.3f}" for s in run.setups))
    for name, m in metrics.items():
        print(f"{workload:15s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    for error in run.errors[:20]:
        print(f"CHECK FAILED {workload}: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load_json(os.path.join(HERE, "metrics.json"))
    pins = load_json(os.path.join(HERE, "pins.json"))
    seed = meta["default_seed"] if args.seed is None else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r} "
              f"(expected one of {sorted(WORKLOADS)} or all)", file=sys.stderr)
        return 2
    if args.workload != "all":
        run, metrics = measure(args.workload, seed, args.seconds, args.trace, bench, pins)
        print_metrics(args.workload, seed, run, metrics)
        print(json.dumps({"correct": run.correct and bool(metrics),
                          "attempted": max(run.attempted, 1),
                          "failed": run.failed if metrics else max(run.failed, 1),
                          "metrics": metrics}))
        return 0 if run.correct and metrics else 1
    summary = {}
    for name in names:
        for trace in (0, 1):
            run, metrics = measure(name, seed, args.seconds, trace, bench, pins)
            print_metrics(name, seed, run, metrics)
            entry = summary.setdefault(name, {"correct": True, "metrics": {}})
            entry["correct"] = entry["correct"] and run.correct and bool(metrics)
            entry["metrics"].update(metrics)
    correct = all(e["correct"] for e in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
