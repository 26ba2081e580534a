"""Record the pinned results the benchmark checks against.

    python3 perfbench/pin.py [--seeds 0-15,101] [--workloads a,b]

Runs each workload (default: all) once per input seed of each run seed,
untraced in a fresh interpreter, and writes each result's digest and
summary into ``perfbench/pins.json``; pins of other workloads are kept.
Re-pin only when a change is meant to alter simulated results, and say
so where the change is described: a pin that moves is a behaviour
change, never a speed-up.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import INPUT_STRIDE, spawn  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15,101")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    tasks = [
        (w, seed + INPUT_STRIDE * j)
        for w in names
        for seed in parse_seeds(args.seeds)
        for j in range(WORKLOADS[w].inputs)
    ]
    with ThreadPoolExecutor(2) as pool:   # one repetition per core
        reports = list(pool.map(lambda task: spawn(*task), tasks))
    path = os.path.join(HERE, "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    for name in names:
        pins[name] = {}
    for (workload, seed), report in zip(tasks, reports):
        if "crashed" in report or report["failed"] or report["errors"]:
            print(f"{workload} seed {seed}: not pinned: "
                  f"{report.get('crashed') or report['errors']}", file=sys.stderr)
            return 1
        pins[workload][str(seed)] = {
            "digest": report["digest"], "summary": report["summary"],
        }
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(tasks)} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
