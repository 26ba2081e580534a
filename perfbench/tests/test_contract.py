"""BENCHMARK.json, metrics.json and pins.json agree with each other."""

import json
import os
import re

from run import INPUT_STRIDE
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
# Per-repetition host seconds of the slowest workload, set-up included.
SLOWEST_REP_S = 7.0


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_benchmark_json_shape():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16
    for path in bench["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert all(len(arg) <= 200 for arg in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics + bench["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) < 64 * 1024


def test_workloads_match_the_harness():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    meta = load(os.path.join(BENCH, "metrics.json"))
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS) == list(meta["workloads"])
    assert sorted(meta["per_layer"]) == sorted(m["name"] for m in bench["per_layer"])
    assert sorted(meta["end_to_end"]) == sorted(m["name"] for m in bench["end_to_end"])
    moved = {tuple(t) for entry in meta["per_layer"].values() for t in entry["moves"]}
    e2e = set(meta["end_to_end"])
    assert all(metric in e2e and workload in names for metric, workload in moved)


def test_runs_fit_the_time_budget():
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    runs = 4 + 22 * len(bench["workloads"])
    # A run may overshoot by half a repetition, plus set-up-only starts.
    per_run = bench["run_seconds"] + SLOWEST_REP_S / 2 + 1.5
    assert runs * per_run < 3420 * 0.9


def test_default_and_heldout_seeds_are_pinned():
    meta = load(os.path.join(BENCH, "metrics.json"))
    pins = load(os.path.join(BENCH, "pins.json"))
    assert sorted(pins) == sorted(WORKLOADS)
    for workload, by_seed in pins.items():
        for seed in (meta["default_seed"], meta["heldout_seed"]):
            for j in range(WORKLOADS[workload].inputs):
                entry = by_seed[str(seed + INPUT_STRIDE * j)]
                assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"]), workload
