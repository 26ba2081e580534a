"""The runner: result line, checks, and refusal without the program."""

import json
import os
import shutil
import subprocess
import sys

import run as runner

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def report(digest, failed=0, errors=()):
    return {"setup_s": 0.5, "wall_s": 1.0, "work": 10, "request_s": [1.0],
            "attempted": 2, "failed": failed, "errors": list(errors),
            "digest": digest, "rss_mb": 40.0}


def test_results_must_match_the_pin_and_each_other():
    pins = {"w": {"1": {"digest": "aa"}}}
    pinned = runner.Run("w", 1, pins)
    pinned.add(report("aa"), 1)
    assert pinned.correct
    pinned.add(report("bb"), 1)
    assert not pinned.correct and pinned.failed == 2

    free = runner.Run("w", 2, pins, inputs=2)
    free.add(report("cc"), 2)
    free.add(report("cc"), 2, traced=True)
    free.add(report("ee"), 1002)          # another input, another result
    free.add(report("ee"), 1002)
    assert free.correct
    free.add(report("dd"), 2, traced=True)
    assert not free.correct


def test_crash_and_invariant_failures_count():
    r = runner.Run("w", 0, {})
    r.add(report("x", failed=1, errors=["run 0: bad"]), 0)
    assert (r.attempted, r.failed, r.correct) == (2, 1, False)
    r.add({"crashed": "exit 1"}, 0)
    assert (r.attempted, r.failed) == (3, 2)


def test_master_rpc_end_to_end():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "master-rpc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(line["metrics"]) == names
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig04-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
