"""The benchmark's four workloads.

Each workload has three steps, timed separately by the worker:

* ``setup(span)`` — imports, spec parse/expand/``compile_run``, or for
  ``master-rpc`` the journal open, server start and client connect;
* ``execute(clock)`` — the measured work, returning a :class:`Outcome`;
  ``clock`` times each request (the worker passes its program clock);
* ``finish(outcome)`` — untimed teardown and post-run checks.

Inputs derive from the seed only.  A spec workload overrides the spec's
``seed``; every per-run, per-network and link seed derives from it.
``check`` holds the invariants that hold for *any* seed; results for
the pinned seeds are also compared with ``pins.json`` by the runner.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SpanFn = Callable[[str], ContextManager[Any]]
Clock = Callable[[], float]


def no_span(_name: str) -> ContextManager[Any]:
    return nullcontext()


def digest(value: Any) -> str:
    """SHA-256 of a value's canonical JSON (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one execution produced."""

    result: Any                 # deterministic, JSON-able
    work: int                   # work units completed (see metrics.json)
    request_s: List[float]      # host latency of each request
    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)


# -- spec workloads ----------------------------------------------------------


class SpecWorkload:
    """Runs selected sweep indices of a scenario spec."""

    name = ""
    spec_path = ""
    indices: Optional[List[int]] = None   # None: every run of the sweep
    # Input seeds a run rotates through (see run.py).  Four where the
    # cost of one input varies with its seed by more than the host noise.
    inputs = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.runs: List[Any] = []

    def imports(self) -> None:
        import repro.scenarios.compile  # noqa: F401  (executors, sim stack)
        import repro.experiments.chaos  # noqa: F401  (chaos executor)
        import repro.baselines.standard  # noqa: F401  (standard plans)

    def setup(self, span: SpanFn = no_span) -> None:
        from repro.scenarios import compile_run, load_spec

        with span("scenarios.compile"):
            spec = load_spec(os.path.join(ROOT, self.spec_path))
            spec.resolved["seed"] = self.seed
            spec.resolved["metrics"]["outcomes"] = True
            runs = spec.runs()
            if self.indices is not None:
                runs = [runs[i] for i in self.indices]
            self.runs = [compile_run(run) for run in runs]

    def execute(self, clock: Clock = time.perf_counter) -> Outcome:
        results: List[Dict[str, Any]] = []
        request_s: List[float] = []
        for run in self.runs:
            t0 = clock()
            results.append(run.execute())
            request_s.append(clock() - t0)
        work = sum(sum(r.get("outcome_counts", {}).values()) for r in results)
        return Outcome(
            result=results, work=work, request_s=request_s, attempted=len(results)
        )

    def finish(self, outcome: Outcome) -> None:
        for i, res in enumerate(outcome.result):
            errors = self.check(res)
            outcome.failed += bool(errors)
            outcome.errors.extend(f"run {i}: {e}" for e in errors)

    def teardown(self) -> None:
        """Nothing to release: a compiled run holds no resources."""

    def check(self, res: Dict[str, Any]) -> List[str]:
        errors: List[str] = []
        counts = res.get("outcome_counts") or {}
        offered, delivered = res["offered"], res.get("delivered")
        if offered <= 0 or sum(counts.values()) <= 0:
            errors.append("no traffic or no audible observations")
        if delivered is not None and not 0 <= delivered <= offered:
            errors.append(f"delivered {delivered} outside 0..{offered}")
        if delivered is not None and offered and res["prr"] != delivered / offered:
            errors.append("prr != delivered / offered")
        unknown = set(counts) - self.allowed_outcomes
        if unknown:
            errors.append(f"unexpected outcomes {sorted(unknown)}")
        return errors

    allowed_outcomes = {
        "received", "filtered_foreign", "decode_failed", "no_decoder",
        "below_sensitivity", "channel_mismatch",
    }


class Fig04Dense(SpecWorkload):
    name = "fig04-dense"
    spec_path = "scenarios/fig04.yaml"
    indices = [6]

    def check(self, res: Dict[str, Any]) -> List[str]:
        errors = super().check(res)
        if sum(row["delivered"] for row in res["networks"]) != res["delivered"]:
            errors.append("per-network delivered does not sum to delivered")
        return errors


class CoexistOnline(SpecWorkload):
    name = "coexist-online"
    spec_path = "perfbench/specs/coexist-online.yaml"
    indices = [0]
    inputs = 8   # about ten repetitions a run
    allowed_outcomes = SpecWorkload.allowed_outcomes | {
        "gateway_offline", "backhaul_lost",
    }

    def check(self, res: Dict[str, Any]) -> List[str]:
        errors = super().check(res)
        counts = res.get("outcome_counts") or {}
        if len(res["networks"]) != 4:
            errors.append("expected four networks")
        for key in ("filtered_foreign", "gateway_offline"):
            if counts.get(key, 0) <= 0:
                errors.append(f"no {key} outcomes: coexistence/faults not exercised")
        return errors


class PlanChaos(SpecWorkload):
    name = "plan-chaos"
    spec_path = "perfbench/specs/plan-chaos.yaml"
    indices = None
    allowed_outcomes = CoexistOnline.allowed_outcomes

    def check(self, res: Dict[str, Any]) -> List[str]:
        errors = super().check(res)
        expect = {
            "upgrade_degraded": True,
            "netserver_degraded_during_outage": True,
            "netserver_degraded_after_outage": False,
            "degraded_time_s": 30.0,
        }
        for key, value in expect.items():
            if res.get(key) != value:
                errors.append(f"{key} = {res.get(key)!r}, expected {value!r}")
        if res["master_dropped_requests"] <= 0 or res["client_retries"] <= 0:
            errors.append("the Master outage dropped no request")
        if not 0.0 < res["prr"] <= 1.0:
            errors.append(f"prr {res['prr']} outside (0, 1]")
        return errors


# -- master-rpc --------------------------------------------------------------


class MasterRpc:
    """Closed loop: one client, register -> status -> release, 4 operators.

    The Master journals every mutation into a directory under
    ``perfbench/out`` (inside the checkout) with ``fsync=False``: with
    fsync the loop timed the disk, not the program (on a 2-core VM,
    fsync was 60% of a cycle and wall time spread 20% between runs).
    """

    name = "master-rpc"
    cycles = 5000
    operators = 4
    inputs = 1   # the seed only names the operators

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        names = [f"op-{rng.getrandbits(32):08x}" for _ in range(self.operators)]
        self.sequence = [names[i % self.operators] for i in range(self.cycles)]
        self.tmpdir = ""

    def imports(self) -> None:
        import repro.core.master_client  # noqa: F401
        import repro.core.master_server  # noqa: F401

    def setup(self, span: SpanFn = no_span) -> None:
        from repro.core.journal import StateJournal
        from repro.core.master import MasterNode
        from repro.core.master_client import MasterClient
        from repro.core.master_server import MasterServer
        from repro.phy.regions import TESTBED_16

        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        self.tmpdir = os.path.join(out, f"master-{os.getpid()}")
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        os.makedirs(self.tmpdir)
        self.journal_path = os.path.join(self.tmpdir, "master.journal")
        self.journal = StateJournal(self.journal_path, fsync=False)
        self.node = MasterNode(TESTBED_16.grid(), expected_networks=4, journal=self.journal)
        self.server = MasterServer(self.node).start()
        self.client = MasterClient(self.server.address, retry_seed=self.seed).connect()

    def execute(self, clock: Clock = time.perf_counter) -> Outcome:
        from repro.core.protocol import assignment_to_wire

        client = self.client
        request_s: List[float] = []
        responses: List[Any] = []
        errors: List[str] = []
        failed = 0
        for op in self.sequence:
            for kind in ("register", "status", "release"):
                t0 = clock()
                try:
                    if kind == "status":
                        resp: Any = client.status()
                    else:
                        resp = getattr(client, kind)(op)
                except Exception as exc:  # a failed RPC is counted, not fatal
                    failed += 1
                    errors.append(f"{kind} {op}: {type(exc).__name__}: {exc}")
                    resp = None
                request_s.append(clock() - t0)
                responses.append(resp)
        wire = [
            assignment_to_wire(r) if i % 3 == 0 and r is not None else r
            for i, r in enumerate(responses)
        ]
        self.responses = responses
        return Outcome(
            result={"responses": digest(wire), "final": self.node.status()},
            work=len(request_s) - failed,
            request_s=request_s,
            attempted=len(request_s),
            failed=failed,
            errors=errors,
        )

    def _close(self) -> None:
        self.client.close()
        self.server.close()
        self.journal.close()

    def teardown(self) -> None:
        """Release what ``setup`` opened (set-up-only repetitions)."""
        self._close()
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    def finish(self, outcome: Outcome) -> None:
        from repro.core.journal import StateJournal
        from repro.core.master import MasterNode
        from repro.phy.regions import TESTBED_16

        self._close()
        errors = outcome.errors
        try:
            # Reference: the same operations on a plain in-process node.
            ref = MasterNode(TESTBED_16.grid(), expected_networks=4)
            bad = 0
            for i, op in enumerate(self.sequence):
                reg, status, rel = self.responses[3 * i: 3 * i + 3]
                want = ref.register(op)
                if reg != want or reg.channels() != want.channels():
                    bad += 1
                if status != ref.status():
                    bad += 1
                if rel is not True or ref.release(op) is not True:
                    bad += 1
            if bad:
                errors.append(f"{bad} responses differ from the reference Master")
                outcome.failed = max(outcome.failed, bad)
            records = StateJournal.replay(self.journal_path)
            ops = sum(1 for r in records if r.get("kind") == "op")
            if ops != 2 * self.cycles:
                errors.append(f"journal holds {ops} ops, expected {2 * self.cycles}")
            final = dict(outcome.result["final"])
            recovered = MasterNode.recover(self.journal_path, fsync=False)
            again = recovered.status()
            recovered.journal.close()
            final.pop("epoch"), again.pop("epoch")
            if again != final:
                errors.append("journal replay does not rebuild the final state")
        finally:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
        if errors and not outcome.failed:
            outcome.failed = 1


WORKLOADS = {
    cls.name: cls for cls in (Fig04Dense, CoexistOnline, PlanChaos, MasterRpc)
}
