"""Confirmed-uplink retransmission over the online engine.

End-to-end delivery under faults: confirmed uplinks that fail to reach
their network server are re-sent with a LoRaWAN-style growing random
backoff (:class:`~repro.faults.retry.RetransmitPolicy`), until either a
copy is delivered, the retry budget runs out, or the retransmission
would fall outside the simulated window.

The driver iterates whole-window simulations: each round adds the
retransmissions scheduled after the previous round's failures and
re-evaluates — so re-sent packets contend for decoders and spectrum
exactly like first attempts (a retransmission storm after an outage is
itself a load spike, and the model captures that).  The final round's
:class:`~repro.sim.simulator.SimulationResult` is authoritative.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan, _stable_stream_seed
from ..faults.retry import RetransmitPolicy
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..types import Transmission
from .engine import OnlineSimulator, Reconfiguration
from .simulator import SimulationResult

logger = logging.getLogger(__name__)

# Retry-depth histogram edges: one bucket per attempt up to the default
# LoRaWAN confirmed-uplink budget.
_RETRY_BUCKETS = (0, 1, 2, 3, 4, 5, 6, 7, 8)

__all__ = ["ResilientResult", "run_with_retransmissions"]

FrameKey = Tuple[int, int, int]  # (network, node, counter)


@dataclass
class ResilientResult:
    """Outcome of a window simulated with confirmed-uplink retries."""

    result: SimulationResult
    rounds: int
    retransmissions: List[Transmission] = field(default_factory=list)

    def frames(self) -> Dict[FrameKey, List[Transmission]]:
        """All attempts of each confirmed frame, by frame key."""
        out: Dict[FrameKey, List[Transmission]] = {}
        for tx in self.result.transmissions:
            if tx.confirmed:
                out.setdefault(tx.key(), []).append(tx)
        for attempts in out.values():
            attempts.sort(key=lambda t: t.attempt)
        return out

    def delivery_counts(self) -> Dict[str, int]:
        """Confirmed-frame accounting over the final simulation.

        ``first_attempt`` frames delivered on attempt 0,
        ``after_retry`` frames recovered by a retransmission, and
        ``unrecovered`` frames never delivered.
        """
        first = after = lost = 0
        for attempts in self.frames().values():
            delivered = [
                tx.attempt for tx in attempts if self.result.delivered(tx)
            ]
            if not delivered:
                lost += 1
            elif min(delivered) == 0:
                first += 1
            else:
                after += 1
        return {
            "first_attempt": first,
            "after_retry": after,
            "unrecovered": lost,
        }


def _device_for(sim: OnlineSimulator, tx: Transmission):
    return sim.devices.get((tx.network_id, tx.node_id))


def run_with_retransmissions(
    sim: OnlineSimulator,
    transmissions: Sequence[Transmission],
    reconfigurations: Sequence[Reconfiguration] = (),
    fault_plan: Optional[FaultPlan] = None,
    policy: RetransmitPolicy = RetransmitPolicy(),
    window_s: Optional[float] = None,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> ResilientResult:
    """Simulate a window, re-sending failed confirmed uplinks.

    Args:
        sim: The online engine (its gateways/devices/link are used).
        transmissions: First-attempt traffic.
        reconfigurations: Gateway-side reconfiguration timeline.
        fault_plan: Injected faults, also seeding the backoff jitter.
        policy: Retransmission budget and backoff shape.
        window_s: Retransmissions starting after this instant are
            abandoned (device gives up at window end).  Defaults to the
            latest first-attempt end time.
        rng: Backoff jitter stream; defaults to the fault plan's
            ``"retransmit"`` sub-stream — or, without a plan, a stream
            derived from ``seed`` through the same stable hashing — so
            chaos and non-chaos runs stay independently reproducible
            from one scenario seed.
        seed: Scenario seed for the fallback backoff stream when
            neither ``rng`` nor ``fault_plan`` is given.

    Returns:
        A :class:`ResilientResult` whose ``result`` covers originals
        plus every retransmission actually sent.
    """
    if rng is None:
        if fault_plan is not None:
            rng = fault_plan.rng("retransmit")
        else:
            rng = random.Random(_stable_stream_seed(seed, "retransmit"))
    all_txs: List[Transmission] = list(transmissions)
    if window_s is None:
        window_s = max((tx.end_s for tx in all_txs), default=0.0)
    retransmissions: List[Transmission] = []
    # Frames that already exhausted their budget (or ran off-window).
    abandoned: set = set()
    rounds = 0
    result = sim.run_online(
        all_txs, reconfigurations, fault_plan=fault_plan
    )
    while rounds < policy.max_retries:
        rounds += 1
        # Latest attempt of each undelivered confirmed frame.
        latest: Dict[FrameKey, Transmission] = {}
        delivered_keys = set()
        for tx in result.transmissions:
            if not tx.confirmed:
                continue
            if result.delivered(tx):
                delivered_keys.add(tx.key())
                continue
            key = tx.key()
            prev = latest.get(key)
            if prev is None or tx.attempt > prev.attempt:
                latest[key] = tx
        fresh: List[Transmission] = []
        for key in sorted(latest):
            if key in delivered_keys or key in abandoned:
                continue
            tx = latest[key]
            if tx.attempt >= policy.max_retries:
                abandoned.add(key)
                continue
            device = _device_for(sim, tx)
            if device is None:
                abandoned.add(key)
                continue
            start_s = tx.end_s + policy.delay_s(tx.attempt + 1, rng)
            if start_s > window_s:
                abandoned.add(key)
                continue
            fresh.append(device.retransmit(tx, start_s))
        rec = _obs.TRACE
        if rec is not None:
            rec.emit(
                EventType.RETX_ROUND,
                round=rounds,
                fresh=len(fresh),
                abandoned=len(abandoned),
            )
        logger.debug(
            "retransmission round %d: %d fresh, %d abandoned",
            rounds,
            len(fresh),
            len(abandoned),
        )
        if not fresh:
            break
        retransmissions.extend(fresh)
        all_txs = sorted(all_txs + fresh, key=lambda t: t.start_s)
        result = sim.run_online(
            all_txs, reconfigurations, fault_plan=fault_plan
        )
    res = ResilientResult(
        result=result, rounds=rounds, retransmissions=retransmissions
    )
    metrics = _obs.METRICS
    if metrics is not None:
        depth = metrics.histogram(
            "repro_retry_depth",
            "attempts used per confirmed frame",
            buckets=_RETRY_BUCKETS,
        )
        for attempts in res.frames().values():
            depth.observe(max(tx.attempt for tx in attempts))
        metrics.counter(
            "repro_retransmissions_total",
            "confirmed-uplink retransmissions sent",
        ).inc(len(retransmissions))
    return res
