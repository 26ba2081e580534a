"""The complete COTS gateway reception model.

Chains the Appendix-C pipeline stages: RF front-end channel matching and
preamble detection (:mod:`.detector`), FCFS decoder dispatch
(:mod:`.dispatcher`, :mod:`.decoder`), payload decoding under
interference (:mod:`repro.phy.interference`), and finally the sync-word
network filter — which, crucially, runs *after* decoding, so foreign
packets consume decoder resources before being discarded.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, phase_timed
from ..phy.channels import Channel, overlap_hz
from ..phy.interference import Interferer, decode_ok
from ..phy.link import Position, noise_floor_dbm
from ..types import Observation, Transmission, time_overlap_s
from .decoder import DecoderPool
from .detector import Detection, RxChannels, detect
from .dispatcher import FcfsDispatcher
from .models import GatewayModel, get_model

__all__ = ["Outcome", "GatewayReception", "Gateway"]


def _obs_start_s(obs: Observation) -> float:
    """Sort key for the interference time index (hoisted: hot path)."""
    return obs.transmission.start_s


# One lane of the interference index: observations sharing a channel and
# an airtime, by start time, with their starts, their ranks in the
# interferer order, and the shared airtime.
_Lane = Tuple[List[Observation], List[float], List[int], float]


class _TimeIndex:
    """A gateway run's observations in lanes, grouped by channel.

    ``eligible`` caches, per desired channel (as centre and bandwidth),
    the lanes whose channel overlaps it in frequency.
    """

    __slots__ = ("channels", "eligible")

    def __init__(
        self, channels: Dict[Tuple[float, float], Tuple[Channel, Dict[float, _Lane]]]
    ) -> None:
        self.channels = channels
        self.eligible: Dict[Tuple[float, float], List[_Lane]] = {}

    def lanes_overlapping(self, channel: Channel) -> List[_Lane]:
        """Every lane whose channel shares spectrum with ``channel``."""
        lanes = [
            lane
            for other, by_airtime in self.channels.values()
            if overlap_hz(channel, other) > 0.0
            for lane in by_airtime.values()
        ]
        self.eligible[(channel.center_hz, channel.bandwidth_hz)] = lanes
        return lanes


class Outcome(Enum):
    """Fate of a packet at one gateway."""

    RECEIVED = "received"
    FILTERED_FOREIGN = "filtered_foreign"  # decoded, wrong sync word
    DECODE_FAILED = "decode_failed"        # collision / interference
    NO_DECODER = "no_decoder"              # dropped by the dispatcher
    BELOW_SENSITIVITY = "below_sensitivity"
    CHANNEL_MISMATCH = "channel_mismatch"  # front-end truncated
    GATEWAY_OFFLINE = "gateway_offline"    # radio dark (crash / reboot)
    BACKHAUL_LOST = "backhaul_lost"        # decoded, lost gateway->server


@dataclass(frozen=True)
class GatewayReception:
    """Per-packet reception record at one gateway."""

    gateway_id: int
    transmission: Transmission
    outcome: Outcome
    rx_channel: Optional[Channel] = None
    snr_db: Optional[float] = None
    lock_on_s: Optional[float] = None
    # Networks holding the decoders when this packet was rejected
    # (only for NO_DECODER outcomes): used to attribute contention.
    blocker_network_ids: Tuple[int, ...] = ()
    # Extra gateway->server latency from an injected backhaul fault
    # (only for RECEIVED outcomes under a FaultPlan).
    backhaul_delay_s: float = 0.0

    @property
    def received(self) -> bool:
        """Whether the packet was successfully delivered to the backhaul."""
        return self.outcome is Outcome.RECEIVED


class Gateway:
    """A LoRaWAN gateway: position, network, channel config, decoder pool.

    Args:
        gateway_id: Unique identifier.
        network_id: Operator network this gateway forwards for.
        position: Physical location (drives link budgets in the sim).
        model: Hardware model (decoder count, spectrum limits).
        channels: Operating receive channels; must respect the model's
            channel-count and spectrum-span limits.
        noise_figure_db: Receiver noise figure.
        collision_resilient: Model a CIC-style gateway (SIGCOMM'21) that
            resolves co-channel collisions in PHY processing — packets
            above the noise threshold decode despite interference.  The
            decoder-pool constraint still applies (the paper's fairness
            condition when comparing against CIC in section 5.2.1).
    """

    def __init__(
        self,
        gateway_id: int,
        network_id: int,
        position: Position,
        channels: Sequence[Channel],
        model: Optional[GatewayModel] = None,
        noise_figure_db: float = 6.0,
        collision_resilient: bool = False,
    ) -> None:
        self.gateway_id = gateway_id
        self.network_id = network_id
        self.position = position
        self.model = model or get_model()
        self.noise_figure_db = noise_figure_db
        self.collision_resilient = collision_resilient
        self._channels = RxChannels(())
        self.configure(channels)
        self.pool = DecoderPool(self.model.decoders)
        self.pool.trace_gateway_id = gateway_id
        self.reboots = 0

    @property
    def channels(self) -> RxChannels:
        """The configured receive channels (sorted by frequency).

        A tuple that also carries the gateway's channel-match table
        (:class:`~repro.gateway.detector.RxChannels`); ``configure``
        replaces it, table and all.
        """
        return self._channels

    def configure(self, channels: Sequence[Channel]) -> None:
        """Apply a new channel configuration (validated against hardware).

        Raises:
            ValueError: if the configuration exceeds the model's channel
                count or receive-spectrum span.
        """
        chans = tuple(sorted(channels))
        if not chans:
            raise ValueError("a gateway needs at least one receive channel")
        if len(chans) > self.model.max_channels:
            raise ValueError(
                f"{len(chans)} channels exceed the {self.model.name} limit "
                f"of {self.model.max_channels}"
            )
        span = chans[-1].high_hz - chans[0].low_hz
        if span > self.model.rx_spectrum_hz + 1.0:
            raise ValueError(
                f"channel span {span / 1e6:.2f} MHz exceeds the "
                f"{self.model.name} receive spectrum of "
                f"{self.model.rx_spectrum_hz / 1e6:.2f} MHz"
            )
        self._channels = RxChannels(chans)

    def reboot(self) -> None:
        """Reboot the gateway (clears the decoder pool); counted for latency."""
        self.pool.reset()
        self.reboots += 1
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_gateway_reboots_total",
                "gateway reboots (reconfigurations and crashes)",
                gateway=self.gateway_id,
            ).inc()

    # Frequency bucket width of the interferer order.  A packet's
    # interferers are reported bucket by bucket, ascending, and by start
    # time within a bucket: the order ``effective_noise_mw`` sums them in.
    _BUCKET_HZ = 200_000.0

    @classmethod
    def _build_time_index(cls, observations: Sequence[Observation]) -> _TimeIndex:
        """Index observations into lanes: one per channel and airtime.

        Each lane lists its observations by start time, so a lookup
        scans only the packets that start less than one lane airtime
        before the desired packet and before its end.  Every
        observation carries its rank in the interferer order, bucket
        then position in the bucket by start (ties in input order),
        as the one integer ``bucket * n + position``.
        """
        n = len(observations)
        bucket_hz = cls._BUCKET_HZ
        in_bucket: Dict[int, int] = {}
        channels: Dict[Tuple[float, float], Tuple[Channel, Dict[float, _Lane]]] = {}
        for obs in sorted(observations, key=_obs_start_s):
            tx = obs.transmission
            ch = tx.channel
            key = int(ch.center_hz // bucket_hz)
            pos = in_bucket.get(key, 0)
            in_bucket[key] = pos + 1
            group = channels.get((ch.center_hz, ch.bandwidth_hz))
            if group is None:
                group = channels[(ch.center_hz, ch.bandwidth_hz)] = (ch, {})
            lane = group[1].get(tx.airtime_s)
            if lane is None:
                lane = group[1][tx.airtime_s] = ([], [], [], tx.airtime_s)
            lane[0].append(obs)
            lane[1].append(tx.start_s)
            lane[2].append(key * n + pos)
        return _TimeIndex(channels)

    def _interferers_for(
        self, det: Detection, index: _TimeIndex
    ) -> List[Interferer]:
        """Concurrent transmissions adding energy into ``det``'s passband."""
        me = det.tx
        ch = me.channel
        lanes = index.eligible.get((ch.center_hz, ch.bandwidth_hz))
        if lanes is None:
            lanes = index.lanes_overlapping(ch)
        start_s = me.start_s
        end_s = me.end_s
        hits: List[Tuple[int, Interferer]] = []
        for ordered, starts, ranks, airtime_s in lanes:
            # A lane member overlaps only if it starts after
            # ``start_s - airtime_s`` and before ``end_s``.
            for i in range(
                bisect_left(starts, start_s - airtime_s), bisect_left(starts, end_s)
            ):
                obs = ordered[i]
                other = obs.transmission
                if other is me or time_overlap_s(me, other) <= 0.0:
                    continue
                hits.append(
                    (
                        ranks[i],
                        Interferer(
                            rssi_dbm=obs.rssi_dbm,
                            sf=other.sf,
                            channel=other.channel,
                            same_network=other.network_id == me.network_id,
                        ),
                    )
                )
        hits.sort()  # ranks are unique: Interferers are never compared
        return [hit for _, hit in hits]

    def receive(
        self, observations: Sequence[Observation]
    ) -> List[GatewayReception]:
        """Process a batch of concurrent/overlapping observations.

        The batch should contain *every* transmission audible at this
        gateway within the simulated window (including foreign-network
        and below-sensitivity ones): they all shape detection, decoder
        occupancy, and interference.

        Returns:
            One reception record per observation, in input order.
        """
        self.pool.reset()
        index = self._build_time_index(observations)
        detections: List[Detection] = []
        prelim: Dict[int, GatewayReception] = {}
        rec_trace = _obs.TRACE

        with phase_timed(Phase.DETECT, items=len(observations)):
            for idx, obs in enumerate(observations):
                tx = obs.transmission
                det = detect(
                    obs, self._channels, noise_figure_db=self.noise_figure_db
                )
                if det is not None:
                    detections.append(det)
                    prelim[idx] = None  # resolved by dispatch below
                    if rec_trace is not None:
                        rec_trace.emit(
                            EventType.GW_LOCK_ON,
                            t=det.lock_on_s,
                            gw=self.gateway_id,
                            net=tx.network_id,
                            node=tx.node_id,
                            ctr=tx.counter,
                            att=tx.attempt,
                            snr_db=det.snr_db,
                        )
                    continue
                if self._channels.match(tx.channel) is None:
                    outcome = Outcome.CHANNEL_MISMATCH
                else:
                    outcome = Outcome.BELOW_SENSITIVITY
                prelim[idx] = GatewayReception(
                    gateway_id=self.gateway_id,
                    transmission=tx,
                    outcome=outcome,
                )

        results_by_tx: Dict[tuple, GatewayReception] = {}
        dispatcher = FcfsDispatcher(self.pool)
        dispatched = dispatcher.dispatch(detections)
        with phase_timed(Phase.DECODE, items=len(dispatched)):
            for res in dispatched:
                det = res.detection
                tx = det.tx
                if not res.admitted:
                    record = GatewayReception(
                        gateway_id=self.gateway_id,
                        transmission=tx,
                        outcome=Outcome.NO_DECODER,
                        rx_channel=det.rx_channel,
                        snr_db=det.snr_db,
                        lock_on_s=det.lock_on_s,
                        blocker_network_ids=tuple(
                            lease.holder_network_id for lease in res.blockers
                        ),
                    )
                else:
                    noise = noise_floor_dbm(
                        tx.channel.bandwidth_hz, self.noise_figure_db
                    )
                    if self.collision_resilient:
                        # CIC-style PHY: interference is resolved, only
                        # the noise threshold matters (already checked
                        # at detection time).
                        ok = True
                    else:
                        ok = decode_ok(
                            det.observation.rssi_dbm,
                            noise,
                            tx.sf,
                            det.rx_channel,
                            self._interferers_for(det, index),
                        )
                    if not ok:
                        outcome = Outcome.DECODE_FAILED
                    elif tx.network_id != self.network_id:
                        outcome = Outcome.FILTERED_FOREIGN
                    else:
                        outcome = Outcome.RECEIVED
                    record = GatewayReception(
                        gateway_id=self.gateway_id,
                        transmission=tx,
                        outcome=outcome,
                        rx_channel=det.rx_channel,
                        snr_db=det.snr_db,
                        lock_on_s=det.lock_on_s,
                    )
                results_by_tx[self._tx_key(tx)] = record

        out: List[GatewayReception] = []
        metrics = _obs.METRICS
        with phase_timed(Phase.EMIT, items=len(observations)):
            for idx, obs in enumerate(observations):
                rec = prelim[idx]
                if rec is None:
                    rec = results_by_tx[self._tx_key(obs.transmission)]
                out.append(rec)
                tx = rec.transmission
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.GW_RECEPTION,
                        t=tx.start_s,
                        gw=self.gateway_id,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                        outcome=rec.outcome.value,
                    )
                if metrics is not None:
                    metrics.counter(
                        "repro_outcomes_total",
                        "per-gateway reception outcomes",
                        outcome=rec.outcome.value,
                    ).inc()
        return out

    @staticmethod
    def _tx_key(tx: Transmission) -> tuple:
        return (tx.network_id, tx.node_id, tx.counter, tx.start_s)

    def __repr__(self) -> str:
        freqs = ", ".join(f"{c.center_hz / 1e6:.4f}" for c in self._channels)
        return (
            f"Gateway(id={self.gateway_id}, net={self.network_id}, "
            f"model={self.model.name}, channels=[{freqs}] MHz)"
        )
