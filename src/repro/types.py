"""Shared core types: transmissions and per-gateway observations.

These types sit below every other package: nodes emit
:class:`Transmission` objects, the simulation medium turns them into
per-gateway :class:`Observation` objects (attaching link RSSI/SNR), and
the gateway pipeline consumes observations to produce receptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .phy.channels import Channel
from .phy.lora import (
    LoRaParams,
    SpreadingFactor,
    preamble_duration_s,
    time_on_air_s,
)

__all__ = ["Transmission", "Observation", "time_overlap_s"]


@dataclass(frozen=True)
class Transmission:
    """One uplink packet on the air.

    Attributes:
        node_id: Identifier of the transmitting end node.
        network_id: Operator/network the node belongs to (the LoRaWAN
            sync word distinguishes networks but is only readable *after*
            decoding — the root of inter-network decoder contention).
        channel: Transmit channel.
        sf: Spreading factor.
        start_s: Transmission start time (leading preamble symbol).
        payload_bytes: MAC payload length.
        tx_power_dbm: Transmit power.
        counter: Uplink frame counter (for dedup at the network server).
        confirmed: Whether the uplink requests an acknowledgement (and
            so is retransmitted when none arrives).
        attempt: Retransmission index — 0 for the original send, 1+ for
            re-sends of the same frame counter.
        airtime_s: Total time-on-air of the packet (derived).
        preamble_s: Preamble duration; the decoder locks on at its end
            (derived).
        lock_on_s: The instant a gateway channel locks onto this packet,
            the FCFS key (derived).
        end_s: Transmission end time (derived).
    """

    node_id: int
    network_id: int
    channel: Channel
    sf: SpreadingFactor
    start_s: float
    payload_bytes: int = 10
    tx_power_dbm: float = 14.0
    counter: int = 0
    confirmed: bool = False
    attempt: int = 0
    # Timing derived once in __post_init__ (the reception pipeline reads
    # it per packet per gateway); excluded from eq, hash and repr, and
    # recomputed by ``dataclasses.replace``.
    airtime_s: float = field(init=False, compare=False, repr=False)
    preamble_s: float = field(init=False, compare=False, repr=False)
    lock_on_s: float = field(init=False, compare=False, repr=False)
    end_s: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        bandwidth_hz = int(self.channel.bandwidth_hz)
        airtime_s = time_on_air_s(self.payload_bytes, self.sf, bandwidth_hz)
        preamble_s = preamble_duration_s(self.sf, bandwidth_hz)
        object.__setattr__(self, "airtime_s", airtime_s)
        object.__setattr__(self, "preamble_s", preamble_s)
        object.__setattr__(self, "lock_on_s", self.start_s + preamble_s)
        object.__setattr__(self, "end_s", self.start_s + airtime_s)

    @property
    def params(self) -> LoRaParams:
        """The PHY parameter set of this transmission."""
        return LoRaParams(sf=self.sf, bandwidth_hz=int(self.channel.bandwidth_hz))

    def key(self) -> tuple:
        """Dedup key used by the network server."""
        return (self.network_id, self.node_id, self.counter)


@dataclass(frozen=True)
class Observation:
    """A transmission as seen at one gateway's antenna port.

    The medium (or a test) computes ``rssi_dbm`` from the link budget;
    the gateway pipeline handles everything downstream of the antenna.
    """

    transmission: Transmission
    rssi_dbm: float

    @property
    def tx(self) -> Transmission:
        """Shorthand for the underlying transmission."""
        return self.transmission


def time_overlap_s(a: Transmission, b: Transmission) -> float:
    """Length of the time interval during which two packets are both on air."""
    return max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
