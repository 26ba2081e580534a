"""Packet detection: front-end channel matching and preamble lock-on.

The first stage of the Appendix-C reception pipeline.  A packet enters
the decode pipeline only if (1) a configured receive channel is aligned
with its carrier — the radio's *frequency selectivity* truncates
misaligned signals — and (2) the preamble is strong enough to detect.
Only packets passing both gates ever contend for decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..phy.channels import Channel, overlap_ratio
from ..phy.interference import DETECTION_MIN_OVERLAP
from ..phy.link import noise_floor_dbm
from ..phy.lora import SNR_THRESHOLD_DB
from ..types import Observation, Transmission

__all__ = ["Detection", "match_rx_channel", "detect"]


@dataclass(frozen=True)
class Detection:
    """A packet that passed front-end matching and preamble detection."""

    observation: Observation
    rx_channel: Channel
    lock_on_s: float
    snr_db: float

    @property
    def tx(self) -> Transmission:
        """The underlying transmission."""
        return self.observation.transmission


def match_rx_channel(
    packet_channel: Channel,
    rx_channels: Sequence[Channel],
    min_overlap: float = DETECTION_MIN_OVERLAP,
) -> Optional[Channel]:
    """Find the receive channel (if any) that passes this packet.

    Returns the configured channel with the highest spectral overlap,
    provided the overlap reaches ``min_overlap``; otherwise ``None`` —
    the front-end truncates the signal and the packet is invisible to
    the rest of the pipeline.
    """
    best: Optional[Channel] = None
    best_overlap = 0.0
    for rx in rx_channels:
        ov = overlap_ratio(packet_channel, rx)
        if ov > best_overlap:
            best, best_overlap = rx, ov
    if best is not None and best_overlap >= min_overlap:
        return best
    return None


class RxChannels(Tuple[Channel, ...]):
    """A gateway's receive channels together with their channel-match table.

    Equal to, and hashed and printed like, the plain tuple of channels.
    :attr:`table` maps each packet channel seen so far to its
    :func:`match_rx_channel` answer at the default ``min_overlap``;
    :meth:`match` fills it on a miss, so matching stays in one function.
    The table belongs to these channels only: a reconfiguration builds a
    new instance (``Gateway.configure``), so a stale answer cannot
    survive it.  Kept out of ``__all__``: it is the gateway's internal
    representation of its configuration.
    """

    table: Dict[Channel, Optional[Channel]]

    def __new__(cls, channels: Iterable[Channel]) -> "RxChannels":
        self = super().__new__(cls, channels)
        self.table = {}
        return self

    def match(self, packet_channel: Channel) -> Optional[Channel]:
        """The receive channel that passes ``packet_channel``, memoised."""
        try:
            return self.table[packet_channel]
        except KeyError:
            rx = match_rx_channel(packet_channel, self)
            self.table[packet_channel] = rx
            return rx


def detect(
    observation: Observation,
    rx_channels: Sequence[Channel],
    noise_figure_db: float = 6.0,
    min_overlap: float = DETECTION_MIN_OVERLAP,
) -> Optional[Detection]:
    """Run front-end matching and preamble detection for one packet.

    Detection is SNR-gated against the spreading factor's demodulation
    threshold (noise only): the paper's section 3.1 shows the gateway
    treats every detectable packet identically regardless of SNR level
    or channel crowdedness, so no prioritization happens here.

    A gateway passes its :class:`RxChannels`, whose match table then
    answers the front-end match instead of re-matching.

    Returns:
        A :class:`Detection` with the lock-on timestamp, or ``None`` if
        the packet cannot be seen by this gateway at all.
    """
    tx = observation.transmission
    if isinstance(rx_channels, RxChannels) and min_overlap == DETECTION_MIN_OVERLAP:
        rx_channel = rx_channels.match(tx.channel)
    else:
        rx_channel = match_rx_channel(tx.channel, rx_channels, min_overlap)
    if rx_channel is None:
        return None
    noise = noise_floor_dbm(tx.channel.bandwidth_hz, noise_figure_db)
    snr = observation.rssi_dbm - noise
    if snr < SNR_THRESHOLD_DB[tx.sf]:
        return None
    return Detection(
        observation=observation,
        rx_channel=rx_channel,
        lock_on_s=tx.lock_on_s,
        snr_db=snr,
    )
