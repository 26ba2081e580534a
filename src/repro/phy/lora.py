"""LoRa physical-layer parameters: spreading factors, data rates, airtime.

This module models the LoRa modulation exactly as consumed by the rest of
the reproduction: symbol timing, time-on-air (Semtech AN1200.13 formula),
preamble duration (which determines the *lock-on* instant of a gateway
decoder, see :mod:`repro.gateway.detector`), and the demodulation SNR
thresholds calibrated to the paper's Figure 16 measurement (approximately
-13 dB for DR4 on an SX1302 front-end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Any

__all__ = [
    "SpreadingFactor",
    "DataRate",
    "CodingRate",
    "LoRaParams",
    "DR_TO_SF",
    "SF_TO_DR",
    "SNR_THRESHOLD_DB",
    "symbol_time_s",
    "preamble_duration_s",
    "time_on_air_s",
    "snr_threshold_db",
    "bitrate_bps",
]


class SpreadingFactor(IntEnum):
    """LoRa spreading factor: each symbol carries ``SF`` bits over 2^SF chips."""

    SF7 = 7
    SF8 = 8
    SF9 = 9
    SF10 = 10
    SF11 = 11
    SF12 = 12


class DataRate(IntEnum):
    """LoRaWAN data-rate index (125 kHz uplink ladder, DR0 slowest).

    The paper's testbed (AS923-style band, 923-925 MHz and 916.8-921.6 MHz)
    uses the DR0..DR5 ladder where DR5 maps to SF7 and DR0 to SF12.
    """

    DR0 = 0
    DR1 = 1
    DR2 = 2
    DR3 = 3
    DR4 = 4
    DR5 = 5


class CodingRate(IntEnum):
    """Forward-error-correction rate expressed as 4/(4+value)."""

    CR_4_5 = 1
    CR_4_6 = 2
    CR_4_7 = 3
    CR_4_8 = 4


DR_TO_SF = {
    DataRate.DR0: SpreadingFactor.SF12,
    DataRate.DR1: SpreadingFactor.SF11,
    DataRate.DR2: SpreadingFactor.SF10,
    DataRate.DR3: SpreadingFactor.SF9,
    DataRate.DR4: SpreadingFactor.SF8,
    DataRate.DR5: SpreadingFactor.SF7,
}

SF_TO_DR = {sf: dr for dr, sf in DR_TO_SF.items()}

# Demodulation SNR thresholds (dB), one per spreading factor.  The standard
# Semtech ladder is -7.5 dB at SF7 stepping -2.5 dB per SF; the paper's
# Figure 16 measures the practical SX1302 threshold at roughly -13 dB for
# DR4 (SF8), i.e. ~3 dB better than the datasheet ladder.  We calibrate to
# the measured value so the Fig. 16 reproduction lands on the paper's curve.
SNR_THRESHOLD_DB = {
    SpreadingFactor.SF7: -10.5,
    SpreadingFactor.SF8: -13.0,
    SpreadingFactor.SF9: -15.5,
    SpreadingFactor.SF10: -18.0,
    SpreadingFactor.SF11: -20.5,
    SpreadingFactor.SF12: -23.0,
}

DEFAULT_PREAMBLE_SYMBOLS = 8
DEFAULT_BANDWIDTH_HZ = 125_000


@dataclass(frozen=True)
class LoRaParams:
    """A complete LoRa transmission parameter set.

    Attributes:
        sf: Spreading factor.
        bandwidth_hz: Channel bandwidth in Hz (125/250/500 kHz).
        coding_rate: FEC coding rate.
        preamble_symbols: Number of programmed preamble symbols.
        explicit_header: Whether the PHY header is present.
        crc: Whether the payload CRC is enabled (uplinks: yes).
    """

    sf: SpreadingFactor
    bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ
    coding_rate: CodingRate = CodingRate.CR_4_5
    preamble_symbols: int = DEFAULT_PREAMBLE_SYMBOLS
    explicit_header: bool = True
    crc: bool = True

    @classmethod
    def from_dr(cls, dr: DataRate, **kwargs: Any) -> "LoRaParams":
        """Build parameters for a LoRaWAN data-rate index."""
        return cls(sf=DR_TO_SF[DataRate(dr)], **kwargs)

    @property
    def dr(self) -> DataRate:
        """The LoRaWAN data-rate index of this parameter set."""
        return SF_TO_DR[self.sf]

    def symbol_time_s(self) -> float:
        """Duration of one LoRa symbol in seconds."""
        return symbol_time_s(self.sf, self.bandwidth_hz)

    def preamble_duration_s(self) -> float:
        """Duration of the preamble (incl. sync) in seconds."""
        return preamble_duration_s(
            self.sf, self.bandwidth_hz, self.preamble_symbols
        )

    def time_on_air_s(self, payload_bytes: int) -> float:
        """Total packet airtime for ``payload_bytes`` of MAC payload."""
        return time_on_air_s(
            payload_bytes,
            self.sf,
            self.bandwidth_hz,
            coding_rate=self.coding_rate,
            preamble_symbols=self.preamble_symbols,
            explicit_header=self.explicit_header,
            crc=self.crc,
        )

    def snr_threshold_db(self) -> float:
        """Minimum SNR at which this parameter set demodulates."""
        return SNR_THRESHOLD_DB[self.sf]


# The timing functions below are pure and their domain is tiny (6 SF x 3
# bandwidths x at most 256 payload lengths), so they are memoised: the
# reception hot path asks for the same airtime hundreds of thousands of
# times.  Raised ValueErrors are not cached, so every bad call re-raises.
@lru_cache(maxsize=None)
def symbol_time_s(sf: SpreadingFactor, bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ) -> float:
    """Return the LoRa symbol duration ``2^SF / BW`` in seconds."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return float(2 ** int(sf)) / float(bandwidth_hz)


@lru_cache(maxsize=None)
def preamble_duration_s(
    sf: SpreadingFactor,
    bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ,
    preamble_symbols: int = DEFAULT_PREAMBLE_SYMBOLS,
) -> float:
    """Duration of the preamble including the 4.25-symbol sync sequence.

    A gateway channel *locks on* to a packet only once the full preamble
    has been observed; the lock-on instant drives the FCFS decoder
    dispatch order (paper section 3.1).
    """
    if preamble_symbols < 1:
        raise ValueError("preamble must contain at least one symbol")
    t_sym = symbol_time_s(sf, bandwidth_hz)
    return (preamble_symbols + 4.25) * t_sym


def _low_data_rate_optimize(sf: SpreadingFactor, bandwidth_hz: int) -> bool:
    """LDRO is mandated when the symbol time exceeds 16 ms."""
    return symbol_time_s(sf, bandwidth_hz) > 0.016


@lru_cache(maxsize=None)
def time_on_air_s(
    payload_bytes: int,
    sf: SpreadingFactor,
    bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ,
    coding_rate: CodingRate = CodingRate.CR_4_5,
    preamble_symbols: int = DEFAULT_PREAMBLE_SYMBOLS,
    explicit_header: bool = True,
    crc: bool = True,
) -> float:
    """Compute the LoRa time-on-air (Semtech AN1200.13).

    Args:
        payload_bytes: MAC payload length in bytes (PHYPayload).
        sf: Spreading factor.
        bandwidth_hz: Bandwidth in Hz.
        coding_rate: FEC rate.
        preamble_symbols: Programmed preamble length.
        explicit_header: Explicit PHY header flag.
        crc: CRC-enabled flag.

    Returns:
        Packet duration in seconds (preamble + header + payload).
    """
    if payload_bytes < 0:
        raise ValueError(f"payload length must be >= 0, got {payload_bytes}")
    t_sym = symbol_time_s(sf, bandwidth_hz)
    t_preamble = (preamble_symbols + 4.25) * t_sym

    de = 2 if _low_data_rate_optimize(sf, bandwidth_hz) else 0
    ih = 0 if explicit_header else 1
    crc_bits = 16 if crc else 0

    numerator = 8 * payload_bytes - 4 * int(sf) + 28 + crc_bits - 20 * ih
    denominator = 4 * (int(sf) - de)
    payload_symbols = 8 + max(
        math.ceil(numerator / denominator) * (int(coding_rate) + 4), 0
    )
    return t_preamble + payload_symbols * t_sym


def snr_threshold_db(sf: SpreadingFactor) -> float:
    """Minimum demodulation SNR for a spreading factor (dB)."""
    return SNR_THRESHOLD_DB[SpreadingFactor(sf)]


def bitrate_bps(
    sf: SpreadingFactor,
    bandwidth_hz: int = DEFAULT_BANDWIDTH_HZ,
    coding_rate: CodingRate = CodingRate.CR_4_5,
) -> float:
    """Raw LoRa bit rate ``SF * BW / 2^SF * CR`` in bits per second."""
    cr = 4.0 / (4.0 + int(coding_rate))
    return int(sf) * float(bandwidth_hz) / (2 ** int(sf)) * cr
