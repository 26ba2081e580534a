"""ALOHA oracle for the interference and capture model.

One gateway, one channel, one SF, equal received powers and more
decoders than packets: decoder contention is out of the picture, the
co-SF capture margin rejects every equal-power collision, and a packet
decodes if and only if no other packet overlaps it.  Delivered fractions
of Poisson traffic at offered load G (packets per airtime) must then
follow pure ALOHA, ``e^(-2G)``, and with slot-aligned starts slotted
ALOHA, ``e^(-G)`` (Polonelli et al., "Slotted ALOHA on LoRaWAN").
"""

import math
import random
from dataclasses import replace

import pytest

from repro.gateway.gateway import Gateway, Outcome
from repro.gateway.models import get_model
from repro.phy.channels import Channel
from repro.phy.link import Position
from repro.phy.lora import SpreadingFactor
from repro.types import Observation, Transmission

CHANNEL = Channel(923.2e6)
SF = SpreadingFactor.SF7
RSSI_DBM = -80.0
PACKETS = 8000
AIRTIME_S = Transmission(
    node_id=0, network_id=1, channel=CHANNEL, sf=SF, start_s=0.0
).airtime_s
# Slots are a little longer than a packet, so packets of adjacent slots
# never touch.
SLOT_S = 1.05 * AIRTIME_S
LOADS = (0.1, 0.5, 1.0)


def poisson_starts(load, seed):
    """``PACKETS`` Poisson arrivals at ``load`` packets per airtime."""
    rng = random.Random(seed)
    rate = load / AIRTIME_S
    t, starts = 0.0, []
    for _ in range(PACKETS):
        t += rng.expovariate(rate)
        starts.append(t)
    return starts


def receive(starts):
    """Outcome of each packet (by start order) at one ample gateway."""
    gw = Gateway(
        gateway_id=1,
        network_id=1,
        position=Position(0, 0),
        channels=[CHANNEL],
        model=replace(get_model(), decoders=len(starts) + 1),
    )
    observations = [
        Observation(
            transmission=Transmission(
                node_id=i, network_id=1, channel=CHANNEL, sf=SF, start_s=start
            ),
            rssi_dbm=RSSI_DBM,
        )
        for i, start in enumerate(starts)
    ]
    return observations, gw.receive(observations)


def delivered_fraction(starts):
    """Delivered fraction of the packets at least an airtime (a slot)
    away from both window edges; asserts the per-packet oracle."""
    observations, records = receive(starts)
    window_end = max(starts)
    txs = [obs.transmission for obs in observations]
    kept = delivered = 0
    for i, (tx, rec) in enumerate(zip(txs, records)):
        assert rec.outcome in (Outcome.RECEIVED, Outcome.DECODE_FAILED)
        alone = (i == 0 or txs[i - 1].end_s <= tx.start_s) and (
            i == len(txs) - 1 or tx.end_s <= txs[i + 1].start_s
        )
        assert rec.received == alone
        if SLOT_S <= tx.start_s <= window_end - SLOT_S:
            kept += 1
            delivered += rec.received
    assert kept > 0.99 * PACKETS
    return delivered / kept


@pytest.mark.parametrize("load", LOADS)
def test_pure_aloha(load):
    fraction = delivered_fraction(poisson_starts(load, seed=11))
    assert fraction == pytest.approx(math.exp(-2 * load), abs=0.02)


@pytest.mark.parametrize("load", LOADS)
def test_slotted_aloha(load):
    # Arrivals at ``load`` per slot, each sent at the start of its slot:
    # packets of one slot share a start time and collide completely.
    starts = [
        math.floor(t / AIRTIME_S) * SLOT_S for t in poisson_starts(load, seed=13)
    ]
    fraction = delivered_fraction(starts)
    assert fraction == pytest.approx(math.exp(-load), abs=0.02)
