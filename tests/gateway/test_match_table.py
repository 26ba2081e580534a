"""The gateway's channel-match table: same answers as matching afresh,
and never stale after a reconfiguration."""

from dataclasses import replace

import pytest

from repro.gateway.detector import RxChannels, detect, match_rx_channel
from repro.gateway.gateway import Gateway, Outcome
from repro.gateway.models import get_model
from repro.node.traffic import capacity_burst
from repro.phy.channels import Channel, ChannelGrid
from repro.phy.link import Position, noise_floor_dbm
from repro.phy.lora import SpreadingFactor
from repro.sim.engine import OnlineSimulator, Reconfiguration
from repro.sim.simulator import tx_key
from repro.types import Observation, Transmission

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
WIDE = ChannelGrid(start_hz=922.2e6, width_hz=3.2e6)
SHIFTS_HZ = (-100e3, -50e3, -25e3, 0.0, 25e3, 50e3, 100e3)
OFF_PLAN_HZ = 75e3  # every packet channel ends up below the detection overlap


def make_gateway(channels=GRID.channels()):
    return Gateway(
        gateway_id=1,
        network_id=1,
        position=Position(0, 0),
        channels=channels,
        model=get_model("RAK7268CV2"),
    )


def packet_channels():
    base = WIDE.channels() + [Channel(c.center_hz, 250_000) for c in GRID.channels()]
    return [ch.shifted(shift) for ch in base for shift in SHIFTS_HZ]


def strong_packet(channel):
    tx = Transmission(
        node_id=1, network_id=1, channel=channel, sf=SpreadingFactor.SF8, start_s=0.0
    )
    return Observation(transmission=tx, rssi_dbm=noise_floor_dbm(125_000) + 10.0)


class TestTableAnswers:
    def test_equals_match_rx_channel(self):
        gw = make_gateway()
        for _ in range(2):  # the second pass answers from the table
            for ch in packet_channels():
                assert gw.channels.match(ch) == match_rx_channel(ch, gw.channels)
        assert set(gw.channels.table) == set(packet_channels())
        assert any(rx is None for rx in gw.channels.table.values())
        assert any(rx is not None for rx in gw.channels.table.values())

    def test_detect_equals_uncached_detect(self):
        gw = make_gateway()
        for ch in packet_channels():
            obs = strong_packet(ch)
            assert detect(obs, gw.channels) == detect(obs, list(gw.channels))

    def test_non_default_overlap_bypasses_table(self):
        gw = make_gateway()
        ch = GRID.channel(2).shifted(25e3)  # 80 % overlap
        obs = strong_packet(ch)
        assert detect(obs, gw.channels) is not None
        assert detect(obs, gw.channels, min_overlap=0.9) is None

    def test_channels_behave_as_a_plain_tuple(self):
        gw = make_gateway()
        plain = tuple(sorted(GRID.channels()))
        assert isinstance(gw.channels, RxChannels)
        assert gw.channels == plain and hash(gw.channels) == hash(plain)
        assert repr(gw.channels) == repr(plain)

    def test_configure_replaces_the_table(self):
        gw = make_gateway()
        gw.channels.match(GRID.channel(0))
        gw.configure(GRID.channels()[:4])
        assert gw.channels.table == {}


class TestReconfigurationFlipsOutcome:
    def test_gateway_receive(self):
        gw = make_gateway()
        obs = [strong_packet(GRID.channel(3))]
        assert gw.receive(obs)[0].outcome is Outcome.RECEIVED
        gw.configure([c.shifted(OFF_PLAN_HZ) for c in GRID.channels()])
        assert gw.receive(obs)[0].outcome is Outcome.CHANNEL_MISMATCH
        gw.configure(GRID.channels())
        assert gw.receive(obs)[0].outcome is Outcome.RECEIVED

    def test_online_engine_between_runs(self, compact_network, link):
        burst = capacity_burst(compact_network.devices)
        sim = OnlineSimulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        assert sim.run_online(burst).delivered_count() > 0
        gw = compact_network.gateways[0]
        gw.configure([c.shifted(OFF_PLAN_HZ) for c in gw.channels])
        result = sim.run_online(burst)
        outcomes = {r.outcome for recs in result.receptions.values() for r in recs}
        assert outcomes == {Outcome.CHANNEL_MISMATCH}

    def test_online_engine_mid_run(self, compact_network, link):
        early = capacity_burst(compact_network.devices)
        late = [replace(tx, start_s=tx.start_s + 10.0, counter=1) for tx in early]
        gw = compact_network.gateways[0]
        reconfig = Reconfiguration(
            time_s=max(tx.end_s for tx in early) + 1.0,
            gateway_id=gw.gateway_id,
            channels=tuple(c.shifted(OFF_PLAN_HZ) for c in gw.channels),
            outage_s=0.0,
        )
        sim = OnlineSimulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run_online(early + late, [reconfig])
        fates = {
            counter: {
                r.outcome
                for tx in result.transmissions
                if tx.counter == counter
                for r in result.receptions[tx_key(tx)]
            }
            for counter in (0, 1)
        }
        assert Outcome.RECEIVED in fates[0]
        assert fates[1] == {Outcome.CHANNEL_MISMATCH}


@pytest.mark.parametrize("shift", [0.0, OFF_PLAN_HZ])
def test_fallback_outcome_uses_the_table(shift):
    """A weak packet is BELOW_SENSITIVITY on plan, CHANNEL_MISMATCH off it."""
    gw = make_gateway()
    tx = Transmission(
        node_id=1,
        network_id=1,
        channel=GRID.channel(1).shifted(shift),
        sf=SpreadingFactor.SF7,
        start_s=0.0,
    )
    weak = Observation(transmission=tx, rssi_dbm=noise_floor_dbm(125_000) - 30.0)
    expected = Outcome.BELOW_SENSITIVITY if shift == 0.0 else Outcome.CHANNEL_MISMATCH
    assert gw.receive([weak])[0].outcome is expected
