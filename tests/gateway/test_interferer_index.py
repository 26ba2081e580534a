"""The lane index behind ``Gateway._interferers_for``: the same
interferers, in the same order, as a scan of every frequency bucket."""

from bisect import bisect_left, bisect_right
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.detector import Detection
from repro.gateway.gateway import Gateway, Outcome
from repro.gateway.models import get_model
from repro.node.traffic import periodic_schedule
from repro.phy.channels import Channel, overlap_hz
from repro.phy.interference import Interferer
from repro.phy.link import Position
from repro.phy.lora import SpreadingFactor
from repro.sim.engine import OnlineSimulator
from repro.sim.scenario import assign_orthogonal_combos, build_network
from repro.sim.simulator import Simulator, tx_key
from repro.types import Observation, Transmission, time_overlap_s

BUCKET_HZ = Gateway._BUCKET_HZ


def bucket_index(observations):
    """Frequency bucket -> (start-sorted observations, starts, max airtime)."""
    buckets = {}
    for obs in observations:
        key = int(obs.transmission.channel.center_hz // BUCKET_HZ)
        buckets.setdefault(key, []).append(obs)
    index = {}
    for key, group in buckets.items():
        group.sort(key=lambda o: o.transmission.start_s)
        starts = [o.transmission.start_s for o in group]
        index[key] = (group, starts, max(o.transmission.airtime_s for o in group))
    return index


def bucket_scan(me, index, all_buckets=True):
    """The bucket scan: every bucket (``all_buckets``) or, as the scan did
    before the lane index, only the desired packet's bucket and its two
    neighbours."""
    center_key = int(me.channel.center_hz // BUCKET_HZ)
    keys = sorted(index) if all_buckets else (center_key - 1, center_key, center_key + 1)
    interferers = []
    for key in keys:
        entry = index.get(key)
        if entry is None:
            continue
        ordered, starts, max_airtime = entry
        lo = bisect_left(starts, me.start_s - max_airtime)
        hi = bisect_right(starts, me.end_s)
        for obs in ordered[lo:hi]:
            other = obs.transmission
            if other is me:
                continue
            if time_overlap_s(me, other) <= 0.0:
                continue
            if overlap_hz(me.channel, other.channel) <= 0.0:
                continue
            interferers.append(
                Interferer(
                    rssi_dbm=obs.rssi_dbm,
                    sf=other.sf,
                    channel=other.channel,
                    same_network=other.network_id == me.network_id,
                )
            )
    return interferers


def detection(obs):
    tx = obs.transmission
    return Detection(
        observation=obs, rx_channel=tx.channel, lock_on_s=tx.lock_on_s, snr_db=0.0
    )


def lane_scans(observations):
    gw = make_gateway()
    index = Gateway._build_time_index(observations)
    return [gw._interferers_for(detection(obs), index) for obs in observations]


def make_gateway():
    return Gateway(
        gateway_id=1,
        network_id=1,
        position=Position(0, 0),
        channels=[Channel(923.2e6)],
        model=get_model("RAK7268CV2"),
    )


def packet(i, channel, start_s, sf=SpreadingFactor.SF7, payload=10, rssi=-100.0):
    tx = Transmission(
        node_id=i,
        network_id=1 + i % 2,
        channel=channel,
        sf=sf,
        start_s=start_s,
        payload_bytes=payload,
        counter=i,
    )
    return Observation(transmission=tx, rssi_dbm=rssi)


# Channel centres on and one hertz either side of bucket edges, and at
# bucket middles, then shifted by the usual misalignment offsets.
EDGE_CENTRES_HZ = [k * BUCKET_HZ + d for k in (4615, 4616, 4617) for d in (-1.0, 0.0, 1.0)]
MID_CENTRES_HZ = [k * BUCKET_HZ + BUCKET_HZ / 2 for k in (4615, 4616, 4617)]
OFFSETS_HZ = (-100e3, -50e3, -25e3, 0.0, 25e3, 50e3, 100e3)
channels = st.builds(
    lambda centre, offset, bw: Channel(centre + offset, bw),
    st.sampled_from(EDGE_CENTRES_HZ + MID_CENTRES_HZ),
    st.sampled_from(OFFSETS_HZ),
    st.sampled_from((125_000.0, 250_000.0, 500_000.0)),
)
# A start is a point of a coarse grid (so starts repeat) or the exact end
# of the previous packet (so intervals touch).
packet_specs = st.tuples(
    channels,
    st.sampled_from(list(SpreadingFactor)),
    st.sampled_from((5, 10, 20, 51)),
    st.one_of(
        st.integers(0, 40).map(lambda k: k * 0.05), st.just("touch")
    ),
    st.floats(-130.0, -60.0),
)


def build(specs):
    observations = []
    for i, (channel, sf, payload, start, rssi) in enumerate(specs):
        if start == "touch":
            start = observations[-1].transmission.end_s if observations else 0.0
        observations.append(packet(i, channel, start, sf, payload, rssi))
    return observations


class TestEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(packet_specs, min_size=1, max_size=40))
    def test_same_interferers_in_same_order(self, specs):
        observations = build(specs)
        index = bucket_index(observations)
        expected = [bucket_scan(obs.transmission, index) for obs in observations]
        assert lane_scans(observations) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.lists(packet_specs, min_size=1, max_size=40))
    def test_125khz_unchanged_from_neighbour_buckets(self, specs):
        # With 125 kHz channels only, every overlapping channel lies in a
        # neighbouring bucket: the lane index returns what the former
        # three-bucket scan did, so no shipped result moves.
        observations = build(
            [(Channel(ch.center_hz), *rest) for ch, *rest in specs]
        )
        index = bucket_index(observations)
        expected = [
            bucket_scan(obs.transmission, index, all_buckets=False)
            for obs in observations
        ]
        assert lane_scans(observations) == expected


class TestCases:
    def test_far_bucket_250khz_overlap_found(self):
        # 39,998 Hz of shared spectrum, two buckets apart (4616 and 4618).
        a = packet(0, Channel(923.399999e6, 250_000), 0.0)
        b = packet(1, Channel(923.610001e6, 250_000), 0.01)
        assert overlap_hz(a.tx.channel, b.tx.channel) > 39_000
        observations = [a, b]
        index = bucket_index(observations)
        assert bucket_scan(a.tx, index, all_buckets=False) == []
        found = lane_scans(observations)
        assert [len(found[0]), len(found[1])] == [1, 1]
        assert found[0][0].channel == b.tx.channel

    def test_touching_intervals_do_not_overlap(self):
        ch = Channel(923.2e6)
        a = packet(0, ch, 0.5)
        before = packet(1, ch, 0.5 - a.tx.airtime_s)
        assert before.tx.end_s == a.tx.start_s
        after = packet(2, ch, a.tx.end_s)
        assert lane_scans([before, a, after]) == [[], [], []]

    def test_duplicate_starts_keep_input_order(self):
        ch = Channel(923.3e6)
        obs = [packet(i, ch, 1.0, rssi=-100.0 - i) for i in range(4)]
        found = lane_scans(obs)
        assert [i.rssi_dbm for i in found[0]] == [-101.0, -102.0, -103.0]
        assert [i.rssi_dbm for i in found[3]] == [-100.0, -101.0, -102.0]

    def test_order_is_bucket_then_start_across_airtimes(self):
        # Interferers on a lower bucket come first, whatever their start;
        # within a bucket, packets of different airtimes interleave by start.
        desired = packet(0, Channel(923.4e6, 500_000), 1.0, SpreadingFactor.SF12)
        low = packet(1, Channel(923.2e6 - 1.0), 1.15, SpreadingFactor.SF7)
        mid_late = packet(2, Channel(923.45e6), 1.2, SpreadingFactor.SF7)
        mid_early = packet(3, Channel(923.5e6), 1.1, SpreadingFactor.SF9)
        found = lane_scans([desired, mid_late, low, mid_early])[0]
        assert [i.channel for i in found] == [
            low.tx.channel, mid_early.tx.channel, mid_late.tx.channel
        ]


class TestReceptionPaths:
    def test_batch_and_online_agree_under_coexistence(self, plan_16, link):
        nets = [
            build_network(
                network_id=net_id,
                num_gateways=2,
                num_nodes=40,
                channels=list(plan_16),
                seed=net_id,
                gateway_id_base=100 * net_id,
                node_id_base=1000 * net_id,
                width_m=400.0,
                height_m=400.0,
            )
            for net_id in (1, 2)
        ]
        for net in nets:
            assign_orthogonal_combos(net.devices, list(plan_16))
        gateways = [gw for net in nets for gw in net.gateways]
        devices = [dev for net in nets for dev in net.devices]
        traffic = periodic_schedule(devices, window_s=60.0, period_s=10.0, seed=3)

        def outcomes(result):
            return {
                (key, rec.gateway_id): rec.outcome
                for key, recs in result.receptions.items()
                for rec in recs
            }

        batch = outcomes(Simulator(gateways, devices, link=link).run(traffic))
        online = outcomes(
            OnlineSimulator(gateways, devices, link=link).run_online(traffic)
        )
        assert online == batch
        seen = Counter(batch.values())
        assert seen[Outcome.FILTERED_FOREIGN] > 0
        assert seen[Outcome.DECODE_FAILED] > 0
        assert len(batch) == len(traffic) * len(gateways)
        assert {key for key, _ in batch} == {tx_key(tx) for tx in traffic}
