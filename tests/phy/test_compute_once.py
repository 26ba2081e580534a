"""Values computed once (memoised airtime, derived dataclass fields) equal
the formulas they replace, and leave the types' semantics unchanged."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.channels import Channel, overlap_ratio
from repro.phy.interference import (
    CO_SF_CAPTURE_DB,
    DETECTION_MIN_OVERLAP,
    Interferer,
    decode_ok,
    effective_noise_mw,
    overlap_rejection_db,
    sf_isolation_db,
)
from repro.phy.lora import (
    SNR_THRESHOLD_DB,
    SpreadingFactor,
    preamble_duration_s,
    symbol_time_s,
    time_on_air_s,
)
from repro.types import Transmission

BANDWIDTHS_HZ = (125_000, 250_000, 500_000)


def make_tx(sf=SpreadingFactor.SF8, bandwidth_hz=125_000, payload=20, start=1.5):
    return Transmission(
        node_id=7,
        network_id=2,
        channel=Channel(923_100_000.0, bandwidth_hz),
        sf=sf,
        start_s=start,
        payload_bytes=payload,
    )


def assert_fields_match_formula(tx):
    """Stored timing equals the uncached closed form, bit for bit."""
    bw = int(tx.channel.bandwidth_hz)
    airtime = time_on_air_s.__wrapped__(tx.payload_bytes, tx.sf, bw)
    preamble = preamble_duration_s.__wrapped__(tx.sf, bw)
    assert tx.airtime_s == airtime
    assert tx.preamble_s == preamble
    assert tx.lock_on_s == tx.start_s + preamble
    assert tx.end_s == tx.start_s + airtime


class TestTransmissionFields:
    @settings(max_examples=200, deadline=None)
    @given(
        sf=st.sampled_from(list(SpreadingFactor)),
        bandwidth_hz=st.sampled_from(BANDWIDTHS_HZ),
        payload=st.integers(0, 255),
        start=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_fields_equal_uncached_formula(self, sf, bandwidth_hz, payload, start):
        assert_fields_match_formula(make_tx(sf, bandwidth_hz, payload, start))

    def test_whole_domain_equals_uncached_formula(self):
        for sf in SpreadingFactor:
            for bandwidth_hz in BANDWIDTHS_HZ:
                for payload in range(256):
                    assert_fields_match_formula(make_tx(sf, bandwidth_hz, payload))

    @pytest.mark.parametrize(
        "changes",
        [
            {"start_s": 42.25},
            {"payload_bytes": 51},
            {"sf": SpreadingFactor.SF12},
            {"channel": Channel(923_100_000.0, 250_000)},
        ],
    )
    def test_replace_recomputes(self, changes):
        tx = make_tx()
        moved = replace(tx, **changes)
        assert_fields_match_formula(moved)
        assert (moved.lock_on_s, moved.end_s) != (tx.lock_on_s, tx.end_s)

    def test_init_fields_unchanged(self):
        assert [f.name for f in fields(Transmission) if f.init] == [
            "node_id", "network_id", "channel", "sf", "start_s",
            "payload_bytes", "tx_power_dbm", "counter", "confirmed", "attempt",
        ]

    def test_eq_and_hash_ignore_derived_fields(self):
        a, b = make_tx(), make_tx()
        assert a == b and hash(a) == hash(b)
        assert make_tx(start=2.0) != a
        key = (7, 2, Channel(923_100_000.0), SpreadingFactor.SF8, 1.5, 20, 14.0, 0, False, 0)
        assert hash(a) == hash(key)

    def test_repr_unchanged(self):
        assert repr(make_tx()) == (
            "Transmission(node_id=7, network_id=2, channel=Channel("
            "center_hz=923100000.0, bandwidth_hz=125000), "
            "sf=<SpreadingFactor.SF8: 8>, start_s=1.5, payload_bytes=20, "
            "tx_power_dbm=14.0, counter=0, confirmed=False, attempt=0)"
        )

    def test_still_unordered(self):
        with pytest.raises(TypeError):
            _ = make_tx() < make_tx()

    def test_negative_payload_raises_every_time(self):
        make_tx(payload=10)  # warm the cache with a valid input
        for _ in range(2):
            with pytest.raises(ValueError, match="payload"):
                make_tx(payload=-1)


class TestChannelFields:
    def test_edges_equal_formula(self):
        for center in (868_100_000.0, 923_300_000, 915_012_345.5):
            for bw in (125_000, 250_000, 500_000.0):
                ch = Channel(center, bw)
                assert ch.low_hz == center - bw / 2.0
                assert ch.high_hz == center + bw / 2.0

    def test_shifted_recomputes_edges(self):
        ch = Channel(923_100_000.0).shifted(25_000.0)
        assert ch.low_hz == 923_125_000.0 - 62_500.0

    def test_eq_hash_order_repr_unchanged(self):
        a = Channel(923_100_000.0)
        assert a == Channel(923_100_000, 125_000)
        assert hash(a) == hash((923_100_000.0, 125_000))
        assert sorted([Channel(2.0, 3.0), Channel(1.0, 5.0), Channel(2.0, 1.0)]) == [
            Channel(1.0, 5.0), Channel(2.0, 1.0), Channel(2.0, 3.0),
        ]
        assert repr(a) == "Channel(center_hz=923100000.0, bandwidth_hz=125000)"
        assert [f.name for f in fields(Channel) if f.compare] == [
            "center_hz", "bandwidth_hz",
        ]

    @pytest.mark.parametrize("bw", [0, -125_000])
    def test_non_positive_bandwidth_raises(self, bw):
        for _ in range(2):
            with pytest.raises(ValueError, match="bandwidth"):
                Channel(923_100_000.0, bw)


class TestMemoisedTiming:
    def test_bad_inputs_raise_after_a_cache_hit(self):
        sf = SpreadingFactor.SF7
        time_on_air_s(10, sf)
        symbol_time_s(sf)
        preamble_duration_s(sf)
        for _ in range(2):
            with pytest.raises(ValueError, match="payload"):
                time_on_air_s(-1, sf)
            for bw in (0, -125_000):
                with pytest.raises(ValueError, match="bandwidth"):
                    time_on_air_s(10, sf, bw)
                with pytest.raises(ValueError, match="bandwidth"):
                    symbol_time_s(sf, bw)
            with pytest.raises(ValueError, match="preamble"):
                preamble_duration_s(sf, 125_000, 0)

    def test_cached_equals_uncached(self):
        for sf in SpreadingFactor:
            for bw in BANDWIDTHS_HZ:
                assert symbol_time_s(sf, bw) == symbol_time_s.__wrapped__(sf, bw)
                assert preamble_duration_s(sf, bw) == preamble_duration_s.__wrapped__(sf, bw)


def reference_noise_mw(noise_dbm, desired_sf, desired_channel, interferers):
    """The per-interferer formula, evaluated afresh for every interferer."""
    total = 10.0 ** (noise_dbm / 10.0)
    for intf in interferers:
        ov = overlap_ratio(desired_channel, intf.channel)
        if ov <= 0.0:
            continue
        isolation = overlap_rejection_db(ov) + sf_isolation_db(desired_sf, intf.sf)
        total += 10.0 ** ((intf.rssi_dbm - isolation) / 10.0)
    return total


def reference_collides(desired_sf, desired_channel, intf):
    ov = overlap_ratio(desired_channel, intf.channel)
    return ov >= DETECTION_MIN_OVERLAP and desired_sf == intf.sf


DESIRED = Channel(923_100_000.0)
interferers = st.lists(
    st.builds(
        Interferer,
        rssi_dbm=st.floats(-140.0, -40.0),
        sf=st.sampled_from(list(SpreadingFactor)),
        channel=st.builds(
            Channel,
            center_hz=st.sampled_from([923_100_000.0 + k * 12_500.0 for k in range(-12, 13)]),
            bandwidth_hz=st.sampled_from(BANDWIDTHS_HZ),
        ),
    ),
    max_size=12,
)


class TestInterferenceTable:
    @settings(max_examples=300, deadline=None)
    @given(
        sf=st.sampled_from(list(SpreadingFactor)),
        rssi=st.floats(-130.0, -60.0),
        intfs=interferers,
    )
    def test_equals_per_interferer_formula(self, sf, rssi, intfs):
        noise = -117.0
        assert effective_noise_mw(noise, sf, DESIRED, intfs) == reference_noise_mw(
            noise, sf, DESIRED, intfs
        )
        expected = 10.0 * math.log10(reference_noise_mw(noise, sf, DESIRED, intfs))
        expected_ok = rssi - expected >= SNR_THRESHOLD_DB[sf] and not any(
            reference_collides(sf, DESIRED, i) and rssi - i.rssi_dbm < CO_SF_CAPTURE_DB
            for i in intfs
        )
        assert decode_ok(rssi, noise, sf, DESIRED, intfs) is expected_ok
