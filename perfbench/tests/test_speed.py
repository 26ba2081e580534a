"""The host-speed meter: its clock, its scale and its timer."""

import time

import pytest

import speed


def test_scale_is_reference_over_mean_kernel_time():
    meter = speed.Meter()
    meter.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    assert meter.scale(0) == pytest.approx(0.5)
    assert meter.scale(2) == pytest.approx(0.5)
    assert meter.scale(1) == pytest.approx(0.4)


def test_a_lost_core_does_not_swamp_the_window():
    meter = speed.Meter()
    meter.samples = [speed.REFERENCE_S] * 9 + [100 * speed.REFERENCE_S]
    assert meter.scale(0) == pytest.approx(10 / 12)


def test_empty_window_takes_a_sample():
    meter = speed.Meter()
    assert meter.scale(meter.mark()) > 0
    assert len(meter.samples) == 1 and meter.spent > 0


def test_program_clock_leaves_out_the_meter():
    meter = speed.Meter()
    t0 = meter.now()
    for _ in range(20):
        meter.sample()
    assert meter.now() - t0 < meter.spent


def test_timer_samples_while_the_program_runs():
    meter = speed.Meter(period_s=0.005).start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        meter.stop()
    n = len(meter.samples)
    assert n >= 5
    time.sleep(0.02)
    assert len(meter.samples) == n
