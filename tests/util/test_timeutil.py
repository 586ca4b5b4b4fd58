"""Tests for simulated-time helpers."""

import math

import pytest

from repro.util.timeutil import (
    DAY,
    HOUR,
    MINUTE,
    WEEK,
    aligned_samples,
    diurnal_factor,
    format_duration,
    format_epoch,
)


def test_constants():
    assert MINUTE == 60
    assert HOUR == 3600
    assert DAY == 86400
    assert WEEK == 7 * DAY


def test_format_epoch_anchor():
    # Anchor is 2011-06-01T00:00:00Z (start of the Ranger study period).
    assert format_epoch(0) == "2011-06-01T00:00:00"
    assert format_epoch(DAY) == "2011-06-02T00:00:00"
    assert format_epoch(30 * DAY) == "2011-07-01T00:00:00"


def test_format_epoch_leap_and_year_boundaries():
    # 214 days after 2011-06-01 is 2012-01-01; 2012 is a leap year.
    assert format_epoch(214 * DAY) == "2012-01-01T00:00:00"
    assert format_epoch((214 + 31 + 28) * DAY) == "2012-02-29T00:00:00"


def test_format_epoch_time_of_day():
    assert format_epoch(HOUR + 23 * MINUTE + 45) == "2011-06-01T01:23:45"


def test_format_duration():
    assert format_duration(50) == "00:00:50"
    assert format_duration(3 * HOUR + 4 * MINUTE + 5) == "03:04:05"
    assert format_duration(2 * DAY + HOUR) == "2+01:00:00"


def test_diurnal_factor_positive_and_periodic():
    for t in range(0, WEEK, 3600):
        f = diurnal_factor(t)
        assert f > 0
        assert math.isclose(f, diurnal_factor(t + WEEK), rel_tol=1e-9)


def test_diurnal_factor_mean_near_one():
    vals = [diurnal_factor(t) for t in range(0, WEEK, 600)]
    assert abs(sum(vals) / len(vals) - 1.0) < 0.02


def test_diurnal_factor_peaks_at_peak_hour():
    peak = diurnal_factor(15 * HOUR, week_amplitude=0.0)
    trough = diurnal_factor(3 * HOUR, week_amplitude=0.0)
    assert peak > trough


def test_diurnal_zero_amplitude_flat():
    assert diurnal_factor(12345.0, 0.0, 0.0) == pytest.approx(1.0)


def test_aligned_samples_basic():
    ticks = aligned_samples(0.0, 1800.0, 600.0)
    assert ticks == [0.0, 600.0, 1200.0, 1800.0]


def test_aligned_samples_unaligned_start_end():
    ticks = aligned_samples(150.0, 1500.0, 600.0)
    # start, aligned interior ticks, end.
    assert ticks == [150.0, 600.0, 1200.0, 1500.0]


def test_aligned_samples_short_window():
    # A window shorter than one interval still yields begin + end.
    assert aligned_samples(100.0, 200.0, 600.0) == [100.0, 200.0]


def test_aligned_samples_zero_length():
    assert aligned_samples(100.0, 100.0, 600.0) == [100.0]


def test_aligned_samples_validation():
    with pytest.raises(ValueError):
        aligned_samples(100.0, 50.0, 600.0)
    with pytest.raises(ValueError):
        aligned_samples(0.0, 100.0, 0.0)
