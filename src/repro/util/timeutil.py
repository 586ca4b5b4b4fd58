"""Simulated-time helpers.

The simulator runs on integer "facility epoch" seconds starting at 0 (plus an
arbitrary wall-clock anchor used only when rendering log lines).  Using plain
seconds everywhere keeps the discrete-event engine, the collectors, and the
analytics free of timezone/datetime arithmetic.
"""

from __future__ import annotations

import math

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "EPOCH_ANCHOR",
    "format_epoch",
    "format_duration",
    "diurnal_factor",
    "aligned_samples",
    "date_to_day_index",
    "day_index_to_date",
    "period_label",
    "label_to_period_index",
]

MINUTE = 60
HOUR = 60 * MINUTE
DAY = 24 * HOUR
WEEK = 7 * DAY

#: Wall-clock anchor for rendering: 2011-06-01T00:00:00Z, the start of the
#: paper's Ranger study period.  Only used to make log lines look real.
EPOCH_ANCHOR = 1306886400

_MONTH_DAYS = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTHS = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]


def _civil_from_days(days: int) -> tuple[int, int, int]:
    """Convert days-since-1970-01-01 to (year, month, day).

    Howard Hinnant's algorithm; avoids ``datetime`` so the hot logging path
    stays allocation-light and we never touch local timezones.
    """
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = mp + 3 if mp < 10 else mp - 9
    return (y + (1 if m <= 2 else 0), m, d)


def _days_from_civil(y: int, m: int, d: int) -> int:
    """Convert (year, month, day) to days-since-1970-01-01.

    Exact inverse of :func:`_civil_from_days` (same Hinnant paper), so
    archive date stamps round-trip to day indices without ``datetime``.
    """
    y -= 1 if m <= 2 else 0
    era = (y if y >= 0 else y - 399) // 400
    yoe = y - era * 400
    doy = (153 * (m + (-3 if m > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def day_index_to_date(day_index: int, anchor: int = EPOCH_ANCHOR) -> str:
    """Render a facility day index (``t // DAY``) as ``YYYY-MM-DD``."""
    y, m, d = _civil_from_days(anchor // DAY + day_index)
    return f"{y:04d}-{m:02d}-{d:02d}"


def date_to_day_index(date: str, anchor: int = EPOCH_ANCHOR) -> int:
    """Parse a ``YYYY-MM-DD`` stamp back to its facility day index.

    Inverse of :func:`day_index_to_date`; used by the ingest ledger to
    reason about archive file names in facility time.
    """
    y, m, d = (int(part) for part in date.split("-"))
    return _days_from_civil(y, m, d) - anchor // DAY


def period_label(index: int, period: int = DAY,
                 anchor: int = EPOCH_ANCHOR) -> str:
    """Render a facility rotation-period index (``t // period``) as an
    archive label: the ``YYYY-MM-DD`` of the period's first day
    (:func:`day_index_to_date`).  Archives rotate daily, so *period* is
    a whole number of days."""
    period = int(period)
    if period <= 0 or period % DAY:
        raise ValueError(f"period must be a whole number of days, "
                         f"got {period}")
    return day_index_to_date(index * period // DAY, anchor)


def label_to_period_index(label: str, period: int = DAY,
                          anchor: int = EPOCH_ANCHOR) -> int:
    """Parse an archive file label back to its rotation-period index;
    inverse of :func:`period_label`."""
    period = int(period)
    if period <= 0 or period % DAY:
        raise ValueError(f"period must be a whole number of days, "
                         f"got {period}")
    return date_to_day_index(label, anchor) * DAY // period


def format_epoch(sim_seconds: float, anchor: int = EPOCH_ANCHOR) -> str:
    """Render simulated seconds as ``YYYY-MM-DDTHH:MM:SS`` (UTC, anchor-based)."""
    t = int(anchor + sim_seconds)
    days, rem = divmod(t, DAY)
    hh, rem = divmod(rem, HOUR)
    mm, ss = divmod(rem, MINUTE)
    y, mo, d = _civil_from_days(days)
    return f"{y:04d}-{mo:02d}-{d:02d}T{hh:02d}:{mm:02d}:{ss:02d}"


def format_duration(seconds: float) -> str:
    """Render a duration as ``D+HH:MM:SS`` (SGE accounting style)."""
    seconds = int(round(seconds))
    days, rem = divmod(seconds, DAY)
    hh, rem = divmod(rem, HOUR)
    mm, ss = divmod(rem, MINUTE)
    if days:
        return f"{days}+{hh:02d}:{mm:02d}:{ss:02d}"
    return f"{hh:02d}:{mm:02d}:{ss:02d}"


def diurnal_factor(
    sim_seconds: float,
    day_amplitude: float = 0.35,
    week_amplitude: float = 0.15,
    peak_hour: float = 15.0,
) -> float:
    """Relative activity multiplier at a simulated time.

    Submission rates at real centers swing through the day (peak mid
    afternoon) and dip on weekends; the product of two raised cosines gives a
    smooth, strictly positive modulation with mean ≈ 1.

    Parameters
    ----------
    day_amplitude, week_amplitude:
        Fractional swing of the daily / weekly cycle (0 disables it).
    peak_hour:
        Hour of day (0-24) at which the daily cycle peaks.
    """
    hour = (sim_seconds % DAY) / HOUR
    dow = (sim_seconds % WEEK) / DAY  # 0 = anchor weekday
    daily = 1.0 + day_amplitude * math.cos(2 * math.pi * (hour - peak_hour) / 24.0)
    # Anchor 2011-06-01 was a Wednesday; weekend trough at dow ~ 3.5-4.5.
    weekly = 1.0 + week_amplitude * math.cos(2 * math.pi * (dow - 1.0) / 7.0)
    return daily * weekly


def aligned_samples(start: float, end: float, interval: float) -> list[float]:
    """Sampling instants in ``[start, end]``: start, every aligned interval tick,
    and end — mirroring TACC_Stats' begin/periodic/end invocations.

    The periodic ticks are aligned to multiples of *interval* in facility
    time (the real collector runs from cron, so all nodes tick together).
    """
    if end < start:
        raise ValueError(f"end ({end}) before start ({start})")
    if interval <= 0:
        raise ValueError("interval must be positive")
    ticks = [float(start)]
    first_tick = math.ceil(start / interval) * interval
    if first_tick == start:
        first_tick += interval
    t = first_tick
    while t < end:
        ticks.append(float(t))
        t += interval
    if end > start:
        ticks.append(float(end))
    return ticks
