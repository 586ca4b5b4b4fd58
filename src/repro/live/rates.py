"""Between-query rate computation over monotonic job counters.

The model is glljobstat's: the data source exposes *cumulative*
counters per job (operations, bytes, FLOPs...), and a client polling
at its own cadence derives rates by differencing the two most recent
observations — ``rate = (cur - prev) mod 2^width / (t_cur - t_prev)``.
The modulo makes the delta wrap-safe: a counter that rolled over
between polls still yields the true (small, positive) increment, never
a huge negative one.

Rates therefore need **two** observations: the first poll of a job
only establishes its baseline.  A job whose sample time stops
advancing (it ended; its final counters were published once) produces
no further rates and simply ages out of the view.  A job that ends
*mid-window* still yields one final rate over the partial window
``prev.t .. end`` when its final counters are first observed.

Each client owns its own :class:`RateEngine` — the windows are defined
by *that client's* poll times, so engine state is never shared.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

__all__ = ["COUNTER_WRAP_BITS", "LIVE_COUNTER_METRICS", "JobRates",
           "RateEngine", "top_jobs", "total_rates"]

#: Counter register width: 48 bits, like the Intel PMCs the real
#: tacc_stats reads — wide enough that wraps are rare, narrow enough
#: that the wrapped value always fits SQLite's signed 64-bit integers.
COUNTER_WRAP_BITS = 48

#: Rate fields published as cumulative live counters, in row order.
#: Each accumulates its per-second rate over wall time × nodes, so the
#: rate engine's delta/dt recovers the facility-wide per-job rate.
LIVE_COUNTER_METRICS: tuple[str, ...] = (
    "flops_gf",
    "cpu_user_frac",
    "io_scratch_write_mb",
    "net_mpi_mb",
)


@dataclass(frozen=True)
class JobRates:
    """One job's rates over one client-observed window.

    ``t`` is the newer sample's facility time, ``dt`` the window width
    in facility seconds, and ``rates`` maps metric name to units per
    second (units are whatever the counter accumulates: GF for
    ``flops_gf``, MB for the I/O counters, CPU-seconds for
    ``cpu_user_frac``).
    """

    jobid: str
    user: str
    app: str
    t: float
    dt: float
    ended: bool
    rates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "jobid": self.jobid, "user": self.user, "app": self.app,
            "t": self.t, "dt": self.dt, "ended": self.ended,
            "rates": dict(self.rates),
        }


class RateEngine:
    """Stateful between-query differencing of job counter samples.

    Feed it the full current counter table on every poll
    (:meth:`observe`); it returns a :class:`JobRates` per job whose
    sample time advanced since the previous poll.  New jobs are
    baselined silently, vanished jobs are forgotten.
    """

    def __init__(self, wrap_bits: int = COUNTER_WRAP_BITS):
        if wrap_bits < 1:
            raise ValueError(f"wrap_bits must be >= 1, got {wrap_bits}")
        self.wrap = 1 << wrap_bits
        self._prev: dict[str, Mapping] = {}

    def observe(self, samples: Iterable[Mapping]) -> list[JobRates]:
        """Difference *samples* against the previous poll.

        Each sample is a mapping with ``jobid``, ``user``, ``app``,
        ``t``, ``ended`` and ``counters`` (metric -> cumulative int) —
        the shape :meth:`repro.ingest.warehouse.Warehouse.live_counters`
        returns.  Returns rates sorted by jobid, one entry per job with
        a previous observation whose ``t`` advanced.
        """
        out: list[JobRates] = []
        seen: dict[str, Mapping] = {}
        for sample in samples:
            jobid = sample["jobid"]
            seen[jobid] = sample
            prev = self._prev.get(jobid)
            if prev is None or sample["t"] <= prev["t"]:
                continue
            dt = float(sample["t"] - prev["t"])
            prev_counters = prev["counters"]
            rates = {
                metric: ((cur - prev_counters[metric]) % self.wrap) / dt
                for metric, cur in sorted(sample["counters"].items())
                if metric in prev_counters
            }
            out.append(JobRates(
                jobid=jobid, user=sample["user"], app=sample["app"],
                t=float(sample["t"]), dt=dt,
                ended=bool(sample.get("ended", False)), rates=rates,
            ))
        self._prev = seen
        out.sort(key=lambda r: r.jobid)
        return out


def top_jobs(rows: Iterable[JobRates], n: int = 5,
             order_by: str = "flops_gf", user: str | None = None,
             app: str | None = None) -> list[JobRates]:
    """The top-*n* rate rows by *order_by*, optionally filtered.

    Ties break toward the lexicographically smaller jobid so the view
    is stable across refreshes.  Jobs missing the ordering metric rank
    as zero (they still show under a filter — an operator asking for
    one user's jobs wants all of them, active or not).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    kept = [
        r for r in rows
        if (user is None or r.user == user)
        and (app is None or r.app == app)
    ]
    kept.sort(key=lambda r: (-r.rates.get(order_by, 0.0), r.jobid))
    return kept[:n]


def total_rates(rows: Iterable[JobRates]) -> dict[str, float]:
    """Facility-wide sum of every metric's rate across *rows* (the
    glljobstat ``--total`` line)."""
    out: dict[str, float] = {}
    for r in rows:
        for metric, value in r.rates.items():
            out[metric] = out.get(metric, 0.0) + value
    return {m: out[m] for m in sorted(out)}
