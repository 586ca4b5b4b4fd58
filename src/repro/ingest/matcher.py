"""Match accounting records to per-host TACC_Stats streams.

TACC_Stats is batch-job aware — samples carry job ids — so matching is by
id, with time-window validation: a host stream claiming job J must have
its ``%begin``/``%end`` marks inside the accounting window (± slack for
clock skew between the scheduler master and the nodes).  Jobs shorter than
the sampling interval are excluded, exactly as the paper's study does
("jobs included ... are those longer than the default TACC_Stats sampling
interval of 10 minutes", §4.1).

Matching itself never needs parsed sample matrices — only each host's
per-job time windows.  :class:`HostJobView` captures exactly that, so the
ingest engine matches from the tiny views its host scans
(:mod:`repro.ingest.columnar_scan`) ship back, with
:func:`match_job_views`.

:func:`host_job_views` and :func:`match_jobs` compute the same views and
decisions from :class:`HostData`.  No ingest path calls them: they are
the reference the tests compare the column scan against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scheduler.accounting import AccountingEntry
from repro.tacc_stats.types import HostData

__all__ = [
    "HostJobView",
    "MatchedJob",
    "MatchReport",
    "ViewMatchedJob",
    "host_job_views",
    "match_job_views",
    "match_jobs",
]

#: Tolerated clock skew between scheduler and node clocks, seconds.
CLOCK_SLACK = 90.0


@dataclass(frozen=True)
class HostJobView:
    """One host's time-window view of one job — all the matcher needs.

    ``mark_window`` is the (first ``%begin``, last ``%end``) pair, None
    when either mark is missing (node crash); ``block_span`` is the time
    span of the host's blocks tagged with the job, None when the job only
    appears in marks.  Views are a few dozen bytes, so worker processes
    can ship one per (host, job) back to the coordinator cheaply.
    """

    hostname: str
    jobid: str
    mark_window: tuple[float, float] | None
    block_span: tuple[float, float] | None


@dataclass(frozen=True)
class MatchedJob:
    """One accounting entry with the host streams that observed it."""

    entry: AccountingEntry
    hosts: tuple[HostData, ...]

    @property
    def jobid(self) -> str:
        return self.entry.job_number

    @property
    def complete(self) -> bool:
        """All granted nodes reported stats for this job."""
        return len(self.hosts) == self.entry.granted_nodes


@dataclass(frozen=True)
class ViewMatchedJob:
    """Like :class:`MatchedJob`, but naming hosts instead of holding them."""

    entry: AccountingEntry
    hostnames: tuple[str, ...]

    @property
    def jobid(self) -> str:
        return self.entry.job_number

    @property
    def complete(self) -> bool:
        """All granted nodes reported stats for this job."""
        return len(self.hostnames) == self.entry.granted_nodes


@dataclass
class MatchReport:
    """Bookkeeping of the match pass.

    ``matched`` holds :class:`MatchedJob` from :func:`match_jobs` and
    :class:`ViewMatchedJob` from :func:`match_job_views`; the counters
    and rate are identical either way.
    """

    matched: list[MatchedJob] = field(default_factory=list)
    too_short: list[str] = field(default_factory=list)
    no_stats: list[str] = field(default_factory=list)
    window_mismatch: list[str] = field(default_factory=list)
    partial: list[str] = field(default_factory=list)

    @property
    def match_rate(self) -> float:
        total = (
            len(self.matched) + len(self.no_stats) + len(self.window_mismatch)
        )
        return len(self.matched) / total if total else 0.0


def host_job_views(host: HostData) -> dict[str, HostJobView]:
    """Every job this host's stream mentions, as matcher views.

    One pass over the blocks collects each job's tagged-block span; mark
    windows come from :meth:`HostData.job_window`.  Jobs appearing only
    in marks (no tagged blocks survive) still get a view, because the
    matcher counts such hosts when their mark window fits.
    """
    span_first: dict[str, float] = {}
    span_last: dict[str, float] = {}
    for b in host.blocks:
        for jid in b.jobids:
            if jid not in span_first:
                span_first[jid] = b.time
            span_last[jid] = b.time
    seen = {m.jobid for m in host.marks}
    seen.update(span_first)
    out: dict[str, HostJobView] = {}
    for jid in seen:
        span = ((span_first[jid], span_last[jid])
                if jid in span_first else None)
        out[jid] = HostJobView(
            hostname=host.hostname,
            jobid=jid,
            mark_window=host.job_window(jid),
            block_span=span,
        )
    return out


def match_job_views(
    entries: list[AccountingEntry],
    views: list[HostJobView],
    min_seconds: float = 600.0,
) -> tuple[list[ViewMatchedJob], MatchReport]:
    """Join accounting to per-host job views.

    Host order within each match follows the order hosts first appear in
    *views* — pass views in sorted-hostname order for deterministic
    output.  Returns the matches plus the bookkeeping report (the
    report's ``matched`` list holds the same :class:`ViewMatchedJob`
    objects).
    """
    by_job: dict[str, list[HostJobView]] = {}
    for v in views:
        by_job.setdefault(v.jobid, []).append(v)

    matched: list[ViewMatchedJob] = []
    report = MatchReport()
    for entry in entries:
        jid = entry.job_number
        if entry.wall_seconds < min_seconds:
            report.too_short.append(jid)
            continue
        candidates = by_job.get(jid, [])
        if not candidates:
            report.no_stats.append(jid)
            continue
        ok: list[str] = []
        window_bad = False
        for v in candidates:
            w = v.mark_window
            if w is None:
                # Stream saw the job but lost a mark (crash) — usable if
                # it has tagged blocks inside the accounting window.
                if v.block_span is None:
                    continue
                w = v.block_span
            begin, end = w
            if (begin < entry.start_time - CLOCK_SLACK
                    or end > entry.end_time + CLOCK_SLACK):
                window_bad = True
                continue
            ok.append(v.hostname)
        if not ok:
            if window_bad:
                report.window_mismatch.append(jid)
            else:
                report.no_stats.append(jid)
            continue
        mj = ViewMatchedJob(entry=entry, hostnames=tuple(ok))
        if not mj.complete:
            report.partial.append(jid)
        matched.append(mj)
        report.matched.append(mj)
    return matched, report


def match_jobs(
    entries: list[AccountingEntry],
    hosts: list[HostData],
    min_seconds: float = 600.0,
) -> MatchReport:
    """Join accounting to stats.

    Parameters
    ----------
    entries:
        Parsed accounting records.
    hosts:
        Parsed per-host streams (any hosts; the index is built here).
    min_seconds:
        Exclusion threshold (default: one sampling interval).
    """
    views: list[HostJobView] = []
    by_name: dict[str, HostData] = {}
    for h in hosts:
        by_name[h.hostname] = h
        views.extend(host_job_views(h).values())
    matched, report = match_job_views(entries, views, min_seconds)
    report.matched = [
        MatchedJob(entry=m.entry,
                   hosts=tuple(by_name[n] for n in m.hostnames))
        for m in matched
    ]
    return report
