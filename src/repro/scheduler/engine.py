"""Discrete-event scheduler engine.

Consumes a submit-time-ordered stream of :class:`JobRequest` and an outage
schedule, drives them through a :class:`repro.cluster.Cluster` under a
:class:`SchedulingPolicy`, and emits :class:`JobRecord` objects plus an
active-node timeline (the raw material of the paper's Figure 8).

Event ordering at equal timestamps is fixed (outage-end < job-finish <
arrival < outage-start) so runs are bit-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.outages import Outage
from repro.scheduler.job import ExitStatus, JobRecord, JobRequest
from repro.scheduler.policies import RunningJob, SchedulingPolicy
from repro.scheduler.queue import WaitQueue

__all__ = ["SchedulerEngine", "SimulationResult"]

# Same-timestamp event priorities.
_P_OUTAGE_END = 0
_P_FINISH = 1
_P_ARRIVAL = 2
_P_OUTAGE_START = 3


@dataclass
class _Running:
    request: JobRequest
    start: float
    nodes: tuple[int, ...]
    finish_event_id: int


@dataclass
class SimulationResult:
    """Output of one scheduler run.

    Attributes
    ----------
    records:
        Completed jobs in end-time order.
    active_node_timeline:
        ``(time, active_count)`` step function samples — one entry per
        change (outage begin/end), anchored at t=0 and at the horizon.
    dropped:
        Requests never started (still queued at horizon).
    max_queue_depth:
        Peak number of simultaneously pending jobs (diagnostic).
    """

    records: list[JobRecord]
    active_node_timeline: list[tuple[float, int]]
    dropped: list[JobRequest]
    max_queue_depth: int = 0

    @property
    def total_node_hours(self) -> float:
        return sum(r.node_hours for r in self.records)

    def utilization(self, num_nodes: int, horizon: float) -> float:
        """Delivered node-hours over up-node-hours (uses the timeline)."""
        up_node_seconds = 0.0
        tl = self.active_node_timeline
        for (t0, n), (t1, _) in zip(tl, tl[1:]):
            up_node_seconds += n * (t1 - t0)
        if up_node_seconds <= 0:
            return 0.0
        return self.total_node_hours * 3600.0 / up_node_seconds


class SchedulerEngine:
    """Run one workload through one cluster under one policy."""

    def __init__(self, cluster: Cluster, policy: SchedulingPolicy):
        self.cluster = cluster
        self.policy = policy

    def run(
        self,
        requests: list[JobRequest],
        outages: list[Outage] | None = None,
        horizon: float | None = None,
    ) -> SimulationResult:
        """Simulate until all jobs finish or *horizon* (whichever first).

        Jobs still running at the horizon are terminated as CANCELLED (a
        drain, exactly what happens at a real decommission — Ranger's study
        period ends at its February 2013 shutdown); jobs still queued are
        returned in ``dropped``.
        """
        outages = outages or []
        if horizon is None:
            horizon = float("inf")

        heap: list[tuple[float, int, int, object]] = []
        counter = itertools.count()

        def push(t: float, prio: int, payload: object) -> int:
            eid = next(counter)
            heapq.heappush(heap, (t, prio, eid, payload))
            return eid

        for req in requests:
            if req.submit_time <= horizon:
                push(req.submit_time, _P_ARRIVAL, ("arrival", req))
        for o in outages:
            if o.start < horizon:
                push(o.start, _P_OUTAGE_START, ("outage_start", o))
                push(min(o.end, horizon), _P_OUTAGE_END, ("outage_end", o))

        queue = WaitQueue()
        running: dict[str, _Running] = {}
        # The policy's view of running jobs changes only on start/finish;
        # rebuilding it per event is O(running) on every arrival, which
        # profiling shows dominating large runs.
        run_view_cache: list[RunningJob] | None = None
        cancelled_finish_events: set[int] = set()
        records: list[JobRecord] = []
        timeline: list[tuple[float, int]] = [(0.0, self.cluster.active_count)]
        max_queue_depth = 0
        now = 0.0

        def record_timeline(t: float) -> None:
            n = self.cluster.active_count
            if timeline[-1][1] != n:
                timeline.append((t, n))

        def finish_job(jobid: str, t: float, status: ExitStatus) -> None:
            nonlocal run_view_cache
            run_view_cache = None
            rj = running.pop(jobid)
            cancelled_finish_events.add(rj.finish_event_id)
            self.cluster.release(jobid)
            records.append(
                JobRecord(
                    request=rj.request,
                    start_time=rj.start,
                    end_time=t,
                    node_indices=rj.nodes,
                    exit_status=status,
                )
            )

        def try_schedule(t: float) -> None:
            nonlocal run_view_cache
            if run_view_cache is None:
                run_view_cache = [
                    RunningJob(
                        jobid=j,
                        estimated_end=rj.start + rj.request.walltime_req,
                        nodes=rj.request.nodes,
                    )
                    for j, rj in running.items()
                ]
            run_view = run_view_cache
            picked = self.policy.select(queue, self.cluster.free_count, run_view, t)
            need = sum(p.nodes for p in picked)
            if need > self.cluster.free_count:
                raise RuntimeError(
                    f"policy {self.policy.name} oversubscribed: picked {need} "
                    f"nodes with {self.cluster.free_count} free"
                )
            if picked:
                run_view_cache = None
            for req in picked:
                nodes = tuple(self.cluster.allocate(req.jobid, req.nodes))
                end = t + req.effective_runtime
                eid = push(end, _P_FINISH, ("finish", req.jobid))
                running[req.jobid] = _Running(req, t, nodes, eid)
                queue.remove(req.jobid)

        while heap:
            t, prio, eid, payload = heapq.heappop(heap)
            if t > horizon:
                break
            now = t
            kind = payload[0]

            if kind == "finish":
                jobid = payload[1]
                if eid in cancelled_finish_events or jobid not in running:
                    continue
                finish_job(jobid, t, running[jobid].request.natural_exit())
                try_schedule(t)

            elif kind == "arrival":
                queue.push(payload[1])
                max_queue_depth = max(max_queue_depth, len(queue))
                try_schedule(t)

            elif kind == "outage_start":
                outage: Outage = payload[1]
                victims = self.cluster.begin_outage(
                    list(outage.nodes) if outage.nodes is not None else None
                )
                for jobid in sorted(victims):
                    finish_job(jobid, t, ExitStatus.NODE_FAIL)
                record_timeline(t)

            elif kind == "outage_end":
                outage = payload[1]
                self.cluster.end_outage(
                    list(outage.nodes) if outage.nodes is not None else None, t
                )
                record_timeline(t)
                try_schedule(t)

            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event {kind!r}")

        # Horizon drain: terminate running jobs, collect never-started ones.
        end_t = min(now, horizon) if horizon != float("inf") else now
        if horizon != float("inf"):
            end_t = horizon
        for jobid in sorted(running):
            finish_job(jobid, end_t, ExitStatus.CANCELLED)
        dropped = queue.as_list()
        record_timeline(end_t)
        if timeline[-1][0] < end_t:
            timeline.append((end_t, self.cluster.active_count))

        records.sort(key=lambda r: (r.end_time, r.jobid))
        self.cluster.check_invariants()
        return SimulationResult(
            records=records,
            active_node_timeline=timeline,
            dropped=dropped,
            max_queue_depth=max_queue_depth,
        )
