"""Scheduling policies: plain FCFS and EASY backfill.

The policy answers one question — *which pending jobs start now?* — given
the queue, the free-node count, and walltime-based estimates of when running
jobs will release nodes.  EASY backfill (the production policy on both of
the paper's systems) lets later jobs jump the head as long as they cannot
delay the head's earliest possible start; the FCFS variant exists as the
ablation baseline (``bench_ablation_scheduler``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.scheduler.job import JobRequest
from repro.scheduler.queue import WaitQueue

__all__ = ["RunningJob", "SchedulingPolicy", "FCFSPolicy", "EasyBackfillPolicy"]


@dataclass(frozen=True)
class RunningJob:
    """What the policy may know about a running job: its walltime-based
    completion estimate and how many nodes it will release — information
    a production scheduler genuinely has at dispatch time."""

    jobid: str
    estimated_end: float
    nodes: int


class SchedulingPolicy(ABC):
    """Interface: pick pending jobs to start immediately."""

    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        queue: WaitQueue,
        free_nodes: int,
        running: list[RunningJob],
        now: float,
    ) -> list[JobRequest]:
        """Return requests to start now, in start order.

        The returned jobs' node counts must sum to at most *free_nodes*;
        the engine validates this and would raise on a buggy policy.
        """


class FCFSPolicy(SchedulingPolicy):
    """Strict first-come-first-served: start head jobs while they fit; the
    first job that does not fit blocks everything behind it."""

    name = "fcfs"

    def select(self, queue, free_nodes, running, now):
        picked: list[JobRequest] = []
        for req in queue:
            if req.nodes > free_nodes:
                break
            picked.append(req)
            free_nodes -= req.nodes
        return picked


class EasyBackfillPolicy(SchedulingPolicy):
    """EASY (aggressive) backfill.

    1. Start head jobs while they fit.
    2. When the head does not fit, compute its *shadow time* — the earliest
       instant enough nodes will be free assuming running jobs exit at their
       walltime estimates — and the *extra* nodes left over at that instant.
    3. A later job may backfill iff it fits now AND (it will finish before
       the shadow time, by its own walltime estimate, OR it needs no more
       than the extra nodes).

    Parameters
    ----------
    max_backfill_depth:
        How far past the head to scan (production schedulers bound this for
        cost; also keeps the simulation O(queue) per event).
    """

    name = "easy_backfill"

    def __init__(self, max_backfill_depth: int = 100):
        if max_backfill_depth < 0:
            raise ValueError("max_backfill_depth must be >= 0")
        self.max_backfill_depth = max_backfill_depth

    def select(self, queue, free_nodes, running, now):
        picked: list[JobRequest] = []
        pending = queue.as_list()
        i = 0

        # Phase 1: FCFS prefix.
        while i < len(pending) and pending[i].nodes <= free_nodes:
            picked.append(pending[i])
            free_nodes -= pending[i].nodes
            i += 1
        if i >= len(pending):
            return picked

        head = pending[i]
        shadow_time, extra_nodes = self._reservation(
            head, free_nodes, running, now
        )

        # Phase 2: backfill behind the head.
        scanned = 0
        for req in pending[i + 1:]:
            if scanned >= self.max_backfill_depth:
                break
            scanned += 1
            if req.nodes > free_nodes:
                continue
            finishes_before_shadow = now + req.walltime_req <= shadow_time
            fits_in_extra = req.nodes <= extra_nodes
            if finishes_before_shadow or fits_in_extra:
                picked.append(req)
                free_nodes -= req.nodes
                if not finishes_before_shadow:
                    extra_nodes -= req.nodes

        return picked

    @staticmethod
    def _reservation(
        head: JobRequest,
        free_nodes: int,
        running: list[RunningJob],
        now: float,
    ) -> tuple[float, int]:
        """(shadow_time, extra_nodes) for the blocked head job.

        Walk running jobs in estimated-end order, accumulating released
        nodes until the head fits.  If it can never fit (head larger than
        the machine minus down nodes), reserve at +infinity so nothing is
        throttled by the shadow rule — backfill then degrades gracefully to
        "fits in free nodes".
        """
        avail = free_nodes
        for rj in sorted(running, key=lambda r: r.estimated_end):
            if avail >= head.nodes:
                break
            avail += rj.nodes
            if avail >= head.nodes:
                return max(rj.estimated_end, now), avail - head.nodes
        if avail >= head.nodes:
            # Head fits in currently free nodes — caller logic prevents
            # this, but a well-defined answer beats an assertion here.
            return now, avail - head.nodes
        return float("inf"), 0
