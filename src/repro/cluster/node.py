"""Compute node state.

A node is either up (free or allocated to exactly one job — both Ranger and
Lonestar4 schedule nodes exclusively) or down.  The node object also carries
the identity rendered into TACC_Stats headers and syslog lines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cluster.hardware import NodeHardware

__all__ = ["NodeState", "Node", "node_hostname"]


def node_hostname(index: int, system: str) -> str:
    """Fully qualified name of node *index* of *system*: rack and slot,
    ``cRRR-SSS.<system>`` — the one place the format is written."""
    return f"c{index // 100:03d}-{index % 100:03d}.{system}"


class NodeState(enum.Enum):
    """Lifecycle of a compute node."""

    FREE = "free"
    ALLOCATED = "allocated"
    DOWN = "down"


@dataclass
class Node:
    """One compute node.

    Attributes
    ----------
    index:
        Position in the cluster (0-based).
    hostname:
        Fully qualified name rendered into collector output and logs.
    hardware:
        Immutable hardware description.
    state:
        Current :class:`NodeState`.
    jobid:
        Id of the job occupying the node, or ``None``.
    boot_time:
        Facility epoch of the last (re)boot; TACC_Stats reports uptime.
    """

    index: int
    hostname: str
    hardware: NodeHardware
    state: NodeState = NodeState.FREE
    jobid: str | None = None
    boot_time: float = 0.0

    def allocate(self, jobid: str) -> None:
        """Assign this node to *jobid*; only legal from FREE."""
        if self.state is not NodeState.FREE:
            raise RuntimeError(
                f"{self.hostname}: cannot allocate in state {self.state.value} "
                f"(current job {self.jobid})"
            )
        self.state = NodeState.ALLOCATED
        self.jobid = jobid

    def release(self) -> None:
        """Return the node to the free pool; only legal from ALLOCATED."""
        if self.state is not NodeState.ALLOCATED:
            raise RuntimeError(
                f"{self.hostname}: cannot release in state {self.state.value}"
            )
        self.state = NodeState.FREE
        self.jobid = None

    def mark_down(self) -> str | None:
        """Take the node down (outage / crash).

        Returns the id of the job that was running on it, if any — the
        scheduler uses this to fail the job.
        """
        victim = self.jobid
        self.state = NodeState.DOWN
        self.jobid = None
        return victim

    def mark_up(self, now: float) -> None:
        """Bring the node back after an outage (resets uptime)."""
        if self.state is not NodeState.DOWN:
            raise RuntimeError(f"{self.hostname}: mark_up from {self.state.value}")
        self.state = NodeState.FREE
        self.boot_time = now

    @property
    def is_free(self) -> bool:
        return self.state is NodeState.FREE
