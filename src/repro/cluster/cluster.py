"""Cluster container: node pool, allocation bookkeeping, outage application.

The scheduler engine owns *when* things happen; this class owns *which nodes*
are involved and guarantees the two core safety invariants tested by the
property suite: a node is never allocated to two jobs, and released/failed
nodes always return to a consistent state.
"""

from __future__ import annotations

from repro.cluster.filesystem import FilesystemSpec, FilesystemState
from repro.cluster.hardware import NodeHardware
from repro.cluster.interconnect import Fabric, InterconnectSpec
from repro.cluster.node import Node, NodeState, node_hostname

__all__ = ["Cluster", "AllocationError"]


class AllocationError(Exception):
    """Raised when an allocation request cannot be satisfied."""


class Cluster:
    """A pool of identical compute nodes plus shared services.

    Parameters
    ----------
    name:
        System name (``"ranger"``) used in hostnames and records.
    num_nodes:
        Node count.
    hardware:
        Per-node hardware description.
    filesystems:
        Shared mounts (each gets a live :class:`FilesystemState`).
    interconnect:
        Fabric description.
    """

    def __init__(
        self,
        name: str,
        num_nodes: int,
        hardware: NodeHardware,
        filesystems: tuple[FilesystemSpec, ...] = (),
        interconnect: InterconnectSpec | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.name = name
        self.hardware = hardware
        self.nodes = [
            Node(index=i, hostname=node_hostname(i, name), hardware=hardware)
            for i in range(num_nodes)
        ]
        self.filesystems = {
            spec.name: FilesystemState(spec) for spec in filesystems
        }
        self.fabric = Fabric(interconnect or InterconnectSpec(), num_nodes)
        # Free list kept sorted-ish for deterministic placement; allocation
        # order does not affect analytics but must be reproducible.
        self._free: list[int] = list(range(num_nodes))
        self._allocated: dict[str, list[int]] = {}

    # -- capacity ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def free_count(self) -> int:
        """Nodes currently available for scheduling."""
        return len(self._free)

    @property
    def active_count(self) -> int:
        """Nodes that are up (free or allocated) — Figure 8's quantity."""
        return sum(1 for n in self.nodes if n.state is not NodeState.DOWN)

    @property
    def busy_count(self) -> int:
        return sum(1 for n in self.nodes if n.state is NodeState.ALLOCATED)

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.hardware.cores

    @property
    def peak_tflops(self) -> float:
        """System peak in TFLOP/s (Ranger full scale: 579 TF)."""
        return self.num_nodes * self.hardware.peak_gflops / 1000.0

    # -- allocation -------------------------------------------------------

    def allocate(self, jobid: str, n: int) -> list[int]:
        """Allocate *n* free nodes to *jobid*; returns their indices.

        Raises
        ------
        AllocationError
            If fewer than *n* nodes are free, or the job already holds nodes.
        """
        if n <= 0:
            raise AllocationError(f"job {jobid}: requested {n} nodes")
        if jobid in self._allocated:
            raise AllocationError(f"job {jobid} already holds nodes")
        if n > len(self._free):
            raise AllocationError(
                f"job {jobid}: need {n} nodes, only {len(self._free)} free"
            )
        picked = self._free[:n]
        del self._free[:n]
        for i in picked:
            self.nodes[i].allocate(jobid)
        self._allocated[jobid] = picked
        return list(picked)

    def release(self, jobid: str) -> list[int]:
        """Release all nodes held by *jobid*; returns their indices.

        Nodes that went DOWN while the job ran stay down (they re-enter the
        pool via :meth:`end_outage`).
        """
        if jobid not in self._allocated:
            raise AllocationError(f"job {jobid} holds no nodes")
        held = self._allocated.pop(jobid)
        returned = []
        for i in held:
            node = self.nodes[i]
            if node.state is NodeState.ALLOCATED and node.jobid == jobid:
                node.release()
                returned.append(i)
        self._free.extend(returned)
        self._free.sort()
        return returned

    def nodes_of(self, jobid: str) -> list[int]:
        """Indices currently held by *jobid* (empty if none)."""
        return list(self._allocated.get(jobid, ()))

    # -- outages ----------------------------------------------------------

    def begin_outage(self, node_indices: list[int] | None) -> set[str]:
        """Take nodes down; returns ids of jobs that lost a node.

        ``None`` means full-system.  Victim jobs keep their *other* nodes
        allocated until the scheduler fails them via :meth:`release`.
        """
        targets = range(self.num_nodes) if node_indices is None else node_indices
        victims: set[str] = set()
        for i in targets:
            node = self.nodes[i]
            if node.state is NodeState.DOWN:
                continue
            if node.state is NodeState.FREE:
                self._free.remove(i)
            victim = node.mark_down()
            if victim is not None:
                victims.add(victim)
        return victims

    def end_outage(self, node_indices: list[int] | None, now: float) -> int:
        """Bring nodes back up; returns how many came back."""
        targets = range(self.num_nodes) if node_indices is None else node_indices
        restored = 0
        for i in targets:
            node = self.nodes[i]
            if node.state is NodeState.DOWN:
                node.mark_up(now)
                self._free.append(i)
                restored += 1
        self._free.sort()
        return restored

    # -- invariant check (used by tests/property suite) --------------------

    def check_invariants(self) -> None:
        """Assert internal consistency; raises AssertionError on violation."""
        free_set = set(self._free)
        assert len(free_set) == len(self._free), "duplicate entries in free list"
        seen: dict[int, str] = {}
        for jobid, held in self._allocated.items():
            for i in held:
                assert i not in free_set, f"node {i} both free and in job {jobid}"
                node = self.nodes[i]
                if node.state is NodeState.ALLOCATED:
                    assert node.jobid == jobid, (
                        f"node {i} tagged {node.jobid} but held by {jobid}"
                    )
                    assert i not in seen, (
                        f"node {i} in jobs {seen[i]} and {jobid}"
                    )
                    seen[i] = jobid
        for i in free_set:
            assert self.nodes[i].state is NodeState.FREE, (
                f"node {i} in free list but state {self.nodes[i].state}"
            )
