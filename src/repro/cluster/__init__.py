"""Cluster hardware substrate: nodes, processors, filesystems, fabric, outages.

This package models just enough of a Linux HPC cluster for the TACC_Stats
collectors to have something real to measure: per-socket core layouts and
architecture-specific performance-counter event sets, Lustre/NFS mounts with
quotas and purge policy, an InfiniBand fabric, and an outage process that
produces the planned/unplanned downtime visible in the paper's Figure 8.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.cluster": ("AllocationError", "Cluster"),
    "repro.cluster.filesystem": ("FilesystemSpec", "FilesystemState"),
    "repro.cluster.hardware": ("NodeHardware", "ProcessorSpec"),
    "repro.cluster.interconnect": ("Fabric", "InterconnectSpec"),
    "repro.cluster.node": ("Node", "NodeState"),
    "repro.cluster.outages": ("Outage", "OutageGenerator", "OutageKind"),
})
