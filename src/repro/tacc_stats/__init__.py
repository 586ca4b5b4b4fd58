"""TACC_Stats reproduction: job-aware, per-node resource measurement.

The collector suite mirrors the original tool (paper §3): one sampler
per node (:class:`~repro.tacc_stats.synth.NodeSynth`) is invoked at job
begin, every ten minutes, and at job end; it samples per-core CPU,
per-socket memory and NUMA, VM activity, network/block devices,
InfiniBand, Lustre (per mount), Lustre networking, process stats, SysV
IPC, IRQs, ram-backed filesystems, dentry/file/inode caches, and
architecture-specific hardware performance counters, and serializes
everything in a unified, self-describing plain-text format tagged with
batch job ids.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.tacc_stats.archive": ("ArchiveStats", "HostArchive"),
    "repro.tacc_stats.collectors.base": ("SampleContext",),
    "repro.tacc_stats.format": ("StatsWriter",),
    "repro.tacc_stats.parser": ("ParseError", "parse_host_text"),
    "repro.tacc_stats.schema": ("SchemaEntry", "TypeSchema"),
    "repro.tacc_stats.types": ("HostData", "Mark", "TimestampBlock"),
})
