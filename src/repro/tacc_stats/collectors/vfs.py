"""``vfs`` collector: dentry/file/inode cache usage (as from
``/proc/sys/fs/dentry-state``, ``file-nr``, ``inode-state``)."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector, SampleContext
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["VfsCollector"]


class VfsCollector(Collector):
    """dentry_use / file_use / inode_use gauges."""

    @property
    def type_name(self) -> str:
        return "vfs"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "vfs",
            (
                SchemaEntry("dentry_use"),
                SchemaEntry("file_use"),
                SchemaEntry("inode_use"),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def advance(self, ctx: SampleContext) -> None:
        base_dentry, base_file, base_inode = 25_000.0, 1_200.0, 20_000.0
        if ctx.rates is not None:
            # Metadata-heavy I/O grows the caches.
            io_mb = (
                ctx.rate("io_scratch_write_mb") + ctx.rate("io_scratch_read_mb")
                + ctx.rate("io_work_write_mb") + ctx.rate("io_work_read_mb")
            )
            cache_gb = ctx.rate("mem_cache_gb")
            base_dentry += 2_000.0 * io_mb + 5_000.0 * cache_gb
            base_file += 40.0 * io_mb + 16 * self.node.hardware.cores
            base_inode += 1_500.0 * io_mb + 4_000.0 * cache_gb
        jitter = float(self.rng.lognormal(0.0, 0.03))
        self.set_gauge("-", "dentry_use", base_dentry * jitter)
        self.set_gauge("-", "file_use", base_file * jitter)
        self.set_gauge("-", "inode_use", base_inode * jitter)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        io_mb = (
            block.rate("io_scratch_write_mb") + block.rate("io_scratch_read_mb")
            + block.rate("io_work_write_mb") + block.rate("io_work_read_mb")
        )
        cache_gb = block.rate("mem_cache_gb")
        cores = self.node.hardware.cores
        dentry = np.where(
            block.idle, 25_000.0,
            25_000.0 + (2_000.0 * io_mb + 5_000.0 * cache_gb))
        file = np.where(
            block.idle, 1_200.0,
            1_200.0 + (40.0 * io_mb + 16 * cores))
        inode = np.where(
            block.idle, 20_000.0,
            20_000.0 + (1_500.0 * io_mb + 4_000.0 * cache_gb))
        # One unconditional jitter draw per sample, like the scalar path.
        jitter = self.rng.lognormal(0.0, 0.03, size=block.n)
        vals = np.empty((block.n, 1, self._schema.n_values))
        vals[:, 0, 0] = dentry * jitter
        vals[:, 0, 1] = file * jitter
        vals[:, 0, 2] = inode * jitter
        return self.gauge_block(vals)
