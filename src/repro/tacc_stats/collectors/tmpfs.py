"""``tmpfs`` collector: ram-backed filesystem usage per mount (``/dev/shm``
and the job's ramdisk scratch), gauges in bytes and inodes."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector, SampleContext
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.util.units import GB, MB

__all__ = ["TmpfsCollector"]


class TmpfsCollector(Collector):
    """bytes_used / files_used per ram-backed mount."""

    @property
    def type_name(self) -> str:
        return "tmpfs"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "tmpfs",
            (
                SchemaEntry("bytes_used", unit="B"),
                SchemaEntry("files_used"),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("dev_shm", "tmp")

    def advance(self, ctx: SampleContext) -> None:
        if ctx.rates is None:
            shm_bytes, tmp_bytes = 1 * MB, 4 * MB
        else:
            # MPI shared-memory windows appear under /dev/shm; stage files
            # under /tmp scale (weakly) with local block traffic.
            shm_bytes = min(
                ctx.rate("net_mpi_mb") * 8 * MB, 2 * GB
            ) + 1 * MB
            tmp_bytes = 4 * MB + ctx.rate("block_mb") * 64 * MB
        self.set_gauge("dev_shm", "bytes_used", shm_bytes)
        self.set_gauge("dev_shm", "files_used", max(1, shm_bytes // (32 * MB)))
        self.set_gauge("tmp", "bytes_used", tmp_bytes)
        self.set_gauge("tmp", "files_used", max(4, tmp_bytes // MB // 4))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        shm_bytes = np.where(
            block.idle,
            float(1 * MB),
            np.minimum(block.rate("net_mpi_mb") * 8 * MB, 2 * GB) + 1 * MB)
        tmp_bytes = np.where(
            block.idle,
            float(4 * MB),
            4 * MB + block.rate("block_mb") * 64 * MB)
        vals = np.empty((block.n, 2, self._schema.n_values))
        vals[:, 0, 0] = shm_bytes
        vals[:, 0, 1] = np.maximum(1.0, shm_bytes // (32 * MB))
        vals[:, 1, 0] = tmp_bytes
        vals[:, 1, 1] = np.maximum(4.0, tmp_bytes // MB // 4)
        return self.gauge_block(vals)
