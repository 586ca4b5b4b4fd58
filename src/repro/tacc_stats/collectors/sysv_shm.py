"""``sysv_shm`` collector: System V shared-memory segment usage (as from
``/proc/sysvipc/shm``).  MPI implementations of this era used SysV
segments for intra-node communication, so segment count tracks the number
of MPI ranks on the node."""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import BlockContext, Collector, SampleContext
from repro.tacc_stats.schema import SchemaEntry, TypeSchema
from repro.util.units import MB

__all__ = ["SysvShmCollector"]

_SEG_MB = 32.0  # typical per-rank shared segment


class SysvShmCollector(Collector):
    """used_count / used_bytes gauges for SysV shared memory."""

    @property
    def type_name(self) -> str:
        return "sysv_shm"

    def build_schema(self) -> TypeSchema:
        return TypeSchema(
            "sysv_shm",
            (
                SchemaEntry("used_count"),
                SchemaEntry("used_bytes", unit="B"),
            ),
        )

    def build_devices(self) -> tuple[str, ...]:
        return ("-",)

    def advance(self, ctx: SampleContext) -> None:
        if ctx.rates is None:
            self.set_gauge("-", "used_count", 0)
            self.set_gauge("-", "used_bytes", 0)
            return
        cores = self.node.hardware.cores
        # Ranks ~ busy cores; communication-heavy codes map more segments.
        ranks = max(1, round(ctx.rate("cpu_user_frac") * cores))
        net = ctx.rate("net_mpi_mb")
        segs = ranks if net > 0.5 else 1
        self.set_gauge("-", "used_count", segs)
        self.set_gauge("-", "used_bytes", segs * _SEG_MB * MB)

    def sample_block(self, block: BlockContext) -> np.ndarray:
        cores = self.node.hardware.cores
        ranks = np.maximum(1.0, np.round(block.rate("cpu_user_frac") * cores))
        segs = np.where(block.rate("net_mpi_mb") > 0.5, ranks, 1.0)
        segs = np.where(block.idle, 0.0, segs)
        vals = np.empty((block.n, 1, self._schema.n_values))
        vals[:, 0, 0] = segs
        vals[:, 0, 1] = segs * _SEG_MB * MB
        return self.gauge_block(vals)
