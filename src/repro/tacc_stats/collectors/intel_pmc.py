"""``intel_pmc`` collector: Intel Nehalem/Westmere performance counters.

The event set programmed at job begin is FLOPS (FP_COMP_OPS_EXE), QPI
(SMP/NUMA) traffic, and L1D hits (paper §3).  Crucially,
``FP_COMP_OPS_EXE`` on Westmere counts *issued* FP micro-ops, not retired
SSE FLOPs — it systematically over-counts relative to the Opteron's
``SSE_FLOPS`` event.  The paper calls this out: "Lonestar4 flops ... were
not comparable to the Ranger plot because they were not SSE flops."  We
model the over-count with :data:`FP_OVERCOUNT` so the cross-system
incomparability is reproduced, not papered over.
"""

from __future__ import annotations

import numpy as np

from repro.tacc_stats.collectors.base import (
    BlockContext,
    Collector,
    SampleContext,
    core_fractions,
    core_fractions_block,
)
from repro.tacc_stats.schema import SchemaEntry, TypeSchema

__all__ = ["IntelPmcCollector", "INTEL_EVENT_CODES", "FP_OVERCOUNT"]

INTEL_EVENT_CODES: dict[str, int] = {
    "FP_COMP_OPS": 0x530110,
    "QPI_TRAFFIC": 0x530020,
    "L1D_HITS": 0x530140,
    # Sandy Bridge (Stampede archetype): AVX FP ops and last-level-cache
    # misses; counter semantics are unchanged (ctr0 carries the FP
    # event, ctr2 the cache event), only the programmed codes differ.
    "SIMD_FP_256": 0x530211,
    "LLC_MISSES": 0x53412E,
}

#: Issued-vs-retired over-count of FP_COMP_OPS_EXE relative to true FLOPs.
FP_OVERCOUNT = 1.8

USER_PROGRAMMED_PROB = 0.02
_FOREIGN_CODE = 0x53003C  # UNHALTED_CORE_CYCLES

_CACHE_LINE = 64.0


class IntelPmcCollector(Collector):
    """FIXED_CTR0 (instructions) + ctl/ctr pairs for 3 programmable PMCs."""

    def __init__(self, node, rng):
        super().__init__(node, rng)
        self._user_programmed = False

    @property
    def type_name(self) -> str:
        return "intel_pmc"

    def build_schema(self) -> TypeSchema:
        entries = [SchemaEntry("FIXED_CTR0", is_event=True, width=48)]
        entries += [SchemaEntry(f"ctl{i}") for i in range(3)]
        entries += [
            SchemaEntry(f"ctr{i}", is_event=True, width=48) for i in range(3)
        ]
        return TypeSchema("intel_pmc", tuple(entries))

    def build_devices(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.node.hardware.cores))

    def on_job_begin(self, jobid: str, time: float) -> None:
        self._user_programmed = self.rng.random() < USER_PROGRAMMED_PROB
        codes = (
            [_FOREIGN_CODE] * 3
            if self._user_programmed
            else [INTEL_EVENT_CODES[e] for e in self.node.hardware.processor.pmc_events]
        )
        for dev in self.devices:
            acc = self._acc[dev]
            acc[0] = 0.0          # FIXED_CTR0
            acc[1:4] = codes      # ctl0-2
            acc[4:] = 0.0         # ctr0-2

    def advance(self, ctx: SampleContext) -> None:
        dt = ctx.dt
        if dt <= 0 or ctx.rates is None:
            return
        clock = self.node.hardware.processor.clock_ghz * 1e9
        n = self.node.hardware.cores
        user_f = ctx.rate("cpu_user_frac")
        active = core_fractions(user_f, n)
        total_active = max(active.sum(), 1e-9)

        if self._user_programmed:
            for c, dev in enumerate(self.devices):
                ipc = 1.1 * active[c]
                self.bump(dev, "FIXED_CTR0", ipc * clock * dt)
                for i in range(3):
                    self.bump(dev, f"ctr{i}", active[c] * clock * dt)
            return

        node_flops = ctx.rate("flops_gf") * 1e9
        qpi_bytes = (ctx.rate("net_mpi_mb") * 1e6) * 1.5 + ctx.rate("mem_used_gb") * 1e7
        for c, dev in enumerate(self.devices):
            share = active[c] / total_active
            ipc = 1.1 * active[c]
            self.bump(dev, "FIXED_CTR0", self.noisy(ipc * clock * dt))
            self.bump(dev, "ctr0",
                      self.noisy(node_flops * FP_OVERCOUNT * share * dt))
            self.bump(dev, "ctr1",
                      self.noisy(qpi_bytes * share / _CACHE_LINE * dt))
            self.bump(dev, "ctr2",
                      self.noisy(0.35 * clock * active[c] * dt))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        # One begin segment per call (see amd64_pmc).
        n = self.node.hardware.cores
        dt = np.asarray(block.dts, dtype=np.float64)
        clock = self.node.hardware.processor.clock_ghz * 1e9
        active = core_fractions_block(block.rate("cpu_user_frac"), n)
        inc = np.zeros((block.n, n, self._schema.n_values))
        if self._user_programmed:
            # Idle rows have active == 0, so they contribute nothing —
            # same as the scalar guard.
            ipc = 1.1 * active
            mask = ((~block.idle) & (dt > 0)).astype(np.float64)
            inc[:, :, 0] = ipc * clock * dt[:, None] * mask[:, None]
            inc[:, :, 4:] = (active * clock * dt[:, None] * mask[:, None])[:, :, None]
        else:
            total_active = np.maximum(active.sum(axis=1), 1e-9)
            share = active / total_active[:, None]
            node_flops = block.rate("flops_gf") * 1e9
            qpi_bytes = (block.rate("net_mpi_mb") * 1e6) * 1.5 \
                + block.rate("mem_used_gb") * 1e7
            ipc = 1.1 * active
            amounts = np.stack([
                ipc * clock * dt[:, None],
                node_flops[:, None] * FP_OVERCOUNT * share * dt[:, None],
                qpi_bytes[:, None] * share / _CACHE_LINE * dt[:, None],
                0.35 * clock * active * dt[:, None],
            ], axis=-1)
            drawn = self.noisy_block(amounts)
            inc[:, :, 0] = drawn[..., 0]
            inc[:, :, 4:] = drawn[..., 1:]
        return self.wrap_block(self.accumulate_block(inc))

    @property
    def user_programmed(self) -> bool:
        return self._user_programmed
