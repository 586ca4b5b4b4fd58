"""``amd64_pmc`` collector: AMD Opteron hardware performance counters.

Each core has four programmable counter slots.  Following the original
tool (paper §3): at **job begin** the control registers are reprogrammed to
TACC's event set — SSE FLOPS, DRAM accesses, data-cache fills from system,
and HyperTransport link traffic — and the count registers reset; at
**periodic invocations** the counters are only *read*, never reprogrammed,
so a user who programmed their own events mid-job keeps them (we model
this as the rare job whose PMC rows carry foreign control codes and are
skipped by the summarizer).

Counters are 48-bit, so unlike the 32-bit IB counters they effectively
never roll over within a job.
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

__all__ = ["Amd64PmcCollector", "AMD64_EVENT_CODES"]

#: Control-register event codes (values are the tool's constants).
AMD64_EVENT_CODES: dict[str, int] = {
    "SSE_FLOPS": 0x4300C3,
    "DRAM_ACCESSES": 0x4300E0,
    "DCACHE_SYS_FILLS": 0x43004E,
    "HT_LINK_TRAFFIC": 0x4300F6,
}

#: Probability a job programs its own counters (papi/perfctr users).
USER_PROGRAMMED_PROB = 0.02
_FOREIGN_CODE = 0x430076  # CPU_CLK_UNHALTED, a common user choice

_CACHE_LINE = 64.0


class Amd64PmcCollector(Collector):
    """ctl0-3 (programmed event codes) + ctr0-3 (48-bit counts) per core."""

    def __init__(self, node, rng):
        super().__init__(node, rng)
        self._user_programmed = False

    @property
    def type_name(self) -> str:
        return "amd64_pmc"

    def build_schema(self) -> TypeSchema:
        entries = [SchemaEntry(f"ctl{i}") for i in range(4)]
        entries += [
            SchemaEntry(f"ctr{i}", is_event=True, width=48) for i in range(4)
        ]
        return TypeSchema("amd64_pmc", tuple(entries))

    def build_devices(self) -> tuple[str, ...]:
        return tuple(str(i) for i in range(self.node.hardware.cores))

    def on_job_begin(self, jobid: str, time: float) -> None:
        """Reprogram: write TACC control codes and zero the counters."""
        self._user_programmed = self.rng.random() < USER_PROGRAMMED_PROB
        codes = (
            [_FOREIGN_CODE] * 4
            if self._user_programmed
            else [AMD64_EVENT_CODES[e] for e in self.node.hardware.processor.pmc_events]
        )
        for dev in self.devices:
            acc = self._acc[dev]
            acc[:4] = codes
            acc[4:] = 0.0

    def advance(self, ctx: SampleContext) -> None:
        dt = ctx.dt
        if dt <= 0 or ctx.rates is None:
            return
        if self._user_programmed:
            # Foreign events tick at an unrelated rate (cycles unhalted).
            clock = self.node.hardware.processor.clock_ghz * 1e9
            for dev in self.devices:
                for i in range(4):
                    self.bump(dev, f"ctr{i}", 0.25 * clock * dt)
            return
        n = self.node.hardware.cores
        user_f = ctx.rate("cpu_user_frac")
        active = core_fractions(user_f, n)
        total_active = max(active.sum(), 1e-9)

        node_flops = ctx.rate("flops_gf") * 1e9
        # Memory traffic: working-set churn plus I/O through the cache.
        dram_bytes = node_flops * 0.8 + ctx.rate("mem_used_gb") * 1e7
        ht_bytes = (ctx.rate("net_mpi_mb") * 1e6) * 1.5

        for c, dev in enumerate(self.devices):
            share = active[c] / total_active
            self.bump(dev, "ctr0", self.noisy(node_flops * share * dt))
            self.bump(dev, "ctr1",
                      self.noisy(dram_bytes * share / _CACHE_LINE * dt))
            self.bump(dev, "ctr2",
                      self.noisy(dram_bytes * share * 0.3 / _CACHE_LINE * dt))
            self.bump(dev, "ctr3",
                      self.noisy(ht_bytes * share / _CACHE_LINE * dt))

    def sample_block(self, block: BlockContext) -> np.ndarray:
        # Called once per begin segment (this class overrides
        # on_job_begin), so _user_programmed holds for every row here.
        n = self.node.hardware.cores
        dt = np.asarray(block.dts, dtype=np.float64)
        inc = np.zeros((block.n, n, self._schema.n_values))
        if self._user_programmed:
            clock = self.node.hardware.processor.clock_ghz * 1e9
            tick = np.where((~block.idle) & (dt > 0), 0.25 * clock * dt, 0.0)
            inc[:, :, 4:] = tick[:, None, None]
        else:
            active = core_fractions_block(block.rate("cpu_user_frac"), n)
            total_active = np.maximum(active.sum(axis=1), 1e-9)
            share = active / total_active[:, None]
            node_flops = block.rate("flops_gf") * 1e9
            dram_bytes = node_flops * 0.8 + block.rate("mem_used_gb") * 1e7
            ht_bytes = (block.rate("net_mpi_mb") * 1e6) * 1.5
            # Idle and dt <= 0 rows end up with zero amounts (share or dt
            # is zero), which matches the scalar guard's early return.
            ds = dram_bytes[:, None] * share
            amounts = np.stack([
                node_flops[:, None] * share * dt[:, None],
                ds / _CACHE_LINE * dt[:, None],
                ds * 0.3 / _CACHE_LINE * dt[:, None],
                ht_bytes[:, None] * share / _CACHE_LINE * dt[:, None],
            ], axis=-1)
            inc[:, :, 4:] = self.noisy_block(amounts)
        # ctl gauges stay at their carried values (set by on_job_begin);
        # a zero increment through the cumsum leaves them bit-identical.
        return self.wrap_block(self.accumulate_block(inc))

    @property
    def user_programmed(self) -> bool:
        """Whether the current job overrode the counters (read by tests)."""
        return self._user_programmed
