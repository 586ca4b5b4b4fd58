"""Per-job metric behaviour: the single source of truth for what a job's
nodes report.

Both measurement paths consume this class:

* the **slow path** — per-node TACC_Stats daemons integrate these rates
  into cumulative counters and serialize the real text format;
* the **fast path** — the vectorized synthesizer turns the same series
  directly into job summaries and system time series.

Because both paths are driven by the same ``(behavior_seed → PhaseModel)``
pipeline, they agree sample-for-sample, which the integration tests assert.

CPU modelling note: utilization is handled through the **idle gap**.  The
application/persona/calibration pipeline sets a base idle fraction; the
within-job "cpu" phase modulates that gap multiplicatively (mean one), and
user time absorbs the remainder.  Modulating idle rather than busy keeps
the *mean* efficiency exactly at its calibrated value (a mean-one
multiplier on a quantity clipped near 1.0 would bias it down) while giving
``cpu_idle`` the strong relative fluctuation the persistence analysis of
Table 1 requires.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.hardware import NodeHardware
from repro.util.rng import RngFactory
from repro.workload.applications import (
    RATE_INDEX,
    AppSignature,
)
from repro.workload.phases import FIELD_GROUP, GROUPS, PhaseModel
from repro.workload.users import UserProfile

__all__ = ["JobBehavior", "DerivedRates"]

_IDX = RATE_INDEX
_I_USER = _IDX["cpu_user_frac"]
_I_SYS = _IDX["cpu_sys_frac"]
_I_WAIT = _IDX["cpu_iowait_frac"]
_I_FLOPS = _IDX["flops_gf"]
_I_MEM = _IDX["mem_used_gb"]
_I_CACHE = _IDX["mem_cache_gb"]

#: job-to-job lognormal sigma per group, scaled by the app's job_sigma.
_JOB_SIGMA_SCALE = {"cpu": 0.6, "flops": 0.5, "mem": 0.7, "io": 1.3, "net": 1.0}

#: per-user factors applied per group.
_USER_FACTOR_GROUP = {"mem": "mem_factor", "io": "io_factor", "net": "net_factor"}

#: Indices of fields that take plain multiplicative modulation (everything
#: except the CPU fractions and FLOPS, which are derived from the idle gap).
_PLAIN_FIELDS = [
    i for name, i in _IDX.items()
    if i not in (_I_USER, _I_SYS, _I_WAIT, _I_FLOPS)
]


class JobBehavior:
    """Metric-rate process of one job across its lifetime.

    Parameters
    ----------
    app, user:
        Archetype and submitting user.
    node_hw:
        Hardware of the allocated nodes.
    n_nodes:
        Allocation size.
    duration:
        Seconds the job will run.
    sample_interval:
        Collector cadence (sets the phase-model grid).
    behavior_seed:
        Integer seed carried on the :class:`repro.scheduler.JobRequest`.
    util_scale:
        Facility-level calibration multiplier on CPU utilization (set by
        the workload generator to hit the configured mean efficiency).
    calibration:
        Phase-model override for ablations.
    """

    #: Share of the idle gap attributed to fast synchronization stalls,
    #: plus an absolute floor every parallel job pays (see _build_matrix).
    SYNC_IDLE_FRACTION = 0.6
    SYNC_IDLE_FLOOR = 0.04

    def __init__(
        self,
        app: AppSignature,
        user: UserProfile,
        node_hw: NodeHardware,
        n_nodes: int,
        duration: float,
        sample_interval: float,
        behavior_seed: int,
        util_scale: float = 1.0,
        calibration: dict | None = None,
        flops_scale: float = 1.0,
        variability_scale: float = 1.0,
    ):
        """*variability_scale* multiplies every stochastic sigma (job-level
        multipliers, within-job modulation, node spread).  1.0 is a normal
        production job; application kernels use ~0.1 — a fixed benchmark
        input rerun on a quiet system varies by a few percent, which is
        precisely what makes its control chart sensitive."""
        if duration <= 0 or sample_interval <= 0:
            raise ValueError("duration and sample_interval must be positive")
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if variability_scale < 0:
            raise ValueError("variability_scale must be >= 0")
        vs = variability_scale
        self.app = app
        self.user = user
        self.node_hw = node_hw
        self.n_nodes = n_nodes
        self.duration = float(duration)
        self.sample_interval = float(sample_interval)

        rf = RngFactory(behavior_seed)
        draw = rf.stream("job-level")
        arch = node_hw.processor.arch

        base = app.base_rates(node_hw.peak_gflops, node_hw.memory_gb, arch)

        # Job-level multipliers: one lognormal draw per group.  (Drawn for
        # every group, in a fixed order, so the stream stays aligned even
        # for groups consumed differently below.)
        group_mult = {}
        for g in GROUPS:
            sigma = app.job_sigma * _JOB_SIGMA_SCALE[g] * vs
            m = float(draw.lognormal(0.0, sigma))
            attr = _USER_FACTOR_GROUP.get(g)
            if attr is not None:
                m *= getattr(user, attr)
            group_mult[g] = m
        for name, idx in _IDX.items():
            if idx in (_I_USER, _I_SYS, _I_WAIT, _I_FLOPS):
                continue
            base[idx] *= group_mult[FIELD_GROUP[name]]

        # CPU: persona and facility calibration scale the busy fraction;
        # tuned community applications absorb part of a user's
        # inefficiency (app.tuning); the job-level "cpu" multiplier then
        # perturbs the *idle gap*.
        util = float(np.clip(user.util_factor * util_scale, 0.02, 1.25))
        if util < 1.0:
            util = util + (1.0 - util) * app.tuning
        self._util = util
        user_base = min(base[_I_USER] * util, 0.97)
        sys_base = base[_I_SYS]
        wait_base = base[_I_WAIT]
        idle_base = 1.0 - user_base - sys_base - wait_base
        idle_base = float(np.clip(idle_base * group_mult["cpu"], 0.005, 0.95))
        user_base = max(1.0 - idle_base - sys_base - wait_base, 0.01)
        base[_I_USER] = user_base
        self._idle_base = idle_base

        # FLOPS ride on realized utilization; flops_scale carries
        # environment-level effects (e.g. an injected software-stack
        # regression — see repro.xdmod.appkernels.PerfRegression).
        if flops_scale <= 0:
            raise ValueError("flops_scale must be positive")
        base[_I_FLOPS] *= (
            group_mult["flops"] * util * flops_scale
            * float(draw.lognormal(0.0, 0.10 * vs))
        )
        # Memory cannot exceed the node.
        cap = 0.97 * node_hw.memory_gb
        if base[_I_MEM] > cap:
            scale = cap / base[_I_MEM]
            base[_I_MEM] *= scale
            base[_I_CACHE] *= scale
        self.base = base

        # Within-job modulation on the aligned grid covering the job.
        n_steps = int(np.ceil(self.duration / self.sample_interval)) + 2
        if vs != 1.0:
            from repro.workload.phases import (
                PHASE_CALIBRATION,
                _normalize_calibration,
            )
            cal = _normalize_calibration(calibration or PHASE_CALIBRATION)
            calibration = {
                g: tuple((rho, sigma * vs) for rho, sigma in comps)
                for g, comps in cal.items()
            }
        phase = PhaseModel(
            rf.stream("phases"),
            calibration=calibration,
            step_scale=self.sample_interval / 600.0,
        )
        mod = phase.field_matrix(n_steps)

        # Memory ramps up over the first part of the run, then plateaus.
        ramp_steps = max(1.0, min(3.0, n_steps / 10.0))
        k = np.arange(n_steps)
        mem_ramp = 1.0 - np.exp(-(k + 1.0) / ramp_steps)

        # Mild static per-node spread; node 0 (the MPI rank-0 host) holds
        # extra buffers, a real and visible effect in TACC_Stats data.
        spread = draw.lognormal(0.0, 0.08 * vs, size=n_nodes)
        spread[0] *= 1.25
        self._node_mem_spread = spread
        self._node_rate_spread = draw.lognormal(0.0, 0.05 * vs, size=n_nodes)

        self._rates = self._build_matrix(mod, mem_ramp)

    # -- rate-matrix construction ---------------------------------------------

    def _build_matrix(self, mod: np.ndarray, mem_ramp: np.ndarray) -> np.ndarray:
        """Apply modulation, the idle-gap CPU model, and physical clips."""
        n = mod.shape[0]
        r = np.tile(self.base, (n, 1))
        for i in _PLAIN_FIELDS:
            r[:, i] = self.base[i] * mod[:, i]
        r[:, _I_MEM] *= mem_ramp
        r[:, _I_CACHE] *= mem_ramp
        cap = 0.99 * self.node_hw.memory_gb
        np.minimum(r[:, _I_MEM], cap, out=r[:, _I_MEM])
        np.minimum(r[:, _I_CACHE], r[:, _I_MEM], out=r[:, _I_CACHE])

        # CPU fractions from the modulated idle gap.  Idle has two
        # components: the slow persona/efficiency gap (cpu group) and fast
        # synchronization stalls — MPI ranks spinning on I/O or
        # communication imbalance — which ride the bursty io-group series.
        # The split keeps the mean at idle_base (both modulations are
        # mean-one) while giving system-level cpu_idle the fast
        # decorrelation the paper measures (Table 1: idle decorrelates
        # like net, much faster than mem/flops).
        sys_f = np.full(n, self.base[_I_SYS])
        wait = np.clip(self.base[_I_WAIT] * mod[:, _I_WAIT], 0.0, 0.5)
        if self._idle_base <= 0.5:
            # Busy job: modulate the (small) idle gap — slow efficiency
            # wander plus fast synchronization stalls.
            sync_base = min(self.SYNC_IDLE_FRACTION * self._idle_base
                            + self.SYNC_IDLE_FLOOR, self._idle_base)
            slow_base = self._idle_base - sync_base
            # Idle spikes are bounded by whatever system/iowait leave
            # over (minus a floor of user time), so user can never go
            # negative no matter how the modulations align.
            idle_cap = np.maximum(1.0 - sys_f - wait - 0.002, 0.002)
            idle = np.clip(
                slow_base * mod[:, _I_USER] + sync_base * mod[:, _I_WAIT],
                0.002, idle_cap,
            )
            user = np.maximum(1.0 - idle - sys_f - wait, 0.002)
        else:
            # Mostly-idle job (the Figure 4/5 pathology): the small *busy*
            # side is what fluctuates — a 1-rank-on-16-cores job has a
            # steady trickle of user time and persistently high idle.
            # Modulating idle multiplicatively here would be clipped at
            # 1.0 so hard its mean collapses.
            user = np.clip(self.base[_I_USER] * mod[:, _I_USER],
                           0.002, 0.97)
            over = user + sys_f + wait > 0.995
            if over.any():
                wait[over] = np.maximum(
                    0.995 - user[over] - sys_f[over], 0.0
                )
                # A burst can still overflow via user+sys alone (user is
                # capped independently of sys); trim user last.
                user = np.minimum(user, np.maximum(0.995 - sys_f - wait,
                                                   0.002))
        r[:, _I_USER] = user
        r[:, _I_SYS] = sys_f
        r[:, _I_WAIT] = wait

        # FLOPS follow compute intensity; realized utilization couples in
        # only weakly (a stalled rank stops flopping, but the coupling is
        # bounded so FLOPS keep their own slow correlation structure).
        user_base = self.base[_I_USER]
        coupling = np.clip(user / user_base, 0.9, 1.08)
        r[:, _I_FLOPS] = self.base[_I_FLOPS] * mod[:, _I_FLOPS] * coupling
        return r

    # -- sampling ----------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return self._rates.shape[0]

    def _step_of(self, elapsed: float) -> int:
        i = int(elapsed / self.sample_interval)
        return min(max(i, 0), self.n_steps - 1)

    def rates_at_step(self, step: int) -> np.ndarray:
        """Node-average rate vector at a grid step (fast path)."""
        if not 0 <= step < self.n_steps:
            raise IndexError(f"step {step} out of range")
        return self._rates[step].copy()

    def rates_matrix(self, n_steps: int) -> np.ndarray:
        """(n_steps, n_fields) node-average rates — vectorized fast path."""
        n = min(n_steps, self.n_steps)
        return self._rates[:n].copy()

    def node_rates_at(self, elapsed: float, node_slot: int) -> np.ndarray:
        """Rate vector for one node (slot in the allocation) — slow path."""
        if not 0 <= node_slot < self.n_nodes:
            raise IndexError(f"node slot {node_slot} out of range")
        step = self._step_of(elapsed)
        r = self._rates[step].copy()
        f = self._node_rate_spread[node_slot]
        # Per-node spread on the rate-like fields; CPU fractions stay put
        # (they are already fractions of this node's cores), memory takes
        # its own spread.
        for i in _PLAIN_FIELDS:
            r[i] *= f
        mem_f = self._node_mem_spread[node_slot]
        r[_I_MEM] = min(
            self._rates[step][_I_MEM] * mem_f, 0.99 * self.node_hw.memory_gb
        )
        r[_I_CACHE] = min(self._rates[step][_I_CACHE] * mem_f, r[_I_MEM])
        r[_I_FLOPS] = self._rates[step][_I_FLOPS] * float(
            np.clip(f, 0.85, 1.15)
        )
        return r

    def steps_of(self, elapsed: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_step_of`: grid step per elapsed second."""
        steps = (np.asarray(elapsed, dtype=float)
                 / self.sample_interval).astype(np.int64)
        return np.clip(steps, 0, self.n_steps - 1)

    def node_rates_block(self, steps: np.ndarray,
                         node_slot: int) -> np.ndarray:
        """Vectorized :meth:`node_rates_at`: ``(len(steps), n_fields)``.

        Bit-identical per row to calling :meth:`node_rates_at` with the
        elapsed time that maps to each step — every operation here is
        the elementwise counterpart of the scalar path, so the synthesis
        engine integrates exactly the rates a per-invocation sampler
        would (property-tested).
        """
        if not 0 <= node_slot < self.n_nodes:
            raise IndexError(f"node slot {node_slot} out of range")
        base = self._rates[steps]
        r = base.copy()
        f = self._node_rate_spread[node_slot]
        r[:, _PLAIN_FIELDS] *= f
        mem_f = self._node_mem_spread[node_slot]
        r[:, _I_MEM] = np.minimum(base[:, _I_MEM] * mem_f,
                                  0.99 * self.node_hw.memory_gb)
        r[:, _I_CACHE] = np.minimum(base[:, _I_CACHE] * mem_f,
                                    r[:, _I_MEM])
        r[:, _I_FLOPS] = base[:, _I_FLOPS] * float(np.clip(f, 0.85, 1.15))
        return r


class DerivedRates:
    """Quantities computed from the canonical rate vector.

    These mirror what the analytics derive from collected counters:
    ``cpu_idle`` is the complement of the busy fractions; Lustre network
    (lnet) traffic is the sum of Lustre file traffic plus RPC overhead; the
    InfiniBand port counters see MPI plus lnet (Lustre rides the fabric on
    both systems).
    """

    LNET_OVERHEAD = 1.05  #: RPC/protocol overhead on Lustre data moves.
    LNET_FLOOR_MB = 0.05  #: keep-alive / metadata chatter floor, MB/s.

    _W = [RATE_INDEX[k] for k in
          ("io_scratch_write_mb", "io_work_write_mb", "io_share_write_mb")]
    _R = [RATE_INDEX[k] for k in
          ("io_scratch_read_mb", "io_work_read_mb", "io_share_read_mb")]

    @staticmethod
    def cpu_idle(rates: np.ndarray) -> np.ndarray:
        """Idle fraction; *rates* is (..., n_fields)."""
        busy = (
            rates[..., _I_USER] + rates[..., _I_SYS] + rates[..., _I_WAIT]
        )
        return np.clip(1.0 - busy, 0.0, 1.0)

    @classmethod
    def lnet_tx_mb(cls, rates: np.ndarray) -> np.ndarray:
        """Client lnet transmit ≈ data written to Lustre plus overhead."""
        w = rates[..., cls._W].sum(axis=-1)
        return cls.LNET_OVERHEAD * w + cls.LNET_FLOOR_MB

    @classmethod
    def lnet_rx_mb(cls, rates: np.ndarray) -> np.ndarray:
        """Client lnet receive ≈ data read from Lustre plus overhead."""
        r = rates[..., cls._R].sum(axis=-1)
        return cls.LNET_OVERHEAD * r + cls.LNET_FLOOR_MB

    @classmethod
    def ib_tx_mb(cls, rates: np.ndarray) -> np.ndarray:
        """IB port transmit: MPI traffic + Lustre writes on the wire."""
        return rates[..., RATE_INDEX["net_mpi_mb"]] + cls.lnet_tx_mb(rates)

    @classmethod
    def ib_rx_mb(cls, rates: np.ndarray) -> np.ndarray:
        """IB port receive: MPI traffic + Lustre reads on the wire."""
        return rates[..., RATE_INDEX["net_mpi_mb"]] + cls.lnet_rx_mb(rates)
