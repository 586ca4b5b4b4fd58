"""Collector base class and shared accumulation machinery.

A collector owns one record type.  It keeps cumulative per-device
accumulators (floats internally, rendered as integers modulo the schema's
counter width — exactly the rollover behaviour of the real registers) and
converts the node's current *rates* into counter increments over ``dt``.

When no job runs on the node, collectors see ``rates=None`` and account
only background OS activity, so idle-node samples look like real idle
nodes rather than flat zeros.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import wraps

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.schema import TypeSchema
from repro.workload.applications import RATE_INDEX

__all__ = ["SampleContext", "BlockContext", "Collector", "core_fractions",
           "core_fractions_block"]


@dataclass(frozen=True)
class SampleContext:
    """What a collector sees at one invocation.

    Attributes
    ----------
    time:
        Facility epoch seconds.
    dt:
        Seconds since the previous invocation on this node (0 at the
        first sample after daemon start).
    rates:
        Node-level rate vector (``repro.workload.RATE_FIELDS`` order), or
        None when the node is idle.
    jobids:
        Jobs currently on the node.
    """

    time: float
    dt: float
    rates: np.ndarray | None
    jobids: tuple[str, ...] = ()

    def rate(self, name: str, default: float = 0.0) -> float:
        """Look up one named rate, with a default for idle nodes."""
        if self.rates is None:
            return default
        return float(self.rates[RATE_INDEX[name]])


@dataclass(frozen=True)
class BlockContext:
    """A whole batch of consecutive invocations, for vectorized kernels.

    One BlockContext covers whatever one node queued between two
    flushes; jobs may begin inside it, and reprogramming happens at the
    block's ``begins`` rows (see :meth:`Collector.sample_block`).
    ``rates`` rows where ``idle`` is True are placeholders (zeros) —
    kernels must route idle samples through their defaults exactly as
    the scalar path does, which :meth:`rate` handles for the common
    case.

    Attributes
    ----------
    times:
        ``[T]`` facility epoch seconds, strictly ordered.
    dts:
        ``[T]`` seconds since the previous invocation (0 at daemon start).
    rates:
        ``[T, n_fields]`` node-level rate matrix (zero rows when idle).
    idle:
        ``[T]`` bool — True where the scalar path saw ``rates=None``.
    jobids:
        Per-sample job tags (serialization only; collectors ignore it).
    begins:
        ``(row, jobid, t)`` of each ``%begin`` sample, in row order.
    """

    times: np.ndarray
    dts: np.ndarray
    rates: np.ndarray
    idle: np.ndarray
    jobids: tuple[tuple[str, ...], ...] = ()
    begins: tuple[tuple[int, str, float], ...] = ()

    @property
    def n(self) -> int:
        return self.times.shape[0]

    def rate(self, name: str, default: float = 0.0) -> np.ndarray:
        """``[T]`` named rate, with the idle-node default applied."""
        return np.where(self.idle, default, self.rates[:, RATE_INDEX[name]])

    def rates_row(self, i: int) -> np.ndarray | None:
        """The scalar-path ``rates`` argument for sample *i*."""
        return None if self.idle[i] else self.rates[i]


class Collector(ABC):
    """Base class: accumulate event counters, emit schema-conformant rows."""

    #: Relative per-sample measurement jitter applied to rate-driven
    #: increments (real counters are exact, but the *rates* we derive from
    #: them never are; keeping this small lets the fast path agree with the
    #: collected data within test tolerances).
    NOISE_SIGMA = 0.015

    def __init_subclass__(cls, **kwargs):
        # Only a collector that reprograms at job begin cares where a
        # job begins inside a block; every other kernel sees it whole.
        super().__init_subclass__(**kwargs)
        if cls.on_job_begin is not Collector.on_job_begin:
            cls.sample_block = _by_begin_segment(cls.sample_block)

    def __init__(self, node: Node, rng: np.random.Generator):
        self.node = node
        self.rng = rng
        self._schema = self.build_schema()
        self._devices = self.build_devices()
        if not self._devices:
            raise ValueError(f"{self.type_name}: no devices")
        # accumulators[device] -> float vector in schema order.
        self._acc: dict[str, np.ndarray] = {
            d: np.zeros(self._schema.n_values) for d in self._devices
        }

    # -- to be provided by subclasses ---------------------------------------

    @property
    @abstractmethod
    def type_name(self) -> str:
        """Record type name (schema line / data row prefix)."""

    @abstractmethod
    def build_schema(self) -> TypeSchema:
        """Construct this collector's schema."""

    @abstractmethod
    def build_devices(self) -> tuple[str, ...]:
        """Enumerate device names on this node."""

    @abstractmethod
    def advance(self, ctx: SampleContext) -> None:
        """Update accumulators / gauge values for this invocation."""

    # -- common machinery ----------------------------------------------------

    @property
    def schema(self) -> TypeSchema:
        return self._schema

    @property
    def devices(self) -> tuple[str, ...]:
        return self._devices

    def on_job_begin(self, jobid: str, time: float) -> None:
        """Hook at job start (PMC collectors reprogram counters here)."""

    def sample(self, ctx: SampleContext):
        """Advance state and yield ``(device, uint64 values)`` rows."""
        if ctx.dt < 0:
            raise ValueError("negative dt")
        self.advance(ctx)
        widths = [e.modulus for e in self._schema.entries]
        for device in self._devices:
            acc = self._acc[device]
            out = np.empty(len(acc), dtype=np.uint64)
            for i, (v, mod) in enumerate(zip(acc, widths)):
                out[i] = int(v) % mod
            yield device, out

    def bump(self, device: str, key: str, amount: float) -> None:
        """Add to an event accumulator (must be non-negative)."""
        if amount < 0:
            raise ValueError(
                f"{self.type_name}/{device}/{key}: negative increment"
            )
        self._acc[device][self._schema.index_of(key)] += amount

    def set_gauge(self, device: str, key: str, value: float) -> None:
        """Set a gauge value (clamped at zero)."""
        self._acc[device][self._schema.index_of(key)] = max(value, 0.0)

    def noisy(self, amount: float) -> float:
        """Apply the per-sample measurement jitter to an increment."""
        if amount <= 0:
            return 0.0
        return amount * float(self.rng.lognormal(0.0, self.NOISE_SIGMA))

    # -- vectorized (block) machinery ----------------------------------------

    def sample_block(self, block: BlockContext) -> np.ndarray:
        """Advance through a whole block; return ``[T, D, K]`` uint64 rows.

        The base implementation is the scalar path, one :meth:`sample`
        (hence :meth:`advance`) per row: what a collector without a
        kernel runs, and the reference every kernel is tested against —
        the tests run the synthesis engine with this method in place of
        the kernels (``tests/scalar_reference.py``).  Kernel overrides
        must consume their RNG stream in exactly the scalar draw order
        (time-major, then the per-sample order of ``advance``) and leave
        ``self._acc`` at the end-of-block state so scalar and vectorized
        processing can be freely interleaved.  A kernel must give the
        same rows wherever its input is cut into blocks; a collector that
        overrides :meth:`on_job_begin` is the exception, and is called
        once per begin segment instead (no ``%begin`` row after its
        first).
        """
        out = np.empty(
            (block.n, len(self._devices), self._schema.n_values),
            dtype=np.uint64)
        for i in range(block.n):
            ctx = SampleContext(
                time=float(block.times[i]), dt=float(block.dts[i]),
                rates=block.rates_row(i),
                jobids=block.jobids[i] if block.jobids else ())
            for d, (_device, values) in enumerate(self.sample(ctx)):
                out[i, d] = values
        return out

    def noisy_block(self, amounts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`noisy` over an array of increments.

        Draws one lognormal per strictly-positive amount, in C order —
        exactly the sequence the scalar path consumes when it visits the
        same amounts one at a time (``noisy`` skips the draw entirely
        for ``amount <= 0``).
        """
        amounts = np.ascontiguousarray(amounts, dtype=np.float64)
        out = np.zeros_like(amounts)
        flat = amounts.reshape(-1)
        mask = flat > 0
        n = int(mask.sum())
        if n:
            draws = self.rng.lognormal(0.0, self.NOISE_SIGMA, size=n)
            out.reshape(-1)[mask] = flat[mask] * draws
        return out

    def _carry(self) -> np.ndarray:
        """``[D, K]`` float accumulator state, in device order."""
        return np.stack([self._acc[d] for d in self._devices])

    def _store_carry(self, acc_last: np.ndarray) -> None:
        """Write the end-of-block ``[D, K]`` state back into ``_acc``."""
        for i, d in enumerate(self._devices):
            self._acc[d] = acc_last[i].astype(np.float64, copy=True)

    def accumulate_block(self, inc: np.ndarray) -> np.ndarray:
        """Integrate per-sample increments ``[T, D, K]`` from the carried
        accumulator state; returns the ``[T, D, K]`` float accumulator
        trajectory and stores the final state back in ``_acc``.

        ``np.cumsum`` over the carry-prefixed series reproduces the
        scalar path's sequential ``+=`` bit-for-bit (same left-to-right
        float addition order).
        """
        acc0 = self._carry()
        acc = np.cumsum(
            np.concatenate([acc0[None, :, :], inc], axis=0), axis=0)[1:]
        self._store_carry(acc[-1] if inc.shape[0] else acc0)
        return acc

    def wrap_block(self, acc: np.ndarray) -> np.ndarray:
        """Render float accumulators as the registers' uint64 values.

        ``int(v) % 2**w`` of the scalar path, vectorized: all schema
        widths are powers of two, so truncation plus a mask is exact for
        every magnitude the synthesizer produces (far below 2**63).
        """
        masks = np.array([e.modulus - 1 for e in self._schema.entries],
                         dtype=np.uint64)
        return acc.astype(np.int64).astype(np.uint64) & masks


def _by_begin_segment(kernel):
    """*kernel* as a ``sample_block`` that runs it one begin segment at a
    time, ``on_job_begin`` called before the segment its ``%begin`` row
    opens — the scalar order, so the collector's stream is drawn from
    and its state reset exactly as a per-invocation sampler would."""
    @wraps(kernel)
    def sample_block(self, block: BlockContext) -> np.ndarray:
        if not block.begins:
            return kernel(self, block)
        out = []
        cuts = [0, *(row for row, _jobid, _t in block.begins), block.n]
        for begin, lo, hi in zip((None, *block.begins), cuts, cuts[1:]):
            if begin is not None:
                self.on_job_begin(*begin[1:])
            if lo < hi:
                out.append(kernel(self, BlockContext(
                    block.times[lo:hi], block.dts[lo:hi], block.rates[lo:hi],
                    block.idle[lo:hi], block.jobids[lo:hi])))
        return np.concatenate(out, axis=0)
    return sample_block


def core_fractions(node_fraction: float, n_cores: int) -> np.ndarray:
    """Distribute a node-level busy fraction across cores, fill-first.

    A job at 25 % node utilization on 16 cores shows up as 4 busy cores
    and 12 idle ones — which is what ``/proc/stat`` actually looks like for
    undersubscribed jobs, and what makes per-core resolution (the paper's
    key advance over sar) informative.
    """
    if not 0.0 <= node_fraction <= 1.0:
        node_fraction = float(np.clip(node_fraction, 0.0, 1.0))
    total = node_fraction * n_cores
    out = np.zeros(n_cores)
    full = int(total)
    out[:full] = 1.0
    if full < n_cores:
        out[full] = total - full
    return out


def core_fractions_block(node_fraction: np.ndarray, n_cores: int) -> np.ndarray:
    """:func:`core_fractions` for a ``[T]`` vector → ``[T, n_cores]``.

    Matches the scalar function bit-for-bit: clip only affects
    out-of-range inputs, ``int()`` truncates toward zero (inputs are
    non-negative after the clip), and the fractional core gets the exact
    ``total - full`` remainder.
    """
    f = np.clip(np.asarray(node_fraction, dtype=np.float64), 0.0, 1.0)
    total = f * n_cores
    full = total.astype(np.int64)
    out = (np.arange(n_cores)[None, :] < full[:, None]).astype(np.float64)
    rows = np.flatnonzero(full < n_cores)
    out[rows, full[rows]] = total[rows] - full[rows]
    return out
