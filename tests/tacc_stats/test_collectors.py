"""Tests for the collector suite."""

import numpy as np
import pytest

from repro.cluster.hardware import lonestar4_node, ranger_node
from repro.cluster.node import Node
from repro.tacc_stats.collectors import (
    Amd64PmcCollector,
    CpuCollector,
    IbCollector,
    IntelPmcCollector,
    LliteCollector,
    MemCollector,
    SampleContext,
    amd64_pmc,
    build_collectors,
    intel_pmc,
)
from repro.tacc_stats.collectors.base import BlockContext, core_fractions
from repro.util.units import KB
from repro.workload.applications import RATE_FIELDS, RATE_INDEX


def make_node(arch="amd64", index=0):
    hw = ranger_node() if arch == "amd64" else lonestar4_node()
    return Node(index=index, hostname=f"c000-{index:03d}.test", hardware=hw)


def rates(**kw):
    r = np.zeros(len(RATE_FIELDS))
    for name, value in kw.items():
        r[RATE_INDEX[name]] = value
    return r


def ctx(t, dt, r=None, jobids=()):
    return SampleContext(time=t, dt=dt, rates=r, jobids=jobids)


def read_all(collector, context):
    return {dev: vals for dev, vals in collector.sample(context)}


def test_build_collectors_selects_pmc_by_arch():
    rng = np.random.default_rng(0)
    amd = build_collectors(make_node("amd64"), rng)
    intel = build_collectors(make_node("intel"), rng)
    amd_types = {c.type_name for c in amd}
    intel_types = {c.type_name for c in intel}
    assert "amd64_pmc" in amd_types and "intel_pmc" not in amd_types
    assert "intel_pmc" in intel_types and "amd64_pmc" not in intel_types
    # The paper's full coverage list.
    for t in ("cpu", "mem", "vm", "net", "ib", "llite", "lnet", "block",
              "ps", "sysv_shm", "irq", "numa", "tmpfs", "vfs"):
        assert t in amd_types


def test_core_fractions_fill_first():
    np.testing.assert_allclose(core_fractions(0.25, 16),
                               [1.0] * 4 + [0.0] * 12)
    np.testing.assert_allclose(core_fractions(0.30, 16),
                               [1.0] * 4 + [0.8] + [0.0] * 11)
    assert core_fractions(1.0, 4).sum() == pytest.approx(4.0)
    assert core_fractions(0.0, 4).sum() == 0.0


def test_cpu_collector_conserves_time():
    node = make_node()
    col = CpuCollector(node, np.random.default_rng(1))
    r = rates(cpu_user_frac=0.5, cpu_sys_frac=0.05, cpu_iowait_frac=0.02)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(1200.0, 0.0, r))
    assert len(rows) == 16
    for vals in rows.values():
        # user+nice+system+idle+iowait+irq+softirq = elapsed centiseconds.
        assert vals.sum() == pytest.approx(600.0 * 100, rel=0.03)


def test_cpu_collector_resolves_undersubscription_per_core():
    """The paper's key advance over sar: per-core resolution shows 4 busy
    cores and 12 idle ones for a 25 %-utilized node."""
    node = make_node()
    col = CpuCollector(node, np.random.default_rng(2))
    r = rates(cpu_user_frac=0.25)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    user_col = col.schema.index_of("user")
    users = np.array([rows[str(c)][user_col] for c in range(16)])
    assert (users[:4] > 0.9 * 600 * 100).all()
    assert (users[5:] == 0).all()


def test_mem_collector_reports_gauges():
    node = make_node()
    col = MemCollector(node, np.random.default_rng(3))
    r = rates(mem_used_gb=8.0, mem_cache_gb=2.0)
    col.advance(ctx(0.0, 600.0, r))
    rows = read_all(col, ctx(0.0, 0.0, r))
    assert len(rows) == 4  # sockets
    total_col = col.schema.index_of("MemTotal")
    used_col = col.schema.index_of("MemUsed")
    total = sum(int(v[total_col]) for v in rows.values())
    used = sum(int(v[used_col]) for v in rows.values())
    assert total == pytest.approx(32 * 1024 * 1024, rel=0.01)  # KB
    # Used = job + base OS overhead, split across sockets.
    assert used * KB / 2**30 == pytest.approx(8.0 + 1.2, rel=0.05)


def test_mem_gauge_does_not_accumulate():
    node = make_node()
    col = MemCollector(node, np.random.default_rng(4))
    r = rates(mem_used_gb=4.0)
    col.advance(ctx(0.0, 600.0, r))
    first = read_all(col, ctx(0.0, 0.0, r))
    col.advance(ctx(600.0, 600.0, r))
    second = read_all(col, ctx(600.0, 0.0, r))
    np.testing.assert_array_equal(first["0"], second["0"])


def test_ib_collector_uses_extended_64bit_counters():
    """mlx4 extended port counters: no wrap even at high rates (the
    legacy 32-bit registers would wrap inside one 10-minute interval)."""
    node = make_node()
    col = IbCollector(node, np.random.default_rng(5))
    r = rates(net_mpi_mb=40.0)
    xmit_col = col.schema.index_of("port_xmit_data")
    assert col.schema.entries[xmit_col].width == 64
    last = -1
    for k in range(1, 40):
        col.advance(ctx(k * 600.0, 600.0, r))
        cur = int(read_all(col, ctx(k * 600.0, 0.0, r))["mlx4_0"][xmit_col])
        assert cur > last
        last = cur
    # Counted in 4-byte words: ~40 MB/s * 39 * 600 s / 4.
    assert last == pytest.approx(40e6 * 39 * 600 / 4, rel=0.15)


def test_net_collector_32bit_bytes_roll_over():
    """Ethernet byte counters are 32-bit and wrap at sustained rates —
    the rollover-correction path sees real wraps in production data."""
    from repro.tacc_stats.collectors import NetCollector
    node = make_node()
    col = NetCollector(node, np.random.default_rng(15))
    r = rates(net_eth_mb=3.0)
    tx_col = col.schema.index_of("tx_bytes")
    assert col.schema.entries[tx_col].width == 32
    wrapped = False
    last = 0
    for k in range(1, 40):  # 3 MB/s wraps 2^32 bytes every ~24 min
        col.advance(ctx(k * 600.0, 600.0, r))
        cur = int(read_all(col, ctx(k * 600.0, 0.0, r))["eth0"][tx_col])
        if cur < last:
            wrapped = True
        last = cur
    assert wrapped


def test_llite_reports_per_mount():
    node = make_node()
    col = LliteCollector(node, np.random.default_rng(6),
                         mounts=("scratch", "work"))
    r = rates(io_scratch_write_mb=10.0, io_work_write_mb=1.0)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    wcol = col.schema.index_of("write_bytes")
    assert rows["scratch"][wcol] > 8 * rows["work"][wcol]


def test_amd64_pmc_reprogram_resets_and_tags():
    node = make_node()
    col = Amd64PmcCollector(node, np.random.default_rng(7))
    r = rates(cpu_user_frac=0.9, flops_gf=14.0)
    col.on_job_begin("1", 0.0)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    ctl0 = int(rows["0"][col.schema.index_of("ctl0")])
    from repro.tacc_stats.collectors.amd64_pmc import AMD64_EVENT_CODES
    assert ctl0 == AMD64_EVENT_CODES["SSE_FLOPS"]
    before = int(rows["0"][col.schema.index_of("ctr0")])
    assert before > 0
    col.on_job_begin("2", 1200.0)
    rows2 = read_all(col, ctx(1200.0, 0.0, r))
    assert int(rows2["0"][col.schema.index_of("ctr0")]) == 0


def test_amd64_pmc_flops_total_matches_rate():
    node = make_node()
    col = Amd64PmcCollector(node, np.random.default_rng(8))
    col.on_job_begin("1", 0.0)
    col._user_programmed = False
    r = rates(cpu_user_frac=1.0, flops_gf=14.0)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    c = col.schema.index_of("ctr0")
    total = sum(int(v[c]) for v in rows.values())
    assert total == pytest.approx(14.0e9 * 600, rel=0.05)


def test_intel_pmc_overcounts_flops():
    """The paper: Lonestar4 FLOPS 'were not SSE flops' — FP_COMP_OPS
    over-counts relative to true FLOPs."""
    from repro.tacc_stats.collectors.intel_pmc import FP_OVERCOUNT
    node = make_node("intel")
    col = IntelPmcCollector(node, np.random.default_rng(9))
    col.on_job_begin("1", 0.0)
    col._user_programmed = False
    r = rates(cpu_user_frac=1.0, flops_gf=10.0)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    c = col.schema.index_of("ctr0")
    total = sum(int(v[c]) for v in rows.values())
    assert total == pytest.approx(10.0e9 * 600 * FP_OVERCOUNT, rel=0.05)


def test_pmc_user_programmed_uses_foreign_codes():
    node = make_node()
    col = Amd64PmcCollector(node, np.random.default_rng(10))
    col._user_programmed = True  # force the rare path
    col.on_job_begin("1", 0.0)
    # on_job_begin redraws; force again and reprogram manually.
    col._user_programmed = True
    from repro.tacc_stats.collectors.amd64_pmc import AMD64_EVENT_CODES
    for dev in col.devices:
        col._acc[dev][:4] = [0x430076] * 4
    r = rates(cpu_user_frac=0.5, flops_gf=5.0)
    col.advance(ctx(600.0, 600.0, r))
    rows = read_all(col, ctx(600.0, 0.0, r))
    ctl0 = int(rows["0"][col.schema.index_of("ctl0")])
    assert ctl0 not in AMD64_EVENT_CODES.values()


def test_idle_node_still_reports():
    """Idle nodes produce realistic background samples, not zeros."""
    node = make_node()
    rng = np.random.default_rng(11)
    for col in build_collectors(node, rng):
        col.advance(ctx(600.0, 600.0, None))
        rows = read_all(col, ctx(600.0, 0.0, None))
        assert rows, col.type_name
    # Specifically: cpu idle time accrues, memory shows the OS footprint.
    cpu = CpuCollector(node, rng)
    cpu.advance(ctx(600.0, 600.0, None))
    rows = read_all(cpu, ctx(600.0, 0.0, None))
    idle_col = cpu.schema.index_of("idle")
    assert int(rows["3"][idle_col]) > 0.95 * 600 * 100


def test_negative_dt_rejected():
    node = make_node()
    col = CpuCollector(node, np.random.default_rng(12))
    with pytest.raises(ValueError):
        list(col.sample(ctx(0.0, -1.0, None)))


def test_bump_rejects_negative():
    node = make_node()
    col = CpuCollector(node, np.random.default_rng(13))
    with pytest.raises(ValueError):
        col.bump("0", "user", -5.0)


@pytest.mark.parametrize("arch,module,cls", [
    ("amd64", amd64_pmc, Amd64PmcCollector),
    ("intel", intel_pmc, IntelPmcCollector),
])
def test_pmc_block_with_begin_rows_matches_begin_by_begin(
        monkeypatch, arch, module, cls):
    """One ``sample_block`` over a block in which three jobs begin — TACC
    events, a user's own, TACC again — gives the rows, and leaves the
    stream where, the scalar daemon order does: ``on_job_begin`` (one
    ``random()``), that job's samples, ``on_job_begin``, ..."""
    monkeypatch.setattr(module, "USER_PROGRAMMED_PROB", 0.5)
    busy = rates(cpu_user_frac=0.7, flops_gf=9.0, mem_used_gb=6.0,
                 net_mpi_mb=40.0)
    # (t, rates of the interval it closes, begins job) — idle tick, job
    # a, job b back to back (dt = 0), an idle gap, job c.
    script = [
        (600.0, None, None), (700.0, None, "a"), (1200.0, busy, None),
        (1800.0, busy * 0.5, None), (1900.0, busy, None),
        (1900.0, None, "b"), (2400.0, busy, None), (2500.0, busy, None),
        (3000.0, None, None), (3100.0, None, "c"), (3600.0, busy, None),
        (4200.0, busy * 0.2, None),
    ]
    times = np.array([t for t, _r, _j in script])
    block = BlockContext(
        times=times, dts=np.diff(times, prepend=0.0),
        rates=np.array([np.zeros_like(busy) if r is None else r
                        for _t, r, _j in script]),
        idle=np.array([r is None for _t, r, _j in script]),
        begins=tuple((i, j, t) for i, (t, _r, j) in enumerate(script) if j),
    )
    node = make_node(arch)
    whole = cls(node, np.random.default_rng(5))
    got = whole.sample_block(block)

    scalar = cls(node, np.random.default_rng(5))
    want = np.empty_like(got)
    programmed = []
    for i, (t, r, jobid) in enumerate(script):
        if jobid:
            scalar.on_job_begin(jobid, t)
            programmed.append(scalar.user_programmed)
        rows = read_all(scalar, ctx(t, float(block.dts[i]), r))
        want[i] = [rows[dev] for dev in scalar.devices]
    assert programmed == [False, True, False], "pick another seed"
    assert np.array_equal(got, want)
    assert whole.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert whole.user_programmed == scalar.user_programmed
