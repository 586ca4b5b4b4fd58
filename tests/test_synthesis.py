"""Determinism contract for the synthesis engine.

The collectors' batched kernels in
:class:`repro.tacc_stats.synth.NodeSynth` must write what each
collector's scalar path writes through the same engine
(:func:`tests.scalar_reference.scalar_collectors`): byte-identical
archives in both on-disk formats, and output that depends only on
``(seed, node, collector)`` — never on how nodes are chunked across
workers, because every collector draws from its own keyed RNG stream.
Also pins the worker-chunking clamp: requesting more workers than nodes
degrades to one worker per node, never an empty pool task.
"""

import hashlib
import json
from contextlib import nullcontext
from math import ceil
from pathlib import Path

import pytest

from repro import LONESTAR4, RANGER, Facility
from repro.facility import (
    _build_behaviors,
    _node_chunks,
    _replay_nodes,
    node_replays,
)
from repro.live.runner import LiveReplay, LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.collectors import (
    Amd64PmcCollector,
    Collector,
    CpuCollector,
    amd64_pmc,
    intel_pmc,
)
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.util.timeutil import DAY, HOUR, period_label
from tests import synthesis_parity as sp
from tests.scalar_reference import scalar_collectors

CFG = RANGER.scaled(num_nodes=4, horizon_days=1, n_users=8)
SEED = 17


def _tree(root) -> dict[str, str]:
    """{relative path: sha256} for every file under *root*."""
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# ---------------------------------------------------------------------------
# Worker chunking.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nodes,workers", [
    (4, 16), (1, 8), (3, 3), (5, 2), (16, 5), (2, 1),
])
def test_node_chunks_never_empty_and_cover_all(nodes, workers):
    chunks = _node_chunks(nodes, workers)
    assert all(chunks), "no chunk may be empty"
    assert len(chunks) == min(workers, nodes)
    assert sorted(i for c in chunks for i in c) == list(range(nodes))


def test_workers_beyond_node_count(tmp_path):
    """Regression: more workers than nodes used to produce empty strided
    chunks — pool tasks that opened an archive handle only to write
    nothing.  The clamp sizes the pool to the node count, with output
    byte-identical to the serial replay."""
    d1, d2 = str(tmp_path / "serial"), str(tmp_path / "wide")
    Facility(CFG, seed=SEED).run_with_files(d1, compress=False)
    Facility(CFG, seed=SEED).run_with_files(d2, compress=False, workers=12)
    assert _tree(d1) == _tree(d2)


# ---------------------------------------------------------------------------
# Kernels == each collector's scalar path.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("archive_format", ["text", "v2"])
def test_fast_matches_scalar(tmp_path, archive_format):
    fast, scalar = str(tmp_path / "fast"), str(tmp_path / "scalar")
    r1 = Facility(CFG, seed=SEED).run_with_files(
        fast, compress=False, archive_format=archive_format)
    with scalar_collectors():
        r2 = Facility(CFG, seed=SEED).run_with_files(
            scalar, compress=False, archive_format=archive_format)
    assert _tree(fast) == _tree(scalar)
    s1, s2 = r1.archive_stats, r2.archive_stats
    assert (s1.raw_bytes, s1.file_count, s1.host_days) == \
           (s2.raw_bytes, s2.file_count, s2.host_days)
    t1 = r1.warehouse.job_table("ranger")
    t2 = r2.warehouse.job_table("ranger")
    assert list(t1["jobid"]) == list(t2["jobid"])


def test_scalar_collectors_swaps_every_kernel_and_restores_it():
    """The reference is only a reference while it is on, and only then:
    a kernel left swapped out would make every comparison after it
    compare the scalar path with itself."""
    kernels = {cls: cls.sample_block
               for cls in (CpuCollector, Amd64PmcCollector)}
    with scalar_collectors():
        assert CpuCollector.sample_block is Collector.sample_block
        # A collector that reprograms runs the loop a begin segment at
        # a time.
        assert Amd64PmcCollector.sample_block.__wrapped__ \
            is Collector.sample_block
    for cls, kernel in kernels.items():
        assert cls.sample_block is kernel


def test_a_fleet_day_direct_to_v2(tmp_path):
    """One Stampede day at 64 nodes, straight to v2, two replay and two
    ingest workers: one block per node, two files per node (the tick at
    ``t = DAY`` opens the next day's), every job matched, and the tree
    and tables captured when a second, per-sample driver wrote the same
    bytes."""
    reg = MetricsRegistry()
    root = tmp_path / "fleet"
    with use_registry(reg):
        run = sp.fleet(root)
    counters = reg.snapshot().counters
    assert counters["synth.chunks"] == 64
    assert counters["archive.files_written"] == 128
    assert run.ingest_report.match.match_rate == 1.0
    expected = json.loads(sp.DIGESTS.read_text())[sp.FLEET]
    assert sp.digests(root, run) == expected


# ---------------------------------------------------------------------------
# Stream keying: (seed, node, collector) fully determines a node's bytes.
# ---------------------------------------------------------------------------


def test_node_output_depends_only_on_seed_and_node(tmp_path):
    """Replaying a node subset alone reproduces the exact bytes those
    nodes got in the full-fleet replay — the stream-keying contract that
    makes *any* worker decomposition byte-identical."""
    fac = Facility(CFG, seed=SEED)
    workload, sim, _outages, _cluster = fac._simulate()
    args = (CFG, SEED, workload.users, workload.util_scale,
            fac.phase_calibration, fac.regressions, sim.records)
    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    _replay_nodes(*args, list(range(CFG.num_nodes)), full, False)
    _replay_nodes(*args, [1, 3], part, False)
    full_tree, part_tree = _tree(full), _tree(part)
    assert part_tree, "subset replay wrote no files"
    for name, digest in part_tree.items():
        assert full_tree[name] == digest, name


# ---------------------------------------------------------------------------
# Telemetry.
# ---------------------------------------------------------------------------


def test_synth_telemetry_counters(tmp_path):
    """``synth.chunks`` is the deterministic perf guard: one block — one
    round of kernel calls — per (node, day) of an offline replay,
    however many jobs began on the node meanwhile and whatever period
    the files rotate at; and it leaves nothing held."""
    for archive_format, rotate in [("text", DAY), ("v2", DAY),
                                   ("v2", 4 * HOUR)]:
        d = str(tmp_path / f"{archive_format}-{rotate}")
        # The sidecar a non-default period leaves makes the replay's own
        # open of the directory rotate at it.
        HostArchive(d, rotate_seconds=rotate)
        reg = MetricsRegistry()
        with use_registry(reg):
            run = Facility(CFG, seed=SEED).run_with_files(
                d, compress=False, archive_format=archive_format)
        counters = reg.snapshot().counters
        assert len(run.records) > CFG.num_nodes
        assert counters["synth.nodes"] == CFG.num_nodes
        assert counters["synth.chunks"] == \
            CFG.num_nodes * ceil(CFG.horizon / DAY)
        assert counters["synth.samples"] > counters["synth.chunks"]
        assert counters["synth.rows"] > counters["synth.samples"]
        assert reg.snapshot().gauges["synth.rows_held"] == 0


def test_synth_chunks_live_is_nodes_times_days(tmp_path):
    """A live driver releases rows, it does not cut blocks: 18 two-hour
    micro-batches over a day and a half are three blocks a node — up to
    its first day edge (an hour a node apart), a day, and the rest."""
    cfg = RANGER.scaled(num_nodes=2, horizon_days=1.5, n_users=6)
    reg = MetricsRegistry()
    with use_registry(reg):
        LiveSession(Facility(cfg, seed=SEED), str(tmp_path),
                    segment_seconds=2 * HOUR).run()
    snap = reg.snapshot()
    assert snap.counters["live.batches"] == 19
    assert snap.counters["synth.chunks"] == cfg.num_nodes * 3
    assert snap.gauges["synth.rows_held"] == 0


def _sample_times(root) -> list[int]:
    """The time of every collector invocation (timestamp line) in an
    archive tree."""
    return [int(line.split()[0])
            for p in Path(root).rglob("*") if p.is_file()
            for line in HostArchive.read_file(p).splitlines()
            if line[:1].isdigit()]


@pytest.mark.parametrize("archive_format,compress",
                         [("text", True), ("v2", False)])
def test_stopped_session_publishes_nothing_ahead_of_its_clock(
        tmp_path, archive_format, compress):
    """A driver that stops mid-day (``--live-max-batches``, an
    exception) and closes its archive leaves what the scalar path
    leaves: the finished tree's closed hours, the open hour's rows up to
    the clock and none past it, and counters for exactly the rows on
    disk.  The rest of the day's block is held, not written."""
    stop = 5 * HOUR + 1234.5
    trees = {}
    for name, scalar, until in [("stopped", False, stop),
                                ("oracle", True, stop),
                                ("finished", False, CFG.horizon)]:
        d = str(tmp_path / name)
        facility = Facility(CFG, seed=SEED)
        workload, sim, _outages, _cluster = facility._simulate()
        archive = HostArchive(d, compress=compress, rotate_seconds=HOUR,
                              archive_format=archive_format)
        reg = MetricsRegistry()
        with use_registry(reg), \
                scalar_collectors() if scalar else nullcontext():
            replay = LiveReplay(
                CFG, SEED, *facility._behavior_context(workload),
                sim.records, archive)
            t = 0.0
            while t < until:
                t = min(t + HOUR, until)
                replay.advance(t)
                archive.flush_before(t)
            archive.close()
        trees[name] = _tree(d)
        if name == "stopped":
            snap = reg.snapshot()
            per_sample = {u.engine._rows_per_sample for u in replay._nodes}
            assert len(per_sample) == 1
            # Up to each node's first edge, and the day after it.
            assert snap.counters["synth.chunks"] == 2 * CFG.num_nodes
            times = _sample_times(d)
            assert max(times) <= stop
            assert snap.counters["synth.samples"] == len(times)
            assert snap.counters["synth.rows"] == \
                len(times) * per_sample.pop()
            assert snap.gauges["synth.rows_held"] == sum(
                u.engine.rows_held for u in replay._nodes) > 0
    assert trees["stopped"] == trees["oracle"]
    open_hour = period_label(int(stop // HOUR), HOUR)
    closed = {name: digest for name, digest in trees["stopped"].items()
              if open_hour not in name}
    assert len(trees["stopped"]) - len(closed) == CFG.num_nodes
    assert closed.items() <= trees["finished"].items()


# ---------------------------------------------------------------------------
# Blocks hold several jobs: begin rows inside a block, rows split by file.
# ---------------------------------------------------------------------------


def test_v2_accumulator_keeps_no_view_of_a_block(tmp_path):
    """A block that straddles two files hands each its own rows.  The
    tick at ``t = DAY`` belongs to the next day's file; as a one-row
    *view* it would pin the node's whole day block until that file
    closes — for every node, until the end of the replay.  Rows
    released from a held block are the same case: an hour's rows as a
    view would keep the day block alive after its last release."""
    fac = Facility(CFG, seed=SEED)
    workload, sim, _outages, _cluster = fac._simulate()
    behaviors = _build_behaviors(
        CFG, *fac._behavior_context(workload), sim.records)

    def owned(engine) -> bool:
        return all(a.base is None or a.base.nbytes == a.nbytes
                   for accum in engine._accums.values()
                   for chunks in accum.values for a in chunks)

    archive = HostArchive(str(tmp_path / "daily"), archive_format="v2")
    for unit in node_replays(CFG, SEED, sim.records, [0, 1], behaviors,
                             archive):
        unit.advance(DAY)
        (accum,) = unit.engine._accums.values()
        assert set(accum.times) == {float(DAY)}
        assert owned(unit.engine)
    archive.close()

    archive = HostArchive(str(tmp_path / "hourly"), archive_format="v2",
                          rotate_seconds=HOUR)
    for unit in node_replays(CFG, SEED, sim.records, [0, 1], behaviors,
                             archive):
        engine = unit.engine
        unit.advance(HOUR)  # the short block up to the node's first edge
        for until in (90 * 60, DAY - HOUR):
            unit.advance(until)
            assert engine._held is not None and engine.rows_held > 0
            assert engine._accums and owned(engine)
        unit.advance(DAY)
        assert engine._held is None and engine.rows_held == 0
        assert not engine._pending and owned(engine)
    archive.close()


@pytest.mark.parametrize("archive_format", ["text", "v2"])
@pytest.mark.parametrize("system", [RANGER, LONESTAR4],
                         ids=lambda cfg: cfg.name)
def test_foreign_pmc_programs_inside_multi_job_blocks(
        tmp_path, monkeypatch, system, archive_format):
    """At the real 2 % a small fixture essentially never puts a job that
    programs its own counters *between* two others in one block; at
    50 % every block does.  Fast == scalar, with day blocks offline and
    with hourly live slices."""
    for module in (amd64_pmc, intel_pmc):
        monkeypatch.setattr(module, "USER_PROGRAMMED_PROB", 0.5)
    cfg = system.scaled(num_nodes=2, horizon_days=1, n_users=6)
    trees = {}
    for synthesis in ("fast", "scalar"):
        with scalar_collectors() if synthesis == "scalar" else nullcontext():
            d = str(tmp_path / f"offline-{synthesis}")
            run = Facility(cfg, seed=SEED).run_with_files(
                d, compress=False, archive_format=archive_format)
            trees["offline", synthesis] = _tree(d)

            d = str(tmp_path / f"live-{synthesis}")
            facility = Facility(cfg, seed=SEED)
            workload, sim, _outages, _cluster = facility._simulate()
            archive = HostArchive(d, compress=False, rotate_seconds=HOUR,
                                  archive_format=archive_format)
            replay = LiveReplay(
                cfg, SEED, workload.users, workload.util_scale,
                facility.phase_calibration, facility.regressions,
                sim.records, archive)
            for hour in range(1, int(cfg.horizon // HOUR) + 1):
                replay.advance(hour * HOUR)
                archive.flush_before(hour * HOUR)
            archive.close()
            trees["live", synthesis] = _tree(d)
    assert len(run.records) > 4 * cfg.num_nodes
    assert trees["offline", "fast"] == trees["offline", "scalar"]
    assert trees["live", "fast"] == trees["live", "scalar"]
    if archive_format == "text":
        # Both programs really are in the tree.
        pmc, tacc = ((amd64_pmc, amd64_pmc.AMD64_EVENT_CODES["SSE_FLOPS"])
                     if cfg.node.processor.arch == "amd64" else
                     (intel_pmc, intel_pmc.INTEL_EVENT_CODES["FP_COMP_OPS"]))
        text = "".join(
            p.read_text() for p in
            Path(tmp_path / "offline-fast").rglob("*") if p.is_file())
        assert f" {pmc._FOREIGN_CODE} {pmc._FOREIGN_CODE} " in text
        assert f" {tacc} " in text
