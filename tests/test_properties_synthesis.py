"""Property-based byte-identity: the collectors' batched kernels vs
each collector's scalar path, both driven through the one synthesis
engine.

Each example simulates the same facility twice — as is, and inside
:func:`~tests.scalar_reference.scalar_collectors` — and asserts the
archive trees are byte-identical file for file and the warehouses
row-identical.  The
draws sweep the dimensions that could plausibly break the kernels'
bit-exactness: the system archetype (different collector suites,
filesystems, PMC programs), the on-disk format (text vs direct-to-v2
column encoding), the ingest error policy (the fault-tolerant read-back
paths), and sub-day rotation periods and release schedules (the live
replay's segment close / re-register cycle, which releases a day block's
rows at arbitrary points).
"""

import hashlib
from contextlib import nullcontext
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Facility
from repro.config import LONESTAR4, RANGER, STAMPEDE
from repro.facility import _replay_nodes
from repro.live.runner import LiveReplay, LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.util.timeutil import HOUR
from tests.scalar_reference import scalar_collectors

ARCHETYPES = {
    "ranger": RANGER,
    "stampede": STAMPEDE,
    "lonestar4": LONESTAR4,
}


def _tree(root) -> dict[str, str]:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _data_rows(warehouse):
    warehouse.commit()
    return {
        table: warehouse.connection.execute(
            f"SELECT {cols} FROM {table} ORDER BY {cols}").fetchall()
        for table, cols in [
            ("jobs", "system, jobid, user, account, science_field, app, "
                     "queue, exit_status, submit_time, start_time, "
                     "end_time, nodes, cores, node_hours"),
            ("job_metrics", "system, jobid, metric, value"),
            ("system_series", "system, metric, t, value"),
            ("syslog_events", "system, t, host, jobid, kind, severity"),
        ]
    }


@given(
    name=st.sampled_from(sorted(ARCHETYPES)),
    seed=st.integers(min_value=0, max_value=2**20),
    archive_format=st.sampled_from(["text", "v2"]),
    error_policy=st.sampled_from(["strict", "quarantine", "repair"]),
)
@settings(max_examples=6, deadline=None)
def test_fast_engine_matches_scalar_oracle(
        tmp_path_factory, name, seed, archive_format, error_policy):
    cfg = ARCHETYPES[name].scaled(num_nodes=2, horizon_days=1, n_users=6)
    d_fast = str(tmp_path_factory.mktemp("fast"))
    d_scalar = str(tmp_path_factory.mktemp("scalar"))
    r_fast = Facility(cfg, seed=seed).run_with_files(
        d_fast, compress=False, archive_format=archive_format,
        error_policy=error_policy)
    with scalar_collectors():
        r_scalar = Facility(cfg, seed=seed).run_with_files(
            d_scalar, compress=False, archive_format=archive_format,
            error_policy=error_policy)
    assert _tree(d_fast) == _tree(d_scalar)
    assert _data_rows(r_fast.warehouse) == _data_rows(r_scalar.warehouse)


@given(
    seed=st.integers(min_value=0, max_value=2**20),
    horizon_days=st.sampled_from([1, 2]),
    segment_hours=st.sampled_from([1, 3, 6, 12]),
    batch_segments=st.integers(min_value=1, max_value=3),
    offset=st.sampled_from([0.0, 1234.5, 1800.0]),
    revisit=st.booleans(),
    archive_format=st.sampled_from(["text", "v2"]),
    partition=st.sampled_from([[[0, 1]], [[0], [1]], [[1], [0]]]),
)
@example(seed=3, horizon_days=2, segment_hours=1, batch_segments=1,
         offset=1234.5, revisit=True, archive_format="v2",
         partition=[[0, 1]])
@example(seed=3, horizon_days=2, segment_hours=3, batch_segments=3,
         offset=0.0, revisit=False, archive_format="text",
         partition=[[1], [0]])
@settings(max_examples=4, deadline=None)
def test_sub_day_rotation_identity(tmp_path_factory, seed, horizon_days,
                                   segment_hours, batch_segments, offset,
                                   revisit, archive_format, partition):
    """Sub-day rotation: the live replay closes segments (firing the
    direct-to-v2 encoder) after every micro-batch, so the fast engine's
    day blocks are released — and their files closed — at points the
    offline path never sees: on segment edges, mid-hour (*offset*), at
    the same instant twice (*revisit*), and across ``t = DAY``, whose
    tick is the last row of day 1's block and the first of day 2's
    file.  The archives must still match the scalar path's byte for
    byte.  And the offline path over any node *partition*, one chunk
    after another, each advanced to the horizon in a single call, must
    write that same tree: any partition × any slicing gives one
    archive."""
    cfg = RANGER.scaled(num_nodes=2, horizon_days=horizon_days, n_users=5)
    seg = segment_hours * HOUR
    instants, t = [], offset
    while t < cfg.horizon:
        t = min(t + batch_segments * seg, cfg.horizon)
        instants += [t, t] if revisit else [t]
    trees = {}
    for synthesis in ("fast", "scalar"):
        d = str(tmp_path_factory.mktemp(synthesis))
        facility = Facility(cfg, seed=seed)
        workload, sim, _outages, _cluster = facility._simulate()
        archive = HostArchive(d, compress=False, rotate_seconds=seg,
                              archive_format=archive_format)
        with scalar_collectors() if synthesis == "scalar" else nullcontext():
            replay = LiveReplay(
                cfg, seed, workload.users, workload.util_scale,
                facility.phase_calibration, facility.regressions,
                sim.records, archive)
            fired = 0
            for t in instants:
                fired += replay.advance(t)
                archive.flush_before(t)
            archive.close()
        assert fired == sum(len(unit.events) for unit in replay._nodes)
        trees[synthesis] = _tree(d)
    assert trees["fast"] == trees["scalar"]

    d = str(tmp_path_factory.mktemp("offline"))
    # The sidecar this writes makes every later open of the directory
    # — each chunk's replay opens its own — rotate at the same period.
    HostArchive(d, rotate_seconds=seg)
    for chunk in partition:
        _replay_nodes(
            cfg, seed, workload.users, workload.util_scale,
            facility.phase_calibration, facility.regressions,
            sim.records, chunk, d, False, archive_format)
    assert _tree(d) == trees["fast"]


def test_live_session_fast_matches_scalar(tmp_path_factory):
    """The full live session (micro-batch ingest included) pinned on one
    representative cadence — the end-to-end path operators actually run."""
    cfg = RANGER.scaled(num_nodes=2, horizon_days=1, n_users=5)
    trees, rows = {}, {}
    for synthesis in ("fast", "scalar"):
        d = str(tmp_path_factory.mktemp(f"sess-{synthesis}"))
        with scalar_collectors() if synthesis == "scalar" else nullcontext():
            session = LiveSession(Facility(cfg, seed=3), d,
                                  segment_seconds=6 * HOUR)
            session.run()
        trees[synthesis] = _tree(d)
        rows[synthesis] = _data_rows(session.warehouse)
    assert trees["fast"] == trees["scalar"]
    assert rows["fast"] == rows["scalar"]
