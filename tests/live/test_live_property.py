"""The live-cadence extension of PR5's partition property.

PR5 proved any contiguous *day*-chunk partition of an archive appends
to the same warehouse as a one-shot ingest.  Live mode stresses the
same ledger at sub-day granularity with interleaved snapshot refreshes
and counter upserts — so the property is restated at that cadence: ANY
interleaving of live micro-batches (random per-batch segment counts)
is row-identical to one equivalent nightly ``--append`` that consumes
all the segments at once.  Along the way, the ingest bookkeeping the
session's warehouse handle keeps in memory must equal what a fresh
handle reads from the file, batch by batch.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.columnar_scan import JobScanState
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LiveSession
from repro.util.timeutil import HOUR

CFG = TEST_SYSTEM.scaled(num_nodes=3, horizon_days=1, n_users=5)
SEED = 13
SEGMENT = 6 * HOUR


def _bookkeeping(w: Warehouse):
    return (w.ledger_map(CFG.name), w.job_ids(CFG.name),
            w.scan_states(CFG.name))


def _assert_in_memory_equals_sql(session):
    fresh = Warehouse(session.warehouse.path)
    try:
        assert _bookkeeping(session.warehouse) == _bookkeeping(fresh)
    finally:
        fresh.close()
    # A kept state the next append folds on instead of decoding its blob
    # is what that blob decodes to, field for field (a tuple where the
    # decoded state holds a list would already differ).
    for blob, state in session.pipeline._kept.items():
        assert JobScanState.from_blob(blob) == state


def _session(archive_dir):
    """A live session over CFG into a warehouse file beside *archive_dir*."""
    path = str(Path(archive_dir).with_suffix(".sqlite"))
    return LiveSession(Facility(CFG, seed=SEED), str(archive_dir),
                       warehouse=Warehouse(path), segment_seconds=SEGMENT)


def _run_live(archive_dir, batch_sizes=None):
    """A live session over CFG; *batch_sizes* drives how many segments
    each successive micro-batch folds in (None = one big batch)."""
    session = _session(archive_dir)
    sizes = iter(batch_sizes or [session.n_segments])
    while not session.done:
        session.batch_segments = next(sizes, 1)
        assert session.run_batch() is not None
        _assert_in_memory_equals_sql(session)
    return session


def _data_rows(w: Warehouse):
    w.commit()
    return {
        table: w.connection.execute(
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


@pytest.fixture(scope="module")
def nightly(tmp_path_factory):
    """The reference: every segment consumed by ONE append batch — the
    'equivalent nightly --append over the same segments'."""
    session = _run_live(tmp_path_factory.mktemp("nightly"))
    return _data_rows(session.warehouse), session.n_segments


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_micro_batch_interleaving_equals_nightly_append(
        nightly, tmp_path_factory, data):
    reference, n_segments = nightly
    sizes = data.draw(
        st.lists(st.integers(min_value=1, max_value=n_segments),
                 min_size=1, max_size=n_segments),
        label="batch segment counts")
    session = _run_live(tmp_path_factory.mktemp("interleaved"), sizes)
    assert _data_rows(session.warehouse) == reference


def test_single_segment_batches_equal_nightly(nightly,
                                              tmp_path_factory):
    """The densest cadence — one segment per batch — pinned explicitly
    (hypothesis may or may not draw it)."""
    reference, n_segments = nightly
    session = _run_live(tmp_path_factory.mktemp("dense"),
                        [1] * n_segments)
    assert len(session.run()) == 0  # already complete
    assert _data_rows(session.warehouse) == reference


def test_a_commit_between_batches_is_adopted_not_overwritten(
        nightly, tmp_path):
    """A scan state dropped through a second handle between two batches
    is gone for the session too: the job's ledgered files are read again
    instead of a stale state being folded on, and the session still
    lands on the nightly append."""
    reference, _n = nightly
    session = _session(tmp_path / "arch")
    reports = []
    while not session.warehouse.scan_states(CFG.name):
        assert not session.done, "no batch kept a scan state"
        reports.append(session.run_batch())
    other = Warehouse(session.warehouse.path)
    dropped = min(other.scan_states(CFG.name))
    other.record_scan_states(CFG.name, {}, [dropped])
    other.commit()
    other.close()
    assert dropped not in session.warehouse.scan_states(CFG.name)
    _assert_in_memory_equals_sql(session)
    reports += session.run()
    assert sum(r.delta.files_lookback for r in reports) > 0
    assert _data_rows(session.warehouse) == reference
