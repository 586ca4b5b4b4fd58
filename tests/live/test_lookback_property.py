"""Any segmentation, one result: an append continues from scan state.

Over facility seed × rotation period (1 h / 6 h / 1 d) × archive format
× ingest schedule (one-shot, nightly, per-segment live, or a drawn
batch size) × worker split, a stream of appends (i) ends with ``jobs``
and ``job_metrics`` (and the series) row-identical to one append of
the whole archive, (ii) opens, batch by batch, exactly the ledgered
cells that an independent reading of the files says it must — none,
every file here being kept whole — and (iii) loads every job from as
many hosts as the one-shot run does.  What a host the scan could *not*
keep whole is read again for is pinned in
``tests/ingest/test_fault_matrix.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TEST_SYSTEM
from repro.facility import Facility
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.live.runner import LiveSession
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.convert import convert_archive
from repro.util.timeutil import DAY, HOUR
from tests.ingest.lookback_oracle import (
    expected_lookback,
    grow,
    segment_labels,
)
from tests.parity import tables

CFG = TEST_SYSTEM.scaled(num_nodes=4, horizon_days=2, n_users=6)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``corpus(seed, period, fmt)`` -> (finished archive, session with
    its side logs) of one live replay, built once per parameter set;
    nothing is ingested here."""
    built: dict = {}

    def get(seed, period, fmt):
        key = (seed, period, fmt)
        if key not in built:
            if fmt == "v2":
                text_root, session = get(seed, period, "text")
                root = tmp_path_factory.mktemp("lookback_v2")
                convert_archive(text_root, "v2", out_root=root)
            else:
                root = tmp_path_factory.mktemp("lookback_text")
                session = LiveSession(Facility(CFG, seed=seed), str(root),
                                      segment_seconds=period)
                session.replay.advance(float(CFG.horizon))
                session.archive.close()
            built[key] = (str(root), session)
        return built[key]

    return get


def _ingest(session, root, warehouse, workers=1, **mode):
    return IngestPipeline(warehouse).ingest(
        CFG, accounting_text=session.accounting_text,
        archive=HostArchive(root), lariat_records=session.lariat,
        syslog=session.syslog, workers=workers, **mode)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from([3, 13]),
       period=st.sampled_from([HOUR, 6 * HOUR, DAY]),
       fmt=st.sampled_from(["text", "v2"]),
       workers=st.sampled_from([1, 2]),
       data=st.data())
def test_appends_open_exactly_the_cells_holding_a_pending_job(
        corpus, tmp_path_factory, pool_cpus, seed, period, fmt, workers,
        data):
    full, session = corpus(seed, period, fmt)
    labels = segment_labels(full)
    per_day = DAY // period
    step = data.draw(
        st.sampled_from(sorted({len(labels), per_day, 1}))
        | st.integers(min_value=1, max_value=max(1, len(labels) // 2)),
        label="segments per append (all = one-shot, a day's = nightly, "
              "1 = live)")

    oneshot = Warehouse()
    oneshot_report = _ingest(session, full, oneshot, mode="append")

    growing = tmp_path_factory.mktemp("growing")
    warehouse = Warehouse()
    partial: set[str] = set()
    continued = 0
    for lo in range(0, len(labels), step):
        grow(full, growing, labels[lo:lo + step])
        continued += len(warehouse.scan_states(CFG.name))
        expected = expected_lookback(
            growing, set(warehouse.ledger_map(CFG.name)),
            session.accounting_text, warehouse.job_ids(CFG.name),
            CFG.sample_interval)
        report = _ingest(session, growing, warehouse, workers,
                         mode="append")
        # (ii) every ledgered cell was kept whole: none is opened again.
        assert report.delta.files_lookback == len(expected) == 0
        partial.update(report.match.partial)

    # (i) row for row what one append of everything loads ...
    assert tables(warehouse) == tables(oneshot)
    # (iii) ... with no job matched on fewer hosts along the way.
    assert partial == set(oneshot_report.match.partial)
    assert oneshot_report.jobs_loaded == warehouse.job_count(CFG.name)
    # Nothing stays open, and no state is kept, for a job that loaded.
    loaded = warehouse.job_ids(CFG.name)
    for entry in warehouse.ledger_map(CFG.name).values():
        assert entry.open_jobs is not None
        assert not entry.open_jobs & loaded
    assert not {jobid for _host, jobid in
                warehouse.scan_states(CFG.name)} & loaded
    if step < len(labels) and period < DAY:
        assert continued > 0  # the property is not vacuous
