"""Exact look-back: an append re-reads a ledgered file only if it
holds a job the run can load — and loses nothing by it.

Over facility seed × rotation period × batch size × archive format, a
stream of appends (i) ends row-identical to one append of the whole
archive, (ii) opens, batch by batch, exactly the ledgered cells that an
independent reading of the files says hold a pending job, and (iii)
loads every job from as many hosts as the one-shot run does.
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
from tests.live.test_live_property import _data_rows

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


def _append(session, root, warehouse):
    return IngestPipeline(warehouse).ingest(
        CFG, accounting_text=session.accounting_text,
        archive=HostArchive(root), lariat_records=session.lariat,
        syslog=session.syslog, mode="append")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from([3, 13]),
       period=st.sampled_from([HOUR, 2 * HOUR, DAY]),
       fmt=st.sampled_from(["text", "v2"]),
       data=st.data())
def test_appends_open_exactly_the_cells_holding_a_pending_job(
        corpus, tmp_path_factory, seed, period, fmt, data):
    full, session = corpus(seed, period, fmt)
    labels = segment_labels(full)
    step = data.draw(st.integers(min_value=1,
                                 max_value=max(1, len(labels) // 2)),
                     label="batch_segments")

    oneshot = Warehouse()
    oneshot_report = _append(session, full, oneshot)

    growing = tmp_path_factory.mktemp("growing")
    warehouse = Warehouse()
    partial: set[str] = set()
    reopened = 0
    for lo in range(0, len(labels), step):
        grow(full, growing, labels[lo:lo + step])
        expected = expected_lookback(
            growing, set(warehouse.ledger_map(CFG.name)),
            session.accounting_text, warehouse.job_ids(CFG.name),
            CFG.sample_interval)
        report = _append(session, growing, warehouse)
        # (ii) the look-back is those cells, no more and no fewer.
        assert report.delta.files_lookback == len(expected)
        reopened += len(expected)
        partial.update(report.match.partial)

    # (i) row for row what one append of everything loads ...
    assert _data_rows(warehouse) == _data_rows(oneshot)
    # (iii) ... with no job matched on fewer hosts along the way.
    assert partial == set(oneshot_report.match.partial)
    assert oneshot_report.jobs_loaded == warehouse.job_count(CFG.name)
    # Nothing stays open for a job that loaded.
    loaded = warehouse.job_ids(CFG.name)
    for entry in warehouse.ledger_map(CFG.name).values():
        assert entry.open_jobs is not None
        assert not entry.open_jobs & loaded
    if step < len(labels) and period < DAY:
        assert reopened > 0  # the property is not vacuous
