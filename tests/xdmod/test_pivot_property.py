"""The frame pivot against its reference.

:class:`SystemFrame` builds its metric columns by reading
``job_metrics`` one metric at a time in covering-index order and
slicing (``snapshot._pivot_metrics``).  The per-row loop it replaced is
kept here as the reference: for any job set — random missing metrics,
metric names the vocabulary does not know, job ids in any Unicode
order, a second system in the same file — the columns are equal bit
for bit, and a frame extended through random appends (new jobs, and
summaries arriving late for jobs already in the frame) equals a fresh
build.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest.vocabulary import SUMMARY_METRICS, JobSummary
from repro.ingest.warehouse import Warehouse
from repro.scheduler.job import ExitStatus, JobRecord
from repro.xdmod.snapshot import DIMENSIONS, SystemFrame
from tests.scheduler.test_job import make_request

SYSTEMS = ("alpha", "beta")

_text = st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\x00"), max_size=6)
_values = st.floats(allow_nan=False, width=64)
#: One job: id, user, the known metrics it carries, unknown-name rows.
_job = st.tuples(
    _text, st.sampled_from(("u1", "u2", "u3")),
    st.dictionaries(st.sampled_from(SUMMARY_METRICS), _values),
    st.dictionaries(_text.filter(lambda m: m not in SUMMARY_METRICS),
                    _values, max_size=2),
)
#: One commit: jobs per system (ids unique within the batch), and how
#: many summaries held back by earlier batches are delivered.
_batch = st.tuples(
    st.sampled_from(SYSTEMS),
    st.lists(_job, max_size=6, unique_by=lambda job: job[0]),
    st.booleans(),
)


def reference_columns(conn, system: str, jobid) -> dict[str, np.ndarray]:
    """The per-row pivot ``SystemFrame`` used to run."""
    pos = {j: i for i, j in enumerate(jobid)}
    cols = {m: np.full(len(jobid), np.nan) for m in SUMMARY_METRICS}
    for j, metric, value in conn.execute(
            "SELECT jobid, metric, value FROM job_metrics WHERE system=?",
            (system,)):
        col = cols.get(metric)
        if col is not None:
            col[pos[j]] = value
    return cols


def assert_frames_equal(a: SystemFrame, b: SystemFrame) -> None:
    assert a.n_rows == b.n_rows
    assert a.jobid.tolist() == b.jobid.tolist()
    for dim in DIMENSIONS:
        assert a.uniques[dim].tolist() == b.uniques[dim].tolist()
        assert a.codes[dim].dtype == b.codes[dim].dtype == np.int32
        assert np.array_equal(a.codes[dim], b.codes[dim])
    assert list(a.numeric) == list(b.numeric)
    for name in a.numeric:
        assert a.numeric[name].tobytes() == b.numeric[name].tobytes(), name


def apply_batch(wh: Warehouse, seen: set, held: list, batch) -> None:
    """Commit one batch: new jobs (every other one keeps its summary
    back for a later commit), unknown-metric rows by plain SQL."""
    system, jobs, deliver = batch
    if deliver:
        while held:
            wh.add_summary(*held.pop())
    for i, (jobid, user, metrics, unknown) in enumerate(jobs):
        if (system, jobid) in seen:
            continue
        seen.add((system, jobid))
        record = JobRecord(make_request(jobid=jobid, user=user, nodes=2),
                           0.0, 3600.0, (0, 1), ExitStatus.COMPLETED)
        summary = JobSummary(jobid, metrics, 2, 3600.0, 6)
        if i % 2:
            wh.add_job(system, record, 16)
            held.append((system, summary))
        else:
            wh.add_job(system, record, 16, summary)
        wh.connection.executemany(
            "INSERT INTO job_metrics VALUES (?,?,?,?)",
            [(system, jobid, m, v) for m, v in unknown.items()])
    wh.commit()


@settings(max_examples=60, deadline=None)
@given(st.lists(_batch, min_size=1, max_size=5))
def test_pivot_equals_reference_and_extended_equals_fresh(batches):
    wh = Warehouse()
    for name in SYSTEMS:
        wh.add_system(name, num_nodes=16, cores_per_node=16,
                      mem_gb_per_node=32.0, peak_tflops=2.3,
                      sample_interval=600.0)
    seen: set = set()
    held: list = []
    try:
        apply_batch(wh, seen, held, batches[0])
        frames = {name: SystemFrame(wh, name) for name in SYSTEMS}
        for batch in batches[1:]:
            apply_batch(wh, seen, held, batch)
            frames = {name: frame.extended(wh)
                      for name, frame in frames.items()}
        for name, frame in frames.items():
            fresh = SystemFrame(wh, name)
            assert_frames_equal(frame, fresh)
            reference = reference_columns(wh.connection, name, fresh.jobid)
            for metric, column in reference.items():
                assert fresh.numeric[metric].tobytes() == column.tobytes()
    finally:
        wh.close()
