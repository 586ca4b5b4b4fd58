"""Tests for the metric table and the metric names of the analyses."""

from repro.ingest.columnar_scan import _EDGE_COLUMNS, _GAUGE, _PMC_CODES
from repro.ingest.summarize import KEY_METRICS, SUMMARY_METRICS
from repro.ingest.vocabulary import METRICS
from repro.xdmod.metrics import SERIES_NAMES
from repro.xdmod.persistence import PERSISTENCE_METRICS


def test_every_summary_metric_has_info():
    assert SUMMARY_METRICS == tuple(METRICS)
    for m in METRICS.values():
        assert m.label
        assert m.unit
        assert m.description.endswith(".")


def test_every_row_reads_kept_columns_and_every_kept_column_is_read():
    """A row's keys are columns the fold keeps (the ``ib`` ones chained,
    the gauge its one column), and each kept column is read by a row or
    by the cpu denominator."""
    read = {("cpu", key) for key in _EDGE_COLUMNS["cpu"]}
    for m in METRICS.values():
        types = list(_PMC_CODES) if m.type == "pmc" else [m.type]
        types += [m.fallback] if m.fallback else []
        if m.reduce.startswith("gauge"):
            assert (m.type, m.keys) == (_GAUGE[0], _GAUGE[1:])
            continue
        assert (m.reduce == "chain") == (m.type == "ib")
        for name in types:
            assert set(m.keys) <= set(_EDGE_COLUMNS[name])
            read.update((name, key) for key in m.keys)
    assert read == {(name, key) for name, keys in _EDGE_COLUMNS.items()
                    for key in keys}


def test_key_metrics_order_matches_paper_radar():
    """§4.2 names them in this order; the radar charts rely on it."""
    assert KEY_METRICS == (
        "cpu_idle", "mem_used", "mem_used_max", "cpu_flops",
        "io_scratch_write", "io_work_write", "net_ib_tx", "net_lnet_tx",
    )


def test_only_idle_is_lower_better():
    lower = [name for name, m in METRICS.items() if m.lower_is_better]
    assert lower == ["cpu_idle"]


def test_persistence_series_are_registered():
    for series_name in PERSISTENCE_METRICS.values():
        assert series_name in SERIES_NAMES


def test_series_names_documented():
    for name, doc in SERIES_NAMES.items():
        assert doc, name
