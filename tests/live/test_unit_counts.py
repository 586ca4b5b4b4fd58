"""What an hourly live session costs in files, ledger rows, manifest
entries, chunks and bytes — counts, not times — over the
``live_stream`` benchmark's session: RANGER, 16 nodes, 2 days, 49
hourly batches.

A host-day is one file grown by a unit a flush, so every count is
bounded by the host-days, never by the session's history; a later unit
is one digest over its blocks' values, not an index of chunks."""

from repro import RANGER
from repro.facility import Facility
from repro.live.runner import LiveSession
from repro.tacc_stats.columnar import read_host_day
from repro.telemetry.metrics import MetricsRegistry, use_registry

CFG = RANGER.scaled(num_nodes=16, horizon_days=2, n_users=24)
SEED = 1  # the benchmark's DATASET_SEED
HOST_DAYS = 16 * 3  # days 0 and 1, and the tick at the horizon


def test_an_hourly_session_costs_host_days_not_hours(tmp_path):
    session = LiveSession(Facility(CFG, seed=SEED), str(tmp_path),
                          segment_seconds=3600)
    batches = []
    while not session.done:
        registry = MetricsRegistry()
        with use_registry(registry):
            session.run_batch()
        batches.append(registry.snapshot().counters)
    assert len(batches) == 49

    def total(name):
        return sum(c.get(name, 0) for c in batches)

    files = sorted(tmp_path.rglob("*.v2"))
    assert total("archive.files_written") == len(files) == HOST_DAYS
    assert len(session.warehouse.ledger_map(CFG.name)) == HOST_DAYS
    # Each batch's manifest lists the files on disk, at most 3 a host.
    manifest = [c.get("archive.manifest_files", 0) for c in batches]
    assert manifest == sorted(manifest) and max(manifest) == HOST_DAYS
    # Every unit is mapped once, by the batch that appended it.
    mapped = [c.get("archive.v2.bytes_mapped", 0) for c in batches]
    written = [c.get("archive.bytes_compressed", 0) for c in batches]
    assert all(0 < m < w for m, w in zip(mapped, written) if w)
    assert sum(mapped) == sum(read_host_day(p).bytes_mapped for p in files)
    # A first unit maps 34 chunks (RANGER's 15 types), a later one is
    # one: 48 x 34 + 736, against 784 x 34 = 26 656 with indexed units.
    assert total("archive.units_written") == 784
    assert total("archive.v2.chunks_read") == HOST_DAYS * 34 + 784 - HOST_DAYS
    # No row stream, device index or chunk index is stored twice: the
    # indexed later units took 21 537 876 B.
    assert total("archive.bytes_compressed") < 21_537_876
