"""The ingest fold, checked at the fold itself.

* Pinned: :func:`scan_host` of one host-day written by hand gives the
  partials and views worked out below, literal for literal.
* Segmentation-free: a host's blocks cut into any consecutive pieces,
  with the states round-tripped through their persisted form at any
  cut, fold to the byte-identical state blobs of the one-shot fold —
  for small RANGER (``amd64_pmc``) and LONESTAR4 (``intel_pmc``) hosts,
  also with rows dropped so that device sets change mid-job and types
  go missing from blocks — and their partials equal both the one-shot
  fold's and the dict reducers' (``scan_host_data``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LONESTAR4, RANGER
from repro.facility import Facility
from repro.ingest.columnar_scan import (
    JobScanState,
    _HostFold,
    host_partial,
    scan_host,
)
from repro.ingest.matcher import HostJobView
from repro.ingest.parallel import scan_host_data
from repro.ingest.summarize import HostJobPartial
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.types import HostColumns

# Two jobs on a 2-core node: job 1 over blocks t=0, 600, 1200; job 2,
# whose PMC control register holds a code TACC_Stats never programs
# (1234567), over t=1800, 2400.  The ib columns are declared W=32 and
# port_xmit_data wraps once inside job 1.
HAND_DAY = """\
$hostname h1
!cpu user,E,U=cs nice,E,U=cs system,E,U=cs idle,E,U=cs iowait,E,U=cs \
irq,E,U=cs softirq,E,U=cs
!mem MemUsed,U=KB
!amd64_pmc ctl0 ctr0,E,W=48
!ib port_xmit_data,E,W=32,U=4B port_rcv_data,E,W=32,U=4B
0 1
%begin 1
cpu 0 100 0 50 800 10 0 0
cpu 1 200 0 50 700 10 0 0
mem 0 1000000
mem 1 1000000
amd64_pmc 0 4391107 1000
amd64_pmc 1 4391107 2000
ib mlx4_0 4294967000 1000
600 1
cpu 0 20100 600 3050 30800 610 0 0
cpu 1 24200 0 3050 30700 610 0 0
mem 0 1500000
mem 1 1500000
amd64_pmc 0 4391107 600001000
amd64_pmc 1 4391107 1200002000
ib mlx4_0 4 1600
1200 1
%end 1
cpu 0 48100 600 6050 60800 1210 0 0
cpu 1 48200 600 6050 60700 1210 0 0
mem 0 2000000
mem 1 2000000
amd64_pmc 0 4391107 1200001000
amd64_pmc 1 4391107 2400002000
ib mlx4_0 304 2200
1800 2
%begin 2
cpu 0 48100 600 6050 60800 1210 0 0
cpu 1 48200 600 6050 60700 1210 0 0
mem 0 1000000
mem 1 1000000
amd64_pmc 0 1234567 1200001000
amd64_pmc 1 4391107 2400002000
ib mlx4_0 1000 2200
2400 2
%end 2
cpu 0 63100 600 9050 72800 1210 0 0
cpu 1 63200 600 9050 72700 1210 0 0
mem 0 1000000
mem 1 1000000
amd64_pmc 0 1234567 1500001000
amd64_pmc 1 4391107 2700002000
ib mlx4_0 1600 2200
"""


def test_scan_host_of_a_hand_computed_host_day(tmp_path):
    (tmp_path / "h1").mkdir()
    (tmp_path / "h1" / "2013-01-01").write_text(HAND_DAY)
    scan, records, status = scan_host(HostArchive(tmp_path), "h1")
    assert (records, status) == ((), "ok")
    # Job 1, 1200 s, first -> last block summed over both cores:
    #   user 48000 + 48000 = 96000 cs -> 80/s   nice 600 + 600 -> 1/s
    #   system 6000 + 6000 -> 10/s              idle 60000 + 60000 -> 100/s
    #   iowait 1200 + 1200 -> 2/s               irq, softirq 0
    #   the seven rates sum to 193/s.
    #   ctr0 (W=48) 1200000000 + 2400000000 = 3.6e9 -> 3e6/s = 0.003 GF/s.
    #   MemUsed device sums 2e6, 3e6, 4e6 KB: mean 3e6, max 4e6 KB;
    #   KB / GB = 2**-20.
    #   ib port_xmit_data (W=32) 4294967000 -> 4 -> 304: the wrap gives
    #   4 + 2**32 - 4294967000 = 300, then 300; 600 words * 4 B / 1200 s
    #   = 2 B/s.  port_rcv_data 1000 -> 1600 -> 2200: 1200 words -> 4 B/s.
    job1 = {
        "cpu_idle": 100 / 193, "cpu_user": (80 + 1) / 193,
        "cpu_sys": 10 / 193, "cpu_flops": 0.003,
        "mem_used": 3e6 / 2**20, "mem_used_max": 4e6 / 2**20,
        "net_ib_tx": 2 / 1e6, "net_ib_rx": 4 / 1e6,
    }
    # Job 2, 600 s: user 15000 + 15000 -> 50/s, system 3000 + 3000 ->
    # 10/s, idle 12000 + 12000 -> 40/s, the rest 0: 100/s in all.
    # ctl0 of core 0 is foreign, so cpu_flops is poisoned, not absent.
    # MemUsed 2e6 KB in both blocks.  ib: 600 words -> 4 B/s, 0.
    job2 = {
        "cpu_idle": 0.4, "cpu_user": 0.5, "cpu_sys": 0.1,
        "mem_used": 2e6 / 2**20, "mem_used_max": 2e6 / 2**20,
        "net_ib_tx": 4 / 1e6, "net_ib_rx": 0.0,
    }
    assert scan.partials == {
        "1": HostJobPartial("h1", "1", job1, (), 3, 1200.0),
        "2": HostJobPartial("h1", "2", job2, ("cpu_flops",), 2, 600.0),
    }
    assert set(scan.views) == {
        HostJobView("h1", "1", (0.0, 1200.0), (0.0, 1200.0)),
        HostJobView("h1", "2", (1800.0, 2400.0), (1800.0, 2400.0)),
    }
    reference = scan_host_data(HostArchive(tmp_path).read_host("h1"))
    assert (scan.views, scan.partials) == (reference.views,
                                           reference.partials)


# ---------------------------------------------------------------------------
# Segmentation-free.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hosts(tmp_path_factory) -> list[tuple[str, list[HostColumns]]]:
    """Every host of a small RANGER and a small LONESTAR4 archive, as
    its decoded days."""
    out = []
    for cfg in (RANGER.scaled(num_nodes=2, horizon_days=2, n_users=4),
                LONESTAR4.scaled(num_nodes=2, horizon_days=2, n_users=4)):
        root = tmp_path_factory.mktemp(cfg.name)
        Facility(cfg, seed=3).run_with_files(str(root))
        archive = HostArchive(root)
        out += [(host, archive.read_host_days(host)[0])
                for host in archive.hostnames()]
    return out


def _keep_rows(day: HostColumns, keep: np.ndarray) -> HostColumns:
    """*day* with only the rows *keep* marks in its row stream."""
    types = []
    for ti, tc in enumerate(day.types):
        mine = keep[day.row_type == ti]
        types.append(dataclasses.replace(
            tc, dev_idx=tc.dev_idx[mine], values=tc.values[mine],
            block_idx=tc.block_idx[mine]))
    return dataclasses.replace(day, types=types, row_type=day.row_type[keep],
                               row_block=day.row_block[keep])


def _partials(host: str, fold: _HostFold) -> dict[str, HostJobPartial]:
    return {jobid: partial for jobid, st in fold.states.items()
            if (partial := host_partial(host, jobid, st)) is not None}


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_the_fold_is_segmentation_free(hosts, data):
    host, days = data.draw(st.sampled_from(hosts))
    drop = data.draw(st.sampled_from([0.0, 0.01, 0.1]))
    if drop:  # rare shapes: devices and whole types missing from blocks
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        days = [_keep_rows(day, rng.random(len(day.row_type)) >= drop)
                for day in days]
    pieces = []
    for day in days:
        n = len(day.times)
        cuts = sorted(set(data.draw(st.lists(st.integers(1, max(n - 1, 1)),
                                             max_size=4)))) if n > 1 else []
        pieces += [(day, lo, hi) for lo, hi in zip([0, *cuts], [*cuts, n])]
    trip = data.draw(st.integers(0, len(pieces)))

    cut = _HostFold()
    for i, (day, lo, hi) in enumerate(pieces):
        if i == trip:  # persisted and read back, mid-fold
            cut.states = {jobid: JobScanState.from_blob(state.to_blob())
                          for jobid, state in cut.states.items()}
        cut._add(day, lo, hi)
    whole = _HostFold()
    whole.add_days(days)

    assert {j: s.to_blob() for j, s in cut.states.items()} == {
        j: s.to_blob() for j, s in whole.states.items()}
    assert cut.views(host) == whole.views(host)
    partials = _partials(host, cut)
    assert partials == _partials(host, whole)
    merged = days[0].to_host_data()
    for day in days[1:]:
        merged.merge_from(day.to_host_data())
    assert partials == scan_host_data(merged).partials
