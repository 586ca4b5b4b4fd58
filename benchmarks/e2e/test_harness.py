"""Checks of the harness itself (not collected by tier-1: ``testpaths =
tests``).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import harness  # noqa: E402
import run as bench  # noqa: E402
from harness import Request, Span, TraceSummary  # noqa: E402

SPEC = bench.load_spec()


# -- percentiles -----------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.0) == 100
    assert harness.percentile([7.0], 0.5) == 7.0


@pytest.mark.parametrize("n, label, value", [
    (39, "max", 39),       # even p75 would rest on 9 samples
    (40, "p75", 30),       # exactly ten beyond
    (100, "p90", 90),
    (999, "p90", 900),     # p99 has only nine beyond
    (1000, "p99", 990),
    (10000, "p99.9", 9990),
])
def test_hi_needs_ten_samples_beyond(n, label, value):
    assert harness.hi(list(range(1, n + 1))) == (label, value)


def test_hi_of_slices_is_the_median_of_per_slice_tails():
    # Three one-second slices of 100 samples; one has a far worse tail.
    samples = []
    for s, scale in enumerate((1.0, 10.0, 2.0)):
        samples += [(s + i / 100, scale * (i + 1)) for i in range(100)]
    label, value = harness.hi_of_slices(samples, 3)
    assert label == "median of 3 slices' p90"
    assert value == 2.0 * 90  # slice tails 90, 900, 180 -> median 180


def test_by_slice_keeps_whole_slices_only():
    samples = [(0.1, 1.0), (0.6, 2.0), (0.9, 3.0), (1.2, 4.0), (2.4, 5.0)]
    assert harness.by_slice(samples, 1.0, 2.5) == [[1.0, 2.0, 3.0], [4.0]]
    # A phase shorter than one slice is one slice.
    assert harness.by_slice(samples[:2], 1.0, 0.7) == [[1.0, 2.0]]


# -- the machine's speed ---------------------------------------------------------

def test_timings_are_quoted_at_the_reference_speed():
    # Two laps measured while the machine ran at half the reference
    # speed, one at full speed.
    laps = [harness.Lap(2.0, 0.5), harness.Lap(4.0, 0.5),
            harness.Lap(3.0, 1.0)]
    assert [lap.seconds for lap in laps] == [1.0, 2.0, 3.0]
    result = harness.Result("w", seed=0)
    assert result.timing("t_ms", laps, "what", scale=1e3) == 2000.0
    assert result.samples["t_ms"] == [1000.0, 2000.0, 3000.0]
    assert result.measured["t_ms"] == [2000.0, 4000.0, 3000.0]
    assert result.end_to_end["t_ms"] == (
        2000.0, 3, "what; as measured 3000")
    # Rates: work per lap over the lap.
    assert result.timing("rate", laps, "what", per=[10, 10, 30]) == 10.0
    assert result.measured["rate"] == [5.0, 2.5, 10.0]


def test_speedometer_reads_each_cpu_and_stops():
    began = time.perf_counter()
    with harness.Speedometer() as speed:
        time.sleep(0.5)
        now = time.perf_counter()
        for lane in ("harness", "server", "both"):
            # The kernel is sized for about REFERENCE_MS on this kind
            # of machine: the factor is a ratio near 1, not a time.
            assert 0.2 < speed.factor(began, now, lane) < 5.0
        lap = speed.lap(began, now, raw=7.0)
        assert lap.raw == 7.0 and lap.factor == speed.factor(began, now)
        # No sample near the interval: quoted as measured.
        assert speed.factor(began - 100.0, began - 99.0) == 1.0
        procs = [entry[0] for entry in speed._by_cpu.values()]
        assert all(p.is_alive() for p in procs)
    assert not any(p.is_alive() for p in procs)


# -- load generator arithmetic on a fake clock -----------------------------------

class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.t += seconds


def _fake_send(clock: FakeClock, service_s: float):
    def send(worker: int, request: Request) -> tuple[bool, int]:
        clock.sleep(service_s)
        return True, 10
    return send


def test_open_loop_latency_counts_from_due_time():
    clock = FakeClock()
    plan = [Request(k, 0, "GET", "/") for k in ("a", "b", "c")]
    samples = harness.run_load(
        iter(plan), _fake_send(clock, 0.5), 1, due=[0.0, 0.1, 2.0],
        clock=clock, sleep=clock.sleep)
    assert [s.kind for s in samples] == ["a", "b", "c"]
    # The second request was due while the first was still in flight:
    # it is sent 0.4 s late and its latency includes that wait.
    assert [round(s.late_ms) for s in samples] == [0, 400, 0]
    assert [s.queued for s in samples] == [False, True, False]
    assert [round(s.latency_ms) for s in samples] == [500, 900, 500]
    assert [round(s.due, 6) for s in samples] == [0.0, 0.1, 2.0]


def test_closed_loop_sends_back_to_back_until_the_phase_ends():
    clock = FakeClock()
    plan = [Request(k, 0, "GET", "/") for k in ("a", "b")]
    samples = harness.run_load(
        itertools.cycle(plan), _fake_send(clock, 0.5), 1, seconds=2.0,
        clock=clock, sleep=clock.sleep)
    assert [s.kind for s in samples] == ["a", "b", "a", "b"]
    assert all(round(s.latency_ms) == 500 and s.late_ms == 0
               for s in samples)


def test_phases_sharing_a_stream_continue_it():
    clock = FakeClock()
    stream = iter([Request(k, 0, "GET", "/") for k in "abcdef"])
    send = _fake_send(clock, 0.5)
    warm = harness.run_load(stream, send, 1, due=[0.0, 0.0],
                            clock=clock, sleep=clock.sleep)
    open_loop = harness.run_load(stream, send, 1, due=[0.0],
                                 clock=clock, sleep=clock.sleep)
    closed = harness.run_load(stream, send, 1, seconds=1.0,
                              clock=clock, sleep=clock.sleep)
    # An exhausted schedule takes no request from the stream.
    assert ([s.kind for s in warm], [s.kind for s in open_loop],
            [s.kind for s in closed]) == (["a", "b"], ["c"], ["d", "e"])


def test_poisson_schedule_is_seeded_and_near_its_rate():
    import random
    a = harness.poisson_due_times(random.Random(5), 300.0, 10.0)
    assert a == harness.poisson_due_times(random.Random(5), 300.0, 10.0)
    assert a == sorted(a) and a[-1] < 10.0
    assert 2700 < len(a) < 3300


# -- span-tree accounting ------------------------------------------------------------

def _span(name: str, duration: float, *children: Span, **attrs) -> Span:
    return Span(name=name, attrs=attrs, duration=duration,
                children=list(children))


def test_self_time_partitions_the_traced_wall():
    night = _span(
        "call.run_with_files", 9.0,
        _span("facility.simulate", 2.0),
        _span("facility.replay", 4.0,
              _span("synth.flush", 3.0, _span("archive.writer", 1.0))),
        _span("ingest", 2.0,
              _span("ingest.scan", 1.5, _span("ingest.parse", 1.0))),
        ingest_kind="v2")
    setup = _span("bench.setup", 10.0, night,
                  counters={"synth.samples": 100})
    repeats = [
        _span("bench.repeat", 4.0,
              _span("call.ingest", 3.0, _span("ingest", 3.0),
                    ingest_kind="text"),
              counters={"ingest.jobs_loaded": 10}),
        _span("bench.repeat", 6.0,
              _span("call.ingest", 5.0, _span("ingest", 4.0),
                    ingest_kind="through"),
              counters={"ingest.jobs_loaded": 30}),
    ]
    probe = _span("bench.probe", 50.0, _span("report.render", 40.0))
    summary = TraceSummary([setup, *repeats, probe])

    assert summary.self_s == pytest.approx({
        "facility.sidelogs_s": 1.0,        # 9 - (2 + 4 + 2)
        "facility.simulate_s": 2.0,
        "facility.replay_s": 1.0,
        "tacc_stats.synth.busy_s": 2.0,
        "tacc_stats.archive.write_s": 1.0,
        "ingest.v2.load_s": 0.5,           # root ingest span's own time
        "ingest.v2.scan_s": 0.5,
        "ingest.v2.parse_s": 1.0,
        "ingest.text.load_s": 1.5,         # 3 s in one of two repeats
        "ingest.through_s": 2.0,
        # setup 1, then per repeat (1 + 0)/2 and (1 + 1)/2
        "harness.unattributed_s": 1.0 + 0.5 + 1.0,
    })
    # Setup once plus one repeat's worth; the probe is left out.
    assert summary.wall_s == pytest.approx(10.0 + (4.0 + 6.0) / 2)
    assert sum(summary.self_s.values()) == pytest.approx(summary.wall_s)
    assert summary.counters == {"synth.samples": 100,
                                "ingest.jobs_loaded": 20}
    assert summary.calls["ingest"] == pytest.approx(1 + 2 / 2)
    assert summary.inclusive_s["call.ingest>ingest"] == pytest.approx(3.5)
    assert summary.n_spans == 17


def test_trace_file_merges_runs_of_leaf_siblings(tmp_path):
    root = _span("bench.repeat", 1.0,
                 *[_span("synth.sample", 0.01) for _ in range(5)],
                 _span("synth.flush", 0.5, _span("archive.writer", 0.1)),
                 _span("synth.sample", 0.01))
    path = tmp_path / "trace.json"
    harness.write_trace(path, [root], epoch=0.0)
    spans = json.loads(path.read_text())["spans"]
    assert [(s["name"], s.get("count"), s["parent"]) for s in spans] == [
        ("bench.repeat", None, None), ("synth.sample", 5, 0),
        ("synth.flush", None, 0), ("archive.writer", 1, 2),
        ("synth.sample", 1, 0)]
    assert spans[1]["busy"] == pytest.approx(0.05)
    assert {s["run"] for s in spans} == {0}


def test_tracing_wrappers_are_restored():
    from repro.ingest.warehouse import Warehouse
    from repro.tacc_stats import synth
    before = (Warehouse.commit, synth.NodeSynth.flush,
              synth.encode_host_blocks)
    with harness.tracing() as tracer:
        assert Warehouse.commit is not before[0]
        warehouse = Warehouse()
        warehouse.commit()
        warehouse.close()
    assert [r.name for r in tracer.roots] == ["warehouse.commit"]
    assert (Warehouse.commit, synth.NodeSynth.flush,
            synth.encode_host_blocks) == before


# -- compare -----------------------------------------------------------------------

def test_verdicts():
    # lower is better, bound 10 %
    assert compare.verdict([100] * 5, [105] * 5, "lower", 0.1)[2] == "same"
    assert compare.verdict([100] * 5, [120] * 5, "lower", 0.1)[2] == "worse"
    assert compare.verdict([100] * 5, [80] * 5, "lower", 0.1)[2] == "better"
    assert compare.verdict([100] * 5, [80] * 5, "higher", 0.1)[2] == "worse"
    noisy = [80, 90, 100, 110, 120]
    assert compare.verdict(noisy, [v + 5 for v in noisy], "lower",
                           0.1)[2] == "unresolved"
    # Wider than the bound, but every B run beats every A run.
    assert compare.verdict(noisy, [v / 2 for v in noisy], "lower",
                           0.1)[2] == "better"
    worse_by, wide, _ = compare.verdict([100, 100], [110, 110], "lower", 0.2)
    assert worse_by == pytest.approx(0.10) and wide == 0.0


# -- process hygiene ---------------------------------------------------------------

def _in_session(sid: int) -> list[str]:
    """Command lines of the live processes of session *sid*."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
            fields = text[text.rindex(")") + 2:].split()
            if int(fields[3]) == sid and fields[0] != "Z":
                found.append((stat.parent / "cmdline").read_text()
                             .replace("\0", " "))
        except (OSError, ValueError):
            pass  # gone while we looked
    return found


def test_sigterm_of_a_multi_run_leaves_no_server_or_scratch_tree():
    # --runs 2 goes through run.py -> run.py child -> repro-serve.
    runner = subprocess.Popen(
        [sys.executable, str(bench.HERE / "run.py"), "--workload",
         "live_stream", "--scale", "smoke", "--seconds", "1",
         "--runs", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not any("repro.cli.serve" in c
                      for c in _in_session(runner.pid)):
            assert runner.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert list(bench.OUT.glob("tmp-*"))
        runner.terminate()
        assert runner.wait(timeout=60) == 128 + signal.SIGTERM
        assert _in_session(runner.pid) == []
        assert list(bench.OUT.glob("tmp-*")) == []
    finally:
        if runner.poll() is None:
            os.killpg(runner.pid, signal.SIGKILL)
            runner.wait()


# -- every workload at smoke scale ---------------------------------------------------

#: The issue's workload-specific end-to-end names (its other three —
#: setup_s, peak_rss_mb, cpu_ms_per_unit — are metrics as they stand).
ISSUE_NAMES = {
    "etl_day": {"host_days_per_s", "archive_bytes_per_host_day"},
    "reingest": {"text_host_days_per_s", "v2_host_days_per_s", "append_s",
                 "archive_bytes_per_host_day"},
    "live_stream": {"batches_per_s", "visible_p50_ms", "visible_hi_ms",
                    "fresh_report_p50_ms"},
    "dashboard": {"cold_start_s", "req_per_s", "lat_p50_ms", "lat_hi_ms"},
}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_exactly_the_declared_metrics(name):
    result = bench.run_workload(name, seed=5, seconds=1.0, trace=True,
                                smoke=True)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    end_to_end = bench.record(result, SPEC, trace=False)["metrics"]
    per_layer = bench.record(result, SPEC, trace=True)["metrics"]
    assert ({n: m["unit"] for n, m in end_to_end.items()}
            == {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert ({n: m["unit"] for n, m in per_layer.items()}
            == {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    assert all(m["value"] > 0 for m in end_to_end.values()), end_to_end
    named = bench.record(result, SPEC, trace=False)["named"]
    assert set(named) == ISSUE_NAMES[name]
    assert all(m["value"] > 0 for m in named.values()), named
    assert per_layer["harness.traced_wall_s"]["value"] > 0
    assert (bench.OUT / f"trace-{name}.json").is_file()
    # The layers the workload exists for are the ones it exercises.
    exercised = {
        "etl_day": ["tacc_stats.synth.busy_s", "ingest.v2.scan_s",
                    "tacc_stats.archive.encode_v2_s"],
        "reingest": ["ingest.text.scan_s", "ingest.append.plan_s",
                     "tacc_stats.convert.convert_s"],
        "live_stream": ["ingest.live.scan_s", "live.batch_p50_ms",
                        "service.live_watch.wake_ms",
                        "xdmod.snapshot.refresh_s"],
        "dashboard": ["service.report.p50_ms", "service.l1_hit_ratio",
                      "service.l1_remisses", "federation.group_by_cold_s",
                      "facility.run_s"],
    }[name]
    assert all(per_layer[m]["value"] != 0 for m in exercised), {
        m: per_layer[m]["value"] for m in exercised}
