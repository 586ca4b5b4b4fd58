"""The four workloads: node counters -> served report, four ways.

Each function drives the program's real public entry points on inputs
made from the run's seed, times what a user of that path waits for,
checks the outputs, and fills a :class:`harness.Result`.  Why each
exists and which layer it isolates is in ``README.md`` and in the
``why`` lines of ``BENCHMARK.json``.

All work is serial (``workers=1``, ``ingest_workers=1``,
``shard_workers=1``) and load comes from at most two threads: pool
scaling cannot be measured on two shared cores.
"""

from __future__ import annotations

import gzip
import io
import itertools
import json
import random
import shutil
import statistics
import threading
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

import harness
from harness import (
    Client,
    CpuMeter,
    Request,
    Result,
    ServeProcess,
    Speedometer,
    by_slice,
    entry_times,
    hi,
    hi_of_slices,
    percentile,
    phase,
    poisson_due_times,
    run_load,
    span,
    table_digest,
    tree_bytes,
)

from repro import Facility
from repro.config import LONESTAR4, RANGER
from repro.federation.federated import FederatedWarehouse
from repro.federation.simulate import ClusterPlan, FederatedFacility
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.warehouse import Warehouse
from repro.lariat.records import lariat_record_for
from repro.live.runner import LiveSession
from repro.scheduler.accounting import AccountingWriter
from repro.service.state import REPORT_KINDS
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.convert import convert_archive
from repro.xdmod.query import JobQuery
from repro.xdmod.snapshot import WarehouseSnapshot

#: Seed of every simulated facility.  A facility this small is one draw
#: from a heavy-tailed workload — across seeds utilisation runs from
#: 69 % to 90 % and a night's cost by +-10 %, more than any regression
#: bound — so the dataset is pinned, as a benchmark's dataset is, and
#: ``--seed`` draws only what is load rather than data: the dashboard's
#: traffic mix and arrival schedule.
DATASET_SEED = 1
#: Fewest timed repeats of each workload's unit of work: nights of
#: ``etl_day``, cycles of ``reingest``.
MIN_NIGHTS = 3
MIN_CYCLES = 3
#: Cold report renders (fresh handle each) timed after every night of
#: ``etl_day``, in groups of :data:`RENDER_GROUP` whose medians are the
#: samples.
COLD_RENDERS = 40
RENDER_GROUP = 10
#: The ingests of one ``reingest`` cycle, in order.  The short ones are
#: repeated more often than the long one they ride with (an fsync that
#: stalls moves a 0.3 s append by half) and are spread through the
#: cycle, so that a disturbance seconds long does not catch them all.
CYCLE = ("append", "v2", "text", "append", "v2", "append")
#: Seconds per slice of the ``dashboard`` load phases; each slice gives
#: one sample of every timing.
SLICE_SECONDS = 0.5
#: Open-loop arrival rate of ``dashboard`` phase A (requests/s) and the
#: latency limit its tail is held to.  The rate is about a seventh of
#: the closed-loop capacity measured here (~1000 requests/s).  With only
#: two connections a 10 ms ``group_by`` holds half of them, and at a
#: quarter of capacity a fifth of all requests found both busy when they
#: fell due: the median then measured the queue more than the request.
OPEN_LOOP_RATE = 150.0
LATENCY_LIMIT_MS = 50.0
#: Load-generator threads == keep-alive connections per server.
CLIENTS = 2
#: ``repro-serve --warehouse`` spawns of ``dashboard`` timed to their
#: first report; the last one stays up and serves the load.
COLD_STARTS = 5
#: ``--cache-size`` of the ``dashboard`` servers (per-tenant L1 entries).
#: The time budget leaves a run about 7 000 requests, a quarter of what
#: the default 256 x 4 tenants would need to overflow, so the capacity
#: is scaled down with the traffic; the run fails unless every tenant's
#: distinct keys measurably exceed it.
L1_CAPACITY = 64
#: Requests drawn per run; more than a run sends, so no phase replays
#: another's requests.
PLAN_REQUESTS = 16000
TENANTS = ("ops", "support", "science", "finance")


@dataclass
class Run:
    """One invocation's inputs: what the driver passes on the command
    line, when the process started, and where it may write."""

    seed: int
    seconds: float
    trace: bool
    smoke: bool
    started: float
    tmp: Path
    speed: Speedometer


def _common(result: Result, setup: tuple[float, int, str],
            children: list[ServeProcess] = ()) -> None:
    """``setup_s``, ``peak_rss_mb`` and the per-process numbers."""
    cpu, rss = ({"harness": v} for v in harness.harness_usage())
    for c in children:  # instances of one name: CPU adds up, RSS peaks
        cpu[c.name] = cpu.get(c.name, 0.0) + c.usage()[0]
        rss[c.name] = max(rss.get(c.name, 0.0), c.usage()[1])
    top = max(rss, key=rss.get)
    result.end_to_end["setup_s"] = setup
    result.end_to_end["peak_rss_mb"] = (
        rss[top], 1, f"largest peak RSS of any process ({top})")
    for name in rss:
        result.per_layer[f"harness.proc.{name}.cpu_s"] = cpu[name]
        result.per_layer[f"harness.proc.{name}.peak_rss_mb"] = rss[name]


def _setup(run: Run, *marks: tuple[float, str]) -> tuple[float, int, str]:
    """``setup_s``: process start to the first timed operation, as
    stretches ``(ended, lane)`` each quoted at the speed of the CPU that
    did its work (see :class:`harness.Speedometer`)."""
    laps = [run.speed.lap(began, ended, lane) for began, (ended, lane)
            in zip([run.started, *(t for t, _ in marks)], marks)]
    return (sum(lap.seconds for lap in laps), 1,
            f"process start -> first timed operation; as measured "
            f"{sum(lap.raw for lap in laps):.4g}")


# -- per-layer numbers shared by the workloads --------------------------------

def trace_layers(result: Result, tracer, span_cost: float) -> None:
    """Fold the traced run's span tree into the per-layer metrics."""
    summary = harness.TraceSummary(tracer.roots)
    layers = result.per_layer
    layers.update(summary.self_s)
    wall = summary.wall_s
    layers["harness.traced_wall_s"] = wall
    layers["harness.layers_cover_pct"] = (
        100.0 * (wall - summary.self_s.get("harness.unattributed_s", 0.0))
        / wall if wall else 0.0)
    traced = sum(r.duration for r in tracer.roots)
    layers["harness.trace_overhead_pct"] = (
        100.0 * summary.n_spans * span_cost / traced if traced else 0.0)
    c = summary.counters
    layers["tacc_stats.synth.samples"] = c.get("synth.samples", 0.0)
    busy = layers.get("tacc_stats.synth.busy_s", 0.0)
    layers["tacc_stats.synth.samples_per_s"] = (
        c.get("synth.samples", 0.0) / busy if busy else 0.0)
    layers["tacc_stats.archive.files_written"] = c.get(
        "archive.files_written", 0.0)
    layers["tacc_stats.archive.bytes_written"] = c.get(
        "archive.bytes_compressed", 0.0)
    layers["tacc_stats.archive.raw_bytes"] = c.get("archive.bytes_raw", 0.0)
    layers["warehouse.commits"] = summary.calls.get("warehouse.commit", 0.0)
    inclusive = summary.inclusive_s
    layers["live.advance_s"] = inclusive.get("live.advance", 0.0)
    layers["live.flush_s"] = (
        inclusive.get("live.batch>archive.flush_before", 0.0)
        + inclusive.get("live.batch>archive.close", 0.0))
    layers["live.ingest_s"] = inclusive.get("live.batch>ingest", 0.0)


def _gzip_equiv_s(archive_dir: Path, sample: int = 12) -> float:
    """Seconds gzip (level 6, the archive's) needs for the archive's
    raw text: timed on up to *sample* files read back and scaled to the
    file count — equivalent work, not a span of the program."""
    files = sorted(p for p in archive_dir.glob("*/*") if p.is_file())
    picked = files[::max(1, len(files) // sample)][:sample]
    spent = 0.0
    for path in picked:
        data = HostArchive.read_file(path).encode()
        t0 = time.perf_counter()
        gzip.compress(data, compresslevel=6, mtime=0)
        spent += time.perf_counter() - t0
    return spent * len(files) / len(picked) if picked else 0.0


def _analytics_probe(result: Result, path: str, system: str) -> None:
    """In-process cost of the analytics layers on a finished
    warehouse file: cold snapshot build, cold/warm render per
    stakeholder, one cold group-by and one series load."""
    layers = result.per_layer
    with phase("probe"):
        builds = []
        for _ in range(5):
            with closing(Warehouse(path)) as wh:
                t0 = time.perf_counter()
                frame = WarehouseSnapshot.for_warehouse(wh).frame(system)
                builds.append(time.perf_counter() - t0)
        layers["xdmod.snapshot.cold_build_s"] = statistics.median(builds)
        layers["xdmod.snapshot.frame_rows"] = frame.n_rows

        with closing(Warehouse(path)) as wh:
            query = JobQuery(wh, system)
            targets = {"user": query.top("user", 1),
                       "developer": query.top("app", 1)}
        warm = []
        for kind, cls in REPORT_KINDS.items():
            target = targets.get(kind, [])
            with closing(Warehouse(path)) as wh:
                t0 = time.perf_counter()
                try:
                    cls(wh, system).render(*target)
                except KeyError:
                    # The archive ingest stores no system series, which
                    # the admin and manager reports need; they stay 0.
                    continue
                t1 = time.perf_counter()
                cls(wh, system).render(*target)
                warm.append(time.perf_counter() - t1)
                layers[f"xdmod.reports.cold_render_s.{kind}"] = t1 - t0
        layers["xdmod.reports.warm_render_s"] = statistics.median(warm)

        with closing(Warehouse(path)) as wh:
            snap = WarehouseSnapshot.for_warehouse(wh)
            snap.frame(system)
            t0 = time.perf_counter()
            JobQuery(wh, system, snapshot=snap).group_by("app")
            layers["xdmod.query.group_by_s"] = time.perf_counter() - t0
            for name in wh.series_metrics(system)[:1]:
                t0 = time.perf_counter()
                snap.series(system, name)
                layers["xdmod.query.timeseries_s"] = time.perf_counter() - t0
            layers["warehouse.job_rows"] = wh.job_count(system)
    layers["warehouse.db_bytes"] = Path(path).stat().st_size


def _class_latencies(result: Result, by_kind: dict[str, list[float]]) -> None:
    """``service.<class>.p50_ms`` / ``.hi_ms`` from client-side
    latencies (milliseconds) per request class."""
    for kind, values in by_kind.items():
        if values:
            result.per_layer[f"service.{kind}.p50_ms"] = \
                statistics.median(values)
            result.per_layer[f"service.{kind}.hi_ms"] = hi(values)[1]


def _service_counters(result: Result, before: list[dict],
                      after: list[dict]) -> None:
    """``/metrics`` deltas summed over the servers."""
    def delta(name: str) -> float:
        return sum(a.get(name, 0.0) - b.get(name, 0.0)
                   for a, b in zip(after, before))
    hits, misses = (delta("repro_service_cache_hit"),
                    delta("repro_service_cache_miss"))
    layers = result.per_layer
    layers["service.l1_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    layers["service.coalesced"] = delta("repro_service_coalesced")
    layers["service.requests"] = delta("repro_service_requests")
    layers["service.errors"] = delta("repro_service_errors")


# -- etl_day --------------------------------------------------------------------

def etl_day(run: Run, result: Result) -> None:
    """The paper's nightly chain, write side dominant: simulate ->
    synthesize -> v2 archive -> ingest -> file warehouse -> report."""
    from repro.xdmod.reports import SupportStaffReport

    small = RANGER.scaled(num_nodes=8, horizon_days=1)
    cfg = small if run.smoke else RANGER.scaled(num_nodes=48, horizon_days=2)
    digests: set[str] = set()

    def night(i: int, kind: str, cfg, cpu: CpuMeter):
        """One night, everything from counters to rendered bytes;
        returns ``((entered, archive written, report rendered), ok,
        directory, FacilityRun)``."""
        root = run.tmp / f"night-{i}"
        root.mkdir()
        with closing(Warehouse(str(root / "warehouse.sqlite"))) as warehouse:
            with phase(kind), cpu, \
                    entry_times(IngestPipeline, "ingest") as archived:
                t0 = time.perf_counter()
                with span("call.run_with_files", ingest_kind="v2"):
                    built = Facility(cfg, seed=DATASET_SEED).run_with_files(
                        str(root / "archive"), warehouse=warehouse,
                        archive_format="v2")
                with span("call.render"):
                    text = SupportStaffReport(warehouse, cfg.name).render()
                done = time.perf_counter()
            (archived_at,) = archived
            rate = built.ingest_report.match.match_rate
            ok = rate > 0.9 and bool(text)
            result.check(ok, f"night {i}: match rate {rate:.3f}, "
                             f"{len(text)} report bytes")
            if kind == "repeat":
                digests.add(table_digest(warehouse))
        return (t0, archived_at, done), ok, root, built

    report_s: list[float] = []  # every cold render, as measured

    def reopen(root: Path) -> list[Lap]:
        """What a staff member waits for the morning after: open the
        loaded warehouse file, render the support report — fresh handle
        each time, outside the night's wall, CPU meter and trace.
        Returns the median of every :data:`RENDER_GROUP` renders."""
        groups = []
        with phase("probe"):
            for _ in range(COLD_RENDERS // RENDER_GROUP):
                began = time.perf_counter()
                cold = []
                for _ in range(RENDER_GROUP):
                    t0 = time.perf_counter()
                    with closing(Warehouse(
                            str(root / "warehouse.sqlite"))) as wh:
                        SupportStaffReport(wh, cfg.name).render()
                    cold.append(time.perf_counter() - t0)
                report_s.extend(cold)
                groups.append(run.speed.lap(began, time.perf_counter(),
                                            raw=statistics.median(cold)))
        return groups

    # The warm-up is a small night: it pays for the imports and first
    # calls; what a first full-size night still costs extra (memory
    # first touched) is one repeat of several, which the median drops.
    shutil.rmtree(night(0, "warmup", small, CpuMeter())[2])
    cpu = CpuMeter()
    lap = run.speed.lap
    walls: list[Lap] = []
    visible: list[Lap] = []
    groups: list[Lap] = []
    failures: list[bool] = []
    root = None
    first_timed = time.perf_counter()
    while (len(walls) < (1 if run.smoke else MIN_NIGHTS)
           or time.perf_counter() - first_timed < run.seconds):
        if root is not None:
            shutil.rmtree(root)
        (t0, archived_at, done), ok, root, built = night(
            len(walls) + 1, "repeat", cfg, cpu)
        walls.append(lap(t0, done))
        visible.append(lap(archived_at, done))
        groups += reopen(root)
        failures.append(not ok)
    result.check(len(digests) == 1,
                 f"analytics tables differ across repeats "
                 f"({len(digests)} digests)")

    result.attempted, result.failed = len(failures), sum(failures)
    stats = built.archive_stats
    archive_dir = root / "archive"
    n = len(walls)
    e2e = result.end_to_end
    rate = result.timing(
        "throughput_per_s", walls,
        "host_days_per_s: archive host-days / wall of one night, "
        "run_with_files entry -> rendered report bytes",
        per=[stats.host_days] * n)
    result.timing(
        "answer_p50_ms", groups,
        f"open the loaded warehouse file -> rendered support report "
        f"(cold), medians of {RENDER_GROUP}", scale=1e3)
    result.timing(
        "fresh_ms", visible,
        "archive written -> report rendered (ingest + snapshot + render): "
        "how soon the night's data is visible", scale=1e3)
    e2e["bytes_per_unit"] = (
        tree_bytes(archive_dir) / stats.host_days, 1,
        "archive_bytes_per_host_day: v2 archive bytes on disk")
    result.named["host_days_per_s"] = (rate, "1/s", n)
    result.named["archive_bytes_per_host_day"] = (
        e2e["bytes_per_unit"][0], "B", 1)
    result.timing("cpu_ms_per_unit",
                  [lap(t0, t1, raw=cpu_s) for t0, t1, cpu_s in cpu.laps],
                  "user+sys CPU per host-day", scale=1e3 / stats.host_days)
    _common(result, _setup(run, (first_timed, "harness")))
    result.per_layer["harness.answer_hi_ms"] = hi(report_s)[1] * 1e3
    result.per_layer["scheduler.jobs"] = len(built.records)
    if run.trace:
        result.per_layer["tacc_stats.archive.gzip_equiv_s"] = \
            _gzip_equiv_s(archive_dir)
        _analytics_probe(result, str(root / "warehouse.sqlite"), cfg.name)


# -- reingest --------------------------------------------------------------------

def reingest(run: Run, result: Result) -> None:
    """The read side: one archive ingested as text, as v2, and as a
    nightly append — the twin paths side by side."""
    cfg = (RANGER.scaled(num_nodes=8, horizon_days=2) if run.smoke
           else RANGER.scaled(num_nodes=32, horizon_days=4))
    last_day = 1 if run.smoke else 3
    text_dir, v2_dir = run.tmp / "text", run.tmp / "v2"
    through_db = run.tmp / "w-through.sqlite"

    def ingest(kind: str, archive_dir: Path, warehouse: Warehouse,
               **mode):
        with span("call.ingest", ingest_kind=kind):
            return IngestPipeline(warehouse).ingest(
                cfg, accounting_text=accounting,
                archive=HostArchive(str(archive_dir)),
                lariat_records=lariat, workers=1, **mode)

    with phase("setup"):
        # The archive is what set-up is for; the ingest run_with_files
        # does on the way is held to the first day.
        with span("call.run_with_files", ingest_kind="setup"):
            built = Facility(cfg, seed=DATASET_SEED).run_with_files(
                str(text_dir), ingest_through_day=1)
        buf = io.StringIO()
        AccountingWriter(buf, cfg.node.cores,
                         cfg.name).write_all(built.records)
        accounting = buf.getvalue()
        lariat = [lariat_record_for(r, cfg.node.cores)
                  for r in built.records]
        with span("call.convert_archive"):
            converted = convert_archive(str(text_dir), to="v2",
                                        out_root=str(v2_dir))
        result.check(not converted.passthrough and not converted.drifted,
                     f"archive conversion not clean: {converted}")
        # The warehouse every timed append starts from (a copy of it):
        # the earlier days, loaded once.
        with closing(Warehouse(str(through_db))) as warehouse:
            ingest("through", v2_dir, warehouse, through_day=last_day)
    host_days = built.archive_stats.host_days
    cpu = CpuMeter()
    walls: dict[str, list[Lap]] = {"text": [], "v2": [], "append": []}
    ingested = 0
    digests: set[str] = set()
    deltas: list = []
    last_db = run.tmp / f"w-v2-{CYCLE.index('v2')}.sqlite"

    def timed(kind: str, archive_dir: Path, path: Path) -> Warehouse:
        """One ingest into a fresh file warehouse — for ``append``, one
        that holds the earlier days."""
        nonlocal ingested
        path.unlink(missing_ok=True)
        if kind == "append":
            shutil.copyfile(through_db, path)
        warehouse = Warehouse(str(path))
        t0 = time.perf_counter()
        report = ingest(kind, archive_dir, warehouse,
                        **({"mode": "append"} if kind == "append" else {}))
        walls[kind].append(run.speed.lap(t0, time.perf_counter()))
        if report.delta is not None:
            deltas.append(report)
            ingested += report.delta.files_new
        else:
            ingested += host_days
        return warehouse

    first_timed = time.perf_counter()
    cycles = 0
    while (cycles < (1 if run.smoke else MIN_CYCLES)
           or time.perf_counter() - first_timed < run.seconds):
        with phase("repeat"), cpu:
            loaded = [timed(kind, text_dir if kind == "text" else v2_dir,
                            run.tmp / f"w-{kind}-{i}.sqlite")
                      for i, kind in enumerate(CYCLE)]
        for warehouse in loaded:
            result.attempted += 1
            result.failed += warehouse.job_count(cfg.name) == 0
            digests.add(table_digest(warehouse))
            warehouse.close()
        cycles += 1
    result.check(len(digests) == 1,
                 f"text, v2 and through-day+append warehouses differ "
                 f"({len(digests)} digests)")

    e2e = result.end_to_end
    v2 = result.timing(
        "throughput_per_s", walls["v2"],
        "v2_host_days_per_s: full ingest of the v2 archive",
        per=[host_days] * len(walls["v2"]))
    text = result.timing(
        "answer_p50_ms", walls["text"],
        "full ingest of the text+gzip archive (host-days / this = "
        "text_host_days_per_s)", scale=1e3)
    append = result.timing(
        "fresh_ms", walls["append"],
        "append_s: nightly append of the final day", scale=1e3) / 1e3
    e2e["bytes_per_unit"] = (
        tree_bytes(text_dir) / host_days, 1,
        "archive_bytes_per_host_day: text+gzip archive bytes on disk")
    named = result.named
    named["text_host_days_per_s"] = (host_days * 1e3 / text, "1/s", cycles)
    named["v2_host_days_per_s"] = (v2, "1/s", len(walls["v2"]))
    named["append_s"] = (append, "s", len(walls["append"]))
    named["archive_bytes_per_host_day"] = (e2e["bytes_per_unit"][0], "B", 1)
    result.timing(
        "cpu_ms_per_unit",
        [run.speed.lap(t0, t1, raw=cpu_s) for t0, t1, cpu_s in cpu.laps],
        "user+sys CPU per host-day ingested, one cycle of ingests",
        scale=1e3 * cycles / ingested)
    _common(result, _setup(run, (first_timed, "harness")))
    layers = result.per_layer
    layers["harness.answer_hi_ms"] = max(w.raw for w in walls["text"]) * 1e3
    layers["scheduler.jobs"] = len(built.records)
    layers["tacc_stats.convert.files"] = converted.total
    _delta_counts(result, "append", deltas, len(deltas),
                  statistics.median(w.raw for w in walls["append"]))
    if run.trace:
        layers["tacc_stats.archive.gzip_equiv_s"] = _gzip_equiv_s(text_dir)
        _analytics_probe(result, str(last_db), cfg.name)


def _delta_counts(result: Result, kind: str, reports: list,
                  per: int, seconds: float) -> None:
    """The delta-plan counts of the ``append``/``live`` ingests, per
    repeat (which took *seconds*): new, lookback and skipped files,
    jobs loaded."""
    layers = result.per_layer
    new = sum(r.delta.files_new for r in reports) / per
    lookback = sum(r.delta.files_lookback for r in reports) / per
    layers[f"ingest.{kind}.files_new"] = new
    layers[f"ingest.{kind}.files_lookback"] = lookback
    layers[f"ingest.{kind}.files_skipped"] = sum(
        r.delta.files_skipped for r in reports) / per
    layers[f"ingest.{kind}.useful_file_ratio"] = (
        new / (new + lookback) if new + lookback else 0.0)
    jobs = sum(r.jobs_loaded for r in reports) / per
    layers[f"ingest.{kind}.jobs_loaded"] = jobs
    layers[f"ingest.{kind}.jobs_per_s"] = jobs / seconds


# -- live_stream -------------------------------------------------------------------

class _Watcher(threading.Thread):
    """The operator's dashboard during a live session: holds a
    long-poll on ``live/watch``; on every wake it polls ``live/top``,
    then refreshes and re-renders the support report."""

    def __init__(self, server: ServeProcess, system: str):
        super().__init__(name="watcher")
        self.client = Client([server])
        self.system = system
        #: (high-water the watch returned, when it returned)
        self.seen: list[tuple[float, float]] = []
        self.by_kind: dict[str, list[float]] = {
            "live_top": [], "refresh": [], "report": []}
        #: (began, ended) of each refresh + report pair
        self.fresh: list[tuple[float, float]] = []
        self.attempted = self.failed = self.nbytes = 0
        self.done_at: float | None = None  # high-water to stop after
        self.error: BaseException | None = None

    def _call(self, kind: str | None, method: str, path: str) -> dict:
        t0 = time.perf_counter()
        self.attempted += 1
        status, body = self.client.request(
            Request(kind or "", 0, method, path))
        if kind is not None:
            self.by_kind[kind].append((time.perf_counter() - t0) * 1e3)
        self.nbytes += len(body)
        if status != 200:
            self.failed += 1
            raise RuntimeError(f"{method} {path} -> {status}")
        return json.loads(body)

    def run(self) -> None:
        api, system = "/api/v1", self.system
        try:
            since = self._call(None, "GET",
                               f"{api}/live/watch?system={system}")["t"]
            while self.done_at is None or since < self.done_at:
                woke = self._call(
                    None, "GET", f"{api}/live/watch?system={system}"
                                 f"&since={since!r}&timeout=1")
                if not woke["changed"]:
                    continue
                since = woke["t"]
                self.seen.append((since, time.perf_counter()))
                self._call("live_top", "GET",
                           f"{api}/live/top?system={system}")
                t0 = time.perf_counter()
                self._call("refresh", "POST", f"{api}/refresh")
                self._call("report", "GET",
                           f"{api}/report/support?system={system}")
                self.fresh.append((t0, time.perf_counter()))
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc
        finally:
            self.client.close()


def live_stream(run: Run, result: Result) -> None:
    """Writes beside reads: hourly micro-batches into a file warehouse
    that a ``repro-serve`` child serves to a long-polling watcher."""
    cfg = (RANGER.scaled(num_nodes=8, horizon_days=0.5, n_users=12)
           if run.smoke
           else RANGER.scaled(num_nodes=16, horizon_days=2, n_users=24))
    db = run.tmp / "warehouse.sqlite"
    archive_dir = run.tmp / "archive"
    with phase("setup"):
        # Opened the way ``repro-simulate --live`` opens it: default
        # SQLite journaling, not fast writes.
        warehouse = Warehouse(str(db))
        with span("call.live_session", ingest_kind="live"):
            session = LiveSession(Facility(cfg, seed=DATASET_SEED),
                                  str(archive_dir), warehouse=warehouse,
                                  segment_seconds=3600)
            # repro-serve refuses a warehouse without a system and the
            # support report one without finished jobs, so the session's
            # first hours land before the server starts.
            reports = []
            while not reports or reports[-1].jobs_total < 3:
                reports.append(session.run_batch())
        lead = len(reports)
        first_high_water = warehouse.live_high_water(cfg.name)
    session_ready = time.perf_counter()
    with ServeProcess("serve_warehouse", run.tmp, "--warehouse",
                      str(db)) as server:
        probe = Client([server])
        probe.get_json(0, f"/api/v1/report/support?system={cfg.name}")
        first_report_s = time.perf_counter() - server.spawned
        before = harness.scrape_metrics(probe, 0)
        watcher = _Watcher(server, cfg.name)
        watcher.start()
        cpu = CpuMeter([server])
        #: (entered run_batch, returned, live high-water afterwards)
        batches: list[tuple[float, float, float]] = []
        first_timed = time.perf_counter()
        try:
            with phase("repeat"), span("call.live_batches",
                                       ingest_kind="live"):
                while not session.done and watcher.is_alive():
                    with cpu:
                        t0 = time.perf_counter()
                        reports.append(session.run_batch())
                        batches.append((t0, time.perf_counter(),
                                        warehouse.live_high_water(cfg.name)))
            session_s = time.perf_counter() - first_timed
        finally:
            watcher.done_at = (batches[-1][2] if batches
                               else float("-inf"))
            watcher.join(timeout=30)
        if watcher.error is not None or watcher.is_alive():
            raise RuntimeError(f"watcher failed: {watcher.error!r}")
        after = harness.scrape_metrics(probe, 0)
        probe.close()
        _common(result, _setup(run, (session_ready, "harness"),
                               (first_timed, "server")), [server])

    # Event-to-visible: a batch is visible at the first watch return
    # whose high-water covers the one the batch published.  A batch
    # that published nothing newer (no job was running) has no event.
    lap = run.speed.lap
    visible: list[Lap] = []
    wake = []
    previous = first_high_water
    covered = 0
    for t0, t1, high_water in batches:
        if high_water <= previous:
            continue
        previous = high_water
        while (covered < len(watcher.seen)
               and watcher.seen[covered][0] < high_water):
            covered += 1
        if covered == len(watcher.seen):
            result.failed += 1
            result.check(False, f"batch at {high_water} never became "
                                f"visible to the watcher")
            break
        visible.append(lap(t0, watcher.seen[covered][1]))
        wake.append((watcher.seen[covered][1] - t1) * 1e3)
    result.attempted += len(batches) + watcher.attempted
    result.failed += watcher.failed

    rows = [r.snapshot_rows for r in reports]
    result.check(rows == sorted(rows), "snapshot_rows not monotone")
    with phase("check"):
        oneshot = Warehouse()
        IngestPipeline(oneshot).ingest(
            cfg, accounting_text=session.accounting_text,
            archive=HostArchive(str(archive_dir)),
            lariat_records=session.lariat, syslog=session.syslog,
            mode="append")
        result.check(table_digest(oneshot) == table_digest(warehouse),
                     "live warehouse differs from a one-shot append")
        jobs = warehouse.job_count(cfg.name)
        oneshot.close()
    warehouse.close()

    # The batches grow with the archive, so no two compare and the
    # session is one sample; but each batch is quoted at the machine's
    # speed while it ran.
    e2e = result.end_to_end
    for which, samples in (("seconds", result.samples),
                           ("raw", result.measured)):
        samples["throughput_per_s"] = [len(batches) / sum(
            getattr(lap(t0, t1), which) for t0, t1, _ in batches)]
    e2e["throughput_per_s"] = (
        result.samples["throughput_per_s"][0], len(batches),
        f"batches_per_s: micro-batches / their run_batch() time; as "
        f"measured {result.measured['throughput_per_s'][0]:.4g}")
    result.timing(
        "answer_p50_ms", visible,
        "visible_p50_ms: run_batch() entry -> watch return covering it",
        scale=1e3)
    result.timing(
        "fresh_ms", [lap(t0, t1, "both") for t0, t1 in watcher.fresh],
        "fresh_report_p50_ms: POST refresh + GET report/support",
        scale=1e3)
    e2e["bytes_per_unit"] = (
        db.stat().st_size / jobs, 1, "warehouse file bytes per job row")
    result.timing(
        "cpu_ms_per_unit",
        [lap(t0, t1, raw=cpu_s) for t0, t1, cpu_s in cpu.laps],
        "user+sys CPU per micro-batch, harness + server", scale=1e3,
        middle=statistics.fmean)
    for issue_name, role in (("batches_per_s", "throughput_per_s"),
                             ("visible_p50_ms", "answer_p50_ms"),
                             ("fresh_report_p50_ms", "fresh_ms")):
        result.named[issue_name] = (
            e2e[role][0], "1/s" if role == "throughput_per_s" else "ms",
            e2e[role][1])
    tail = hi([v.raw * 1e3 for v in visible])[1]
    result.named["visible_hi_ms"] = (tail, "ms", len(visible))

    layers = result.per_layer
    layers["harness.answer_hi_ms"] = tail
    durations = [(t1 - t0) * 1e3 for t0, t1, _ in batches]
    tenth = max(1, len(durations) // 10)
    layers["live.batch_p50_ms"] = statistics.median(durations)
    layers["live.batch_hi_ms"] = hi(durations)[1]
    layers["live.batch_growth_x"] = (
        statistics.median(durations[-tenth:])
        / statistics.median(durations[:tenth]))
    layers["live.refresh_s"] = sum(r.refresh_seconds for r in reports[lead:])
    layers["scheduler.jobs"] = len(session.sim.records)
    _delta_counts(result, "live", reports[lead:], 1, session_s)
    _class_latencies(result, watcher.by_kind)
    layers["service.live_watch.wake_ms"] = statistics.median(wake)
    layers["service.live_watch.hi_ms"] = hi(wake)[1]
    _service_counters(result, [before], [after])
    layers["service.bytes_out"] = watcher.nbytes
    layers["service.startup_s"] = server.startup_s
    layers["service.first_report_s"] = first_report_s
    if run.trace:
        _analytics_probe(result, str(db), cfg.name)


# -- dashboard -----------------------------------------------------------------------

def _zipf(rng: random.Random, items: list[str], k: int) -> list[str]:
    """*k* draws from *items* (seeded order) with Zipf(1.1) weights:
    a hot head and a long tail."""
    ranked = sorted(items)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ranked))]
    return rng.choices(ranked, weights, k=k)


#: The dashboard mix, as requests per hundred: class -> share.
MIX = (("report", 35), ("report_user", 20), ("report_developer", 10),
       ("group_by", 15), ("timeseries", 10), ("fed_group_by", 7),
       ("fed_overview", 3))
STAKEHOLDERS = ("support", "admin", "manager", "funding")
GROUP_DIMS = ("app", "science_field", "queue", "user")


def _traffic(rng: random.Random, system: str, users: list[str],
             apps: list[str], series: list[str], n: int) -> list[Request]:
    """The seeded dashboard mix; server 0 is the ``--warehouse``
    instance, server 1 the ``--federation`` one.

    The mix is stratified: every hundred consecutive requests hold
    exactly the :data:`MIX` shares in a seeded order, and the choices
    within a class (stakeholder, dimension, series) go round-robin, so
    two seeds differ in order, targets and tenants but not in how much
    work a second of traffic is.  User and application targets are
    Zipf draws — the hot head and long tail are the point.
    """
    api = "/api/v1"
    user_draws = iter(_zipf(rng, users, n))
    app_draws = iter(_zipf(rng, apps, n))
    turn = {kind: rng.randrange(12) for kind, _ in MIX}
    plan = []
    while len(plan) < n:
        block = [kind for kind, share in MIX for _ in range(share)]
        rng.shuffle(block)
        for kind in block:
            turn[kind] += 1
            server, label = 0, kind
            if kind == "report":
                which = STAKEHOLDERS[turn[kind] % len(STAKEHOLDERS)]
                path = f"{api}/report/{which}?system={system}"
            elif kind == "report_user":
                label = "report_target"
                path = (f"{api}/report/user?system={system}"
                        f"&target={quote(next(user_draws))}")
            elif kind == "report_developer":
                label = "report_target"
                path = (f"{api}/report/developer?system={system}"
                        f"&target={quote(next(app_draws))}")
            elif kind == "group_by":
                dim = GROUP_DIMS[turn[kind] % len(GROUP_DIMS)]
                path = (f"{api}/query/group_by?system={system}"
                        f"&dimension={dim}")
            elif kind == "timeseries":
                path = (f"{api}/timeseries/"
                        f"{series[turn[kind] % len(series)]}"
                        f"?system={system}")
            elif kind == "fed_group_by":
                server = 1
                path = (f"{api}/query/group_by?system=all"
                        f"&dimension=cluster,app")
            else:
                server = 1
                path = f"{api}/federation/overview"
            plan.append(Request(label, server, "GET", path,
                                rng.choice(TENANTS)))
    return plan[:n]


def _federation_probe(result: Result, root: str) -> None:
    """In-process cost of the federation layer over the shard files."""
    layers = result.per_layer
    with phase("probe"):
        t0 = time.perf_counter()
        fed = FederatedWarehouse.open(root)
        fed.snapshots()
        t1 = time.perf_counter()
        fed.group_by(("cluster", "app"))
        t2 = time.perf_counter()
        fed.group_by(("cluster", "app"))
        t3 = time.perf_counter()
        fed.timeseries(fed.series_metrics()[0])
        t4 = time.perf_counter()
        fed.overview()
        t5 = time.perf_counter()
        fed.close()
    layers["federation.build_s"] = t1 - t0
    layers["federation.group_by_cold_s"] = t2 - t1
    layers["federation.group_by_warm_s"] = t3 - t2
    layers["federation.timeseries_s"] = t4 - t3
    layers["federation.overview_s"] = t5 - t4


def dashboard(run: Run, result: Result) -> None:
    """Read-only serving of a working set larger than the L1 cache,
    first at a fixed open-loop rate, then closed loop."""
    sizes = ((16, 3, 40), (8, 3, 20)) if run.smoke \
        else ((96, 20, 400), (32, 20, 80))
    plans = [
        ClusterPlan(name, archetype.scaled(nodes, days, n_users=users),
                    DATASET_SEED)
        for (name, archetype), (nodes, days, users)
        in zip((("ranger", RANGER), ("lonestar4", LONESTAR4)), sizes)]
    system = "ranger"
    root = run.tmp / "federation"
    with phase("setup"):
        with span("call.federation_run"):
            built = FederatedFacility.plan(str(root), plans).run()
    shard = str(root / f"{system}.sqlite")
    warehouse = Warehouse(shard)
    query = JobQuery(warehouse, system)
    users = sorted(set(query.column("user")))
    apps = sorted(set(query.column("app")))
    series = warehouse.series_metrics(system)
    rng = random.Random(run.seed)
    built_at = time.perf_counter()
    capacity = 8 if run.smoke else L1_CAPACITY
    # One stream for warm-up, phase A and phase B: each continues where
    # the last stopped, so new Zipf-tail targets keep arriving.
    traffic = itertools.cycle(_traffic(
        rng, system, users, apps, series,
        1000 if run.smoke else PLAN_REQUESTS))
    support = f"/api/v1/report/support?system={system}"
    #: Distinct (tenant, path) the ``--warehouse`` server was sent: the
    #: L1 keys it was asked for (one snapshot stamp, so a path is a
    #: key).  The cold start's one request is among them.
    asked = {(None, support)}

    cold: list[Lap] = []
    first_report: list[float] = []

    def cold_start(server: ServeProcess) -> None:
        """Spawn -> first report 200: import, open, cold snapshot,
        render."""
        client = Client([server])
        client.get_json(0, support)
        cold.append(run.speed.lap(server.spawned, time.perf_counter(),
                                  "server"))
        first_report.append(cold[-1].raw - server.startup_s)
        client.close()

    for _ in range(0 if run.smoke else COLD_STARTS - 1):
        with ServeProcess("cold", run.tmp, "--warehouse", shard) as server:
            cold_start(server)

    with ServeProcess("serve_warehouse", run.tmp, "--warehouse", shard,
                      "--cache-size", str(capacity)) as wh_server, \
            ServeProcess("serve_federation", run.tmp, "--federation",
                         str(root), "--cache-size",
                         str(capacity)) as fed_server:
        cold_start(wh_server)
        servers = [wh_server, fed_server]
        clients = [Client(servers) for _ in range(CLIENTS)]

        def send(worker: int, request: Request) -> tuple[bool, int]:
            if request.server == 0:
                asked.add((request.tenant, request.path))
            return clients[worker].send(request)

        run_load(traffic, send, CLIENTS,
                 due=[0.0] * (64 if run.smoke else 512))  # warm-up pass
        before = [harness.scrape_metrics(clients[0], i) for i in (0, 1)]
        cpu = CpuMeter(servers)
        half = run.seconds / 2
        first_timed = time.perf_counter()
        due = poisson_due_times(rng, OPEN_LOOP_RATE, half)
        open_loop = run_load(traffic, send, CLIENTS, due=due)
        # The closed loop runs slice by slice, so that each slice has
        # its own request count and CPU reading.
        closed_slices = []
        for _ in range(max(1, round(half / SLICE_SECONDS))):
            with cpu:
                closed_slices.append(run_load(traffic, send, CLIENTS,
                                              seconds=SLICE_SECONDS))
        after = [harness.scrape_metrics(clients[0], i) for i in (0, 1)]
        closed_loop = [s for batch in closed_slices for s in batch]
        samples = open_loop + closed_loop
        lap = run.speed.lap
        result.timing(
            "cpu_ms_per_unit",
            [lap(t0, t1, "both", raw=cpu_s / len(batch))
             for (t0, t1, cpu_s), batch in zip(cpu.laps, closed_slices)],
            "user+sys CPU per closed-loop request, harness + both servers",
            scale=1e3)
        _common(result, _setup(run, (built_at, "harness"),
                               (first_timed, "server")), servers)

        # Served bytes must be what the report classes render in-process,
        # and a cluster must answer alike through either server.
        with phase("check"):
            checks = [(kind, []) for kind in
                      ("support", "admin", "manager", "funding")]
            checks += [("user", [u]) for u in query.top("user", 3)]
            checks += [("developer", [a]) for a in query.top("app", 3)]
            for kind, target in checks:
                path = f"/api/v1/report/{kind}?system={system}" + (
                    f"&target={quote(target[0])}" if target else "")
                served = clients[0].get_json(0, path)["report"]
                local = REPORT_KINDS[kind](warehouse, system).render(*target)
                result.check(served == local,
                             f"served {kind} report differs from "
                             f"in-process render")
                routed = clients[0].get_json(1, path)["report"]
                result.check(routed == served,
                             f"federation-routed {kind} report differs "
                             f"from the --warehouse one")
            group_by = (f"/api/v1/query/group_by?system={system}"
                        f"&dimension=app")
            result.check(
                clients[0].get_json(0, group_by)["groups"]
                == clients[1].get_json(1, group_by)["groups"],
                "federation-routed group_by differs from --warehouse")
        for client in clients:
            client.close()
    warehouse.close()

    failed = sum(not s.ok for s in samples)
    result.attempted += len(samples)
    result.failed += failed
    result.check(failed == 0, f"{failed} requests did not return 200")
    latencies = [s.latency_ms for s in open_loop]
    within = sum(s.ok and s.latency_ms <= LATENCY_LIMIT_MS
                 for s in open_loop)
    label, tail = hi_of_slices(
        [(s.due, s.latency_ms) for s in open_loop],
        max(1, round(half / 2)))
    # One sample of each timing per slice: the rate of a closed-loop
    # slice, the median latency of the open-loop requests due in one.
    medians = [
        lap(first_timed + i * SLICE_SECONDS,
            first_timed + (i + 1) * SLICE_SECONDS, "both",
            raw=statistics.median(values) / 1e3)
        for i, values in enumerate(by_slice(
            [(s.due, s.latency_ms) for s in open_loop], SLICE_SECONDS, half))]
    e2e = result.end_to_end
    result.timing(
        "throughput_per_s",
        [lap(t0, t1, "both", raw=max(s.done for s in batch))
         for (t0, t1, _), batch in zip(cpu.laps, closed_slices)],
        f"req_per_s: closed loop, {CLIENTS} connections back-to-back, "
        f"{len(closed_loop)} requests in {SLICE_SECONDS:g} s slices",
        per=[sum(s.ok for s in batch) for batch in closed_slices])
    result.timing(
        "answer_p50_ms", medians,
        f"lat_p50_ms: open loop at {OPEN_LOOP_RATE:.0f} req/s, from due "
        f"time, {len(latencies)} requests in {SLICE_SECONDS:g} s slices; "
        f"lat_hi_ms ({label}) {tail:.3g} ms, "
        f"{100.0 * within / len(open_loop):.2f}% within the "
        f"{LATENCY_LIMIT_MS:.0f} ms limit", scale=1e3)
    cold_s = result.timing(
        "fresh_ms", cold, "cold_start_s: repro-serve spawn -> first "
        "report/support 200", scale=1e3) / 1e3
    e2e["bytes_per_unit"] = (
        statistics.fmean(s.nbytes for s in open_loop), len(open_loop),
        "response body bytes per open-loop request")
    named = result.named
    named["req_per_s"] = (e2e["throughput_per_s"][0], "1/s",
                          len(closed_loop))
    named["lat_p50_ms"] = (e2e["answer_p50_ms"][0], "ms", len(latencies))
    named["lat_hi_ms"] = (tail, "ms", len(latencies))
    named["cold_start_s"] = (cold_s, "s", len(cold))
    layers = result.per_layer
    layers["harness.answer_hi_ms"] = tail
    layers["scheduler.jobs"] = sum(s["jobs"] for s in built.values())
    # How late the generator itself ran (a connection stood ready at
    # the due time), apart from how long requests queued for one of
    # the two connections, which their latency already counts.
    layers["harness.gen_late_p99_ms"] = percentile(
        [s.late_ms for s in open_loop if not s.queued], 0.99)
    layers["harness.conn_wait_p99_ms"] = percentile(
        [s.late_ms for s in open_loop], 0.99)
    by_kind: dict[str, list[float]] = {}
    for s in open_loop:
        by_kind.setdefault(s.kind, []).append(s.latency_ms)
    _class_latencies(result, by_kind)
    _service_counters(result, before, after)
    # Does the traffic overflow the L1, as this workload is for?  Every
    # key costs one miss when first asked for; a miss beyond those (and
    # beyond the followers single-flight coalesced) is a key the LRU
    # had evicted.
    per_tenant = [sum(tenant == t for tenant, _ in asked) for t in TENANTS]
    remisses = (after[0].get("repro_service_cache_miss", 0.0) - len(asked)
                - after[0].get("repro_service_coalesced", 0.0))
    layers["service.l1_keys_per_tenant"] = min(per_tenant)
    layers["service.l1_remisses"] = remisses
    result.check(
        min(per_tenant) > capacity and remisses > 0,
        f"traffic did not overflow the {capacity}-entry L1: distinct keys "
        f"per tenant {per_tenant}, {remisses:.0f} misses on evicted keys")
    layers["service.bytes_out"] = sum(s.nbytes for s in samples)
    layers["service.startup_s"] = wh_server.startup_s
    layers["service.first_report_s"] = statistics.median(first_report)
    if run.trace:
        _analytics_probe(result, shard, system)
        _federation_probe(result, str(root))


#: What ``--seed`` draws in each workload (printed with every run).
#: The facilities are a pinned dataset (see :data:`DATASET_SEED`), so a
#: pipeline over them has nothing left to draw and runs with different
#: seeds are repeats of one job.
_PINNED = "nothing: pinned dataset, deterministic pipeline"
SEED_DRAWS = {
    "etl_day": _PINNED,
    "reingest": _PINNED,
    "live_stream": _PINNED,
    "dashboard": "the request order, Zipf targets, tenants and Poisson "
                 "arrival times",
}

WORKLOADS = {
    "etl_day": etl_day,
    "reingest": reingest,
    "live_stream": live_stream,
    "dashboard": dashboard,
}
