"""Measuring tools shared by the four workloads.

Everything here measures from *outside* the program: percentiles over
samples the workloads collect, an open/closed-loop load generator, the
span tree the program's own tracer builds (plus harness spans and
wrappers around the layers' public callables), `repro-serve` child
processes, and per-process CPU/RSS read from the OS.  Nothing under
``src/`` is changed to be measured.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import http.client
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
SRC = REPO / "src"
# The harness drives the tree it sits in, never an installed copy.
sys.path.insert(0, str(SRC))

from repro.telemetry.metrics import get_registry  # noqa: E402
from repro.telemetry.trace import Span, Tracer, span, use_tracer  # noqa: E402

# -- percentiles ---------------------------------------------------------------

#: Candidate tail percentiles, highest first.
_HI_QUANTILES = ((0.999, "p99.9"), (0.99, "p99"), (0.90, "p90"),
                 (0.75, "p75"))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank *q*-quantile (``0 < q <= 1``) of *samples*."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def by_slice(samples: list[tuple[float, float]], width: float,
             seconds: float) -> list[list[float]]:
    """The values of ``(time, value)`` *samples* of a phase *seconds*
    long, grouped into its whole *width*-second slices (at least one);
    what falls after the last whole slice is left out, so that slices
    compare."""
    slices: list[list[float]] = [
        [] for _ in range(max(1, int(seconds / width + 1e-9)))]
    for t, v in samples:
        if int(t / width) < len(slices):
            slices[int(t / width)].append(v)
    return slices


def _hi_quantile(n: int) -> tuple[float, str] | None:
    """The highest candidate with at least ten of *n* samples beyond
    it; ``None`` when even p75 has fewer (n < 40)."""
    for q, label in _HI_QUANTILES:
        if n - max(1, math.ceil(q * n)) >= 10:
            return q, label
    return None


def hi(samples: list[float]) -> tuple[str, float]:
    """The highest of p75/p90/p99/p99.9 that has at least ten samples
    beyond it, as ``(label, value)``.

    A tail percentile resting on fewer than ten samples is one or two
    outliers, not a distribution.  With too few samples for even p75
    the slowest sample is reported, labelled ``max``.
    """
    choice = _hi_quantile(len(samples))
    if choice is None:
        return "max", max(samples)
    return choice[1], percentile(samples, choice[0])


def hi_of_slices(samples: list[tuple[float, float]], n_slices: int,
                 ) -> tuple[str, float]:
    """Median over *n_slices* equal time slices of each slice's tail
    percentile — *samples* are ``(time, value)`` pairs; the percentile
    is the one :func:`hi` allows the smallest slice.

    One tail percentile over a whole phase is a single order statistic
    and jumps between runs; the median of per-slice tails repeats.
    """
    t_lo = min(t for t, _ in samples)
    width = (max(t for t, _ in samples) - t_lo) / n_slices or 1.0
    slices: list[list[float]] = [[] for _ in range(n_slices)]
    for t, v in samples:
        slices[min(int((t - t_lo) / width), n_slices - 1)].append(v)
    slices = [s for s in slices if s]
    choice = _hi_quantile(min(len(s) for s in slices))
    if choice is None:
        return f"median of {len(slices)} slice maxima", \
            statistics.median(max(s) for s in slices)
    return (f"median of {len(slices)} slices' {choice[1]}",
            statistics.median(percentile(s, choice[0]) for s in slices))


# -- load generation -----------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One request of a traffic mix: *kind* is its class for the
    per-class latency metrics, *server* indexes the client's servers."""

    kind: str
    server: int
    method: str
    path: str
    tenant: str | None = None


@dataclass(frozen=True)
class Sample:
    """One completed request, on the generator's clock (seconds)."""

    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    nbytes: int
    #: No connection was free when it fell due, so it waited for one.
    queued: bool = False

    @property
    def latency_ms(self) -> float:
        """Latency from when the request was *due* — in an open loop a
        stall therefore costs every request queued behind it."""
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        """How long after its due time it was sent: the generator's own
        timing error when a connection stood ready, otherwise mostly
        the wait for a connection to come free (see ``queued``)."""
        return (self.sent - self.due) * 1e3


def poisson_due_times(rng, rate: float, seconds: float) -> list[float]:
    """Seeded Poisson arrivals at *rate* per second over *seconds*,
    as offsets from the phase start."""
    due, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return due
        due.append(t)


def run_load(requests, send, n_workers: int, *,
             due: list[float] | None = None,
             seconds: float | None = None,
             clock=time.perf_counter, sleep=time.sleep) -> list[Sample]:
    """Drive ``send(worker, request) -> (ok, nbytes)`` from *n_workers*
    threads and return every :class:`Sample`.

    *requests* is an iterator the workers draw from — a list iterator
    or ``itertools.cycle``, whose ``next()`` is atomic under the GIL —
    so consecutive phases handed the same iterator continue the
    traffic instead of replaying its start.

    Open loop (*due* given): the next request is sent at ``start +
    due[i]`` by whichever worker is free, whatever the earlier replies
    are doing; its latency counts from the due time.  Closed loop
    (*seconds* given): each worker sends its next request the moment
    the previous reply arrives, until the phase is *seconds* old.
    """
    samples: list[Sample] = []
    schedule = zip(due, requests) if due is not None else None
    start = clock()

    def worker(w: int) -> None:
        while True:
            queued = False
            if schedule is not None:
                item = next(schedule, None)
                if item is None:
                    return
                t_due = start + item[0]
                request = item[1]
                wait = t_due - clock()
                queued = wait < 0
                if not queued:
                    sleep(wait)
            else:
                t_due = clock()
                if t_due - start >= seconds:
                    return
                request = next(requests)
            sent = clock()
            ok, nbytes = send(w, request)
            samples.append(Sample(request.kind, t_due - start,
                                  sent - start, clock() - start, ok,
                                  nbytes, queued))

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


class Client:
    """Keep-alive connections of one load-generator worker, one per
    server it talks to."""

    def __init__(self, servers: list["ServeProcess"]):
        self._conns = [http.client.HTTPConnection(s.host, s.port,
                                                  timeout=60)
                       for s in servers]

    def request(self, request: Request) -> tuple[int, bytes]:
        """``(status, body)``; the body is read to its last byte."""
        conn = self._conns[request.server]
        headers = {"X-Tenant": request.tenant} if request.tenant else {}
        conn.request(request.method, request.path, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()

    def get_json(self, server: int, path: str,
                 method: str = "GET") -> dict:
        """A 200 JSON body, or :class:`RuntimeError`."""
        status, body = self.request(Request("", server, method, path))
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: "
                               f"{body[:200]!r}")
        return json.loads(body)

    def send(self, request: Request) -> tuple[bool, int]:
        """:func:`run_load`'s ``send``: ok means a 200 arrived."""
        try:
            status, body = self.request(request)
        except (OSError, http.client.HTTPException):
            return False, 0
        return status == 200, len(body)

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


# -- child processes -----------------------------------------------------------

#: The CPU a measuring run confines itself to and the one it confines
#: its ``repro-serve`` children to: the first and the last this process
#: may use (the same CPU when there is only one).
HARNESS_CPU, SERVER_CPU = (f(os.sched_getaffinity(0)) for f in (min, max))
#: Whether :func:`pin_cpus` was called.
PINNED = False


def pin_cpus() -> None:
    """Confine this process to :data:`HARNESS_CPU` and every
    ``repro-serve`` child started afterwards to :data:`SERVER_CPU`.

    The load generator then never competes with the system it loads,
    and nothing migrates.  Left to the scheduler on this two-CPU
    sandbox, identical ``dashboard`` runs ranged from 1.28 to 1.74 ms
    in median latency (1.29 to 1.45 ms pinned) and a request cost up
    to 20 % more CPU time in one run than in the next."""
    global PINNED
    PINNED = True
    os.sched_setaffinity(0, {HARNESS_CPU})


# -- the machine's speed -------------------------------------------------------

#: CPU milliseconds :func:`_reference_kernel` takes on the machine the
#: timings are quoted for — about what it takes on the sandbox this was
#: written on when the host is quiet.
REFERENCE_MS = 0.5
_KERNEL_STEPS = 10_000


def _reference_kernel() -> int:
    total = 0
    for i in range(_KERNEL_STEPS):
        total += i * i % 7
    return total


def _sample_speed(cpu: int, period: float, parent: int, stamps, costs,
                  count) -> None:
    """Body of a :class:`Speedometer` process: every *period* seconds,
    the CPU time the reference kernel took on *cpu* just now."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.sched_setaffinity(0, {cpu})
    while os.getppid() == parent and count.value < len(stamps):
        _reference_kernel()  # wakes the CPU and fills its caches
        t0 = time.thread_time()
        _reference_kernel()
        costs[count.value] = time.thread_time() - t0
        stamps[count.value] = time.perf_counter()
        count.value += 1
        time.sleep(period)


@dataclass(frozen=True)
class Lap:
    """A measured time — wall or CPU seconds — and the machine's speed
    while it was measured."""

    raw: float
    #: reference speed / speed of the machine during the measurement
    factor: float

    @property
    def seconds(self) -> float:
        """What the time would have been at the reference speed."""
        return self.raw * self.factor


class Speedometer:
    """How fast the machine is, moment by moment, on the CPU the
    harness runs on and on the one its ``repro-serve`` children run on.

    The sandbox is a few virtual CPUs of a shared host.  What the
    host's other tenants do changes how much work a CPU gets through
    per second — by a quarter and more, for milliseconds or for
    minutes, on each CPU separately, in CPU time as much as in wall
    time — and no repeat count or percentile takes that out of a
    30-second run.  So it is measured.  One small process per CPU runs
    the same half-millisecond kernel 25 times a second (twice each
    time, the first pass to wake the CPU) and notes the *CPU time of
    its own thread* the second pass took: being descheduled for the
    benchmark does not count, being slowed by the host does.  A
    measurement over ``t0..t1`` is then quoted at the reference speed:
    multiplied by :data:`REFERENCE_MS` over the mean kernel time in
    that interval (on 107 half-second pipeline runs in a busy spell
    this took their inter-quartile spread from 18.5 % to 6.3 %, and
    that of medians of eight from 12.3 % to 2.6 %; a kernel on the
    *other* CPU did not track them at all, which is why there is one
    per CPU).  The kernel is part of the benchmark, not of the program,
    so a change to the program moves every quoted number as it moves
    the measured one.
    """

    #: Seconds between samples, and seconds a short interval is widened
    #: by on both sides so that it holds a handful of them.
    PERIOD = 0.04
    PAD = 0.1
    CAPACITY = 16384  # > 5 minutes

    def __init__(self) -> None:
        fork = multiprocessing.get_context("fork")
        self._by_cpu = {}
        for cpu in {HARNESS_CPU, SERVER_CPU}:
            shared = (fork.RawArray("d", self.CAPACITY),
                      fork.RawArray("d", self.CAPACITY),
                      fork.RawValue("i", 0))
            proc = fork.Process(
                target=_sample_speed, daemon=True,
                args=(cpu, self.PERIOD, os.getpid(), *shared))
            proc.start()
            self._by_cpu[cpu] = (proc, *shared)
        self._lanes = {"harness": [HARNESS_CPU], "server": [SERVER_CPU],
                       "both": [HARNESS_CPU, SERVER_CPU]}

    def factor(self, t0: float, t1: float, lane: str = "harness") -> float:
        """Reference speed over the machine's speed between the
        ``perf_counter()`` times *t0* and *t1* on *lane* — ``harness``,
        ``server``, or ``both`` (the mean of the two); 1 if no sample
        fell near the interval."""
        costs_ms = []
        for cpu in self._lanes[lane]:
            _, stamps, costs, count = self._by_cpu[cpu]
            lo = bisect.bisect_left(stamps, t0 - self.PAD, 0, count.value)
            hi = bisect.bisect_right(stamps, t1 + self.PAD, 0, count.value)
            if hi > lo:
                costs_ms.append(statistics.fmean(costs[lo:hi]) * 1e3)
        return REFERENCE_MS / statistics.fmean(costs_ms) if costs_ms else 1.0

    def lap(self, t0: float, t1: float, lane: str = "harness",
            raw: float | None = None) -> Lap:
        """The wall time ``t1 - t0`` — or *raw*, a CPU time measured
        over that interval — with the machine's speed during it."""
        return Lap(t1 - t0 if raw is None else raw,
                   self.factor(t0, t1, lane))

    def stop(self) -> None:
        for proc, *_ in self._by_cpu.values():
            proc.terminate()
            proc.join()

    def __enter__(self) -> "Speedometer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


_SERVING = re.compile(rb"on http://([^:\s]+):(\d+)")
_TICK = os.sysconf("SC_CLK_TCK")


class ServeProcess:
    """One real ``repro-serve`` child on a free port.

    ``startup_s`` is spawn -> the "serving ... on http://host:port"
    line.  Use as a context manager: the child is terminated (then
    killed) and reaped however the block exits.
    """

    def __init__(self, name: str, log_dir: Path, *args: str):
        self.name = name
        self._final: tuple[float, float] | None = None
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # stderr goes to a file: nobody drains a pipe once the address
        # line is read, and a full pipe would block the server.
        self._log = tempfile.NamedTemporaryFile(
            prefix=f"{name}-", suffix=".log", dir=log_dir, delete=False)
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.serve", *args,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=str(REPO))
        if PINNED:
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        try:
            self.host, self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - self.spawned

    def _await_port(self, timeout: float) -> tuple[str, int]:
        seen = b""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if ready:
                chunk = os.read(fd, 4096)
                seen += chunk
                found = _SERVING.search(seen)
                if found:
                    return found.group(1).decode(), int(found.group(2))
                if not chunk:
                    break
            elif self.proc.poll() is not None:
                break
        log = Path(self._log.name).read_text(errors="replace")[-500:]
        raise RuntimeError(
            f"repro-serve ({self.name}) printed no address within "
            f"{timeout:.0f}s (exit status {self.proc.poll()}): {log}")

    def usage(self) -> tuple[float, float]:
        """``(cpu seconds, peak RSS MB)`` of the child so far, from
        ``/proc`` (the last reading is kept once it has exited)."""
        if self._final is not None:
            return self._final
        pid = self.proc.pid
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        cpu = (int(fields[11]) + int(fields[12])) / _TICK
        status = Path(f"/proc/{pid}/status").read_text()
        hwm = re.search(r"VmHWM:\s+(\d+) kB", status)
        return cpu, int(hwm.group(1)) / 1024 if hwm else 0.0

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if needed; always reaps the child."""
        if self.proc.poll() is None:
            try:
                self._final = self.usage()
            except (OSError, ValueError):
                pass  # gone between poll() and the /proc read
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def scrape_metrics(client: Client, server: int) -> dict[str, float]:
    """Un-labelled samples of a server's Prometheus ``/metrics``."""
    status, body = client.request(Request("", server, "GET", "/metrics"))
    if status != 200:
        raise RuntimeError(f"/metrics -> {status}")
    out = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


def harness_usage() -> tuple[float, float]:
    """``(cpu seconds, peak RSS MB)`` of this process."""
    return (time.process_time(),
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


class CpuMeter:
    """user+sys CPU seconds of the harness and its live children: one
    entry in ``laps`` per ``with`` block entered, as ``(entered, left,
    cpu seconds)`` on the ``perf_counter()`` clock."""

    def __init__(self, children: list[ServeProcess] = ()):
        self.children = list(children)
        self.laps: list[tuple[float, float, float]] = []

    def _now(self) -> float:
        return harness_usage()[0] + sum(c.usage()[0]
                                        for c in self.children)

    def __enter__(self) -> "CpuMeter":
        self._entered = (time.perf_counter(), self._now())
        return self

    def __exit__(self, *exc) -> None:
        t0, cpu0 = self._entered
        self.laps.append((t0, time.perf_counter(), self._now() - cpu0))


# -- scratch space and teardown --------------------------------------------------

@contextmanager
def scratch_dir():
    """A temp tree under ``out/`` (inside the checkout, ignored by
    git), removed however the block exits."""
    OUT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def terminate_as_exit() -> None:
    """Turn the first SIGTERM or SIGINT into ``SystemExit`` so
    ``finally``/``with`` blocks tear children and temp trees down, and
    ignore any further one so that teardown cannot be cut short."""
    def stop(signum, frame):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under *root*."""
    return sum(p.stat().st_size for p in Path(root).rglob("*")
               if p.is_file())


# -- correctness helpers ---------------------------------------------------------

_TABLES = (
    ("jobs", "system, jobid, user, account, science_field, app, queue, "
             "exit_status, submit_time, start_time, end_time, nodes, "
             "cores, node_hours"),
    ("job_metrics", "system, jobid, metric, value"),
    ("system_series", "system, metric, t, value"),
)


def table_digest(warehouse) -> str:
    """sha256 over every analytics-visible row (ledger/meta excluded),
    ordered — equal digests mean row-identical warehouses."""
    warehouse.commit()
    digest = hashlib.sha256()
    for table, cols in _TABLES:
        for row in warehouse.connection.execute(
                f"SELECT {cols} FROM {table} ORDER BY {cols}"):
            digest.update(repr(row).encode())
    return digest.hexdigest()


# -- tracing -----------------------------------------------------------------------

def _wrap_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of each layer's public
    callables the traced run wraps.  ``encode_host_blocks`` is patched
    where the synthesis engine looks it up."""
    from repro.ingest.warehouse import Warehouse
    from repro.live.runner import LiveReplay
    from repro.tacc_stats import synth
    from repro.tacc_stats.archive import HostArchive
    return [
        *((synth.NodeSynth, m, f"synth.{m}")
          for m in ("begin_job", "end_job", "sample", "flush")),
        *((HostArchive, m, f"archive.{m}")
          for m in ("writer", "flush_before", "close", "manifest")),
        (synth, "encode_host_blocks", "columnar.encode_host_blocks"),
        (Warehouse, "commit", "warehouse.commit"),
        (Warehouse, "record_live_counters",
         "warehouse.record_live_counters"),
        (LiveReplay, "advance", "live.advance"),
    ]


def _spanned(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def tracing():
    """Install a fresh tracer and the layer wrappers; yields the
    tracer.  The program's own spans nest under whichever harness span
    caused them; every patch is undone on exit."""
    with ExitStack() as stack:
        for owner, attr, name in _wrap_targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, _spanned(original, name))
            stack.callback(setattr, owner, attr, original)
        yield stack.enter_context(use_tracer(Tracer()))


@contextmanager
def entry_times(owner, attr: str):
    """Yields a list that receives ``perf_counter()`` each time
    ``owner.attr`` is entered; the attribute is restored on exit.  The
    one boundary inside a public call (archive written | ingest begun)
    an end-to-end number needs, in untraced runs too."""
    times: list[float] = []
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        times.append(time.perf_counter())
        return original(*args, **kwargs)
    setattr(owner, attr, wrapper)
    try:
        yield times
    finally:
        setattr(owner, attr, original)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one wrapped call, for the overhead estimate."""
    def noop() -> None:
        pass
    wrapped = _spanned(noop, "harness.calibrate")
    with use_tracer(Tracer()):
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(traced - (time.perf_counter() - t0), 0.0) / calls


@contextmanager
def phase(name: str, **attrs):
    """A harness root span: ``setup``, ``repeat`` (timed work, one per
    repeat), or anything else (``warmup``, ``check``, ``probe``) for
    work that is neither.  On close it carries the program's counter
    deltas, so counts are taken at the same boundaries as times."""
    before = dict(get_registry().snapshot().counters)
    with span(f"bench.{name}", **attrs) as s:
        try:
            yield s
        finally:
            after = get_registry().snapshot().counters
            s.attrs["counters"] = {
                k: v - before.get(k, 0) for k, v in after.items()
                if v != before.get(k, 0)}


def self_time(s: Span) -> float:
    """A span's duration minus the part its children cover."""
    return max(s.duration - sum(c.duration for c in s.children), 0.0)


#: program / wrapper / harness span name -> per-layer metric its self
#: time belongs to.  ``ingest*`` spans are keyed per sub-run instead
#: (see :class:`TraceSummary`); anything unlisted is unattributed.
SPAN_LAYER = {
    "facility.simulate": "facility.simulate_s",
    "call.run_with_files": "facility.sidelogs_s",
    "facility.replay": "facility.replay_s",
    "live.advance": "facility.replay_s",
    "call.federation_run": "facility.run_s",
    "facility.summarize": "facility.run_s",
    "facility.series": "facility.run_s",
    "synth.begin_job": "tacc_stats.synth.busy_s",
    "synth.end_job": "tacc_stats.synth.busy_s",
    "synth.sample": "tacc_stats.synth.busy_s",
    "synth.flush": "tacc_stats.synth.busy_s",
    "archive.writer": "tacc_stats.archive.write_s",
    "archive.flush_before": "tacc_stats.archive.write_s",
    "archive.close": "tacc_stats.archive.write_s",
    "columnar.encode_host_blocks": "tacc_stats.archive.encode_v2_s",
    "archive.manifest": "tacc_stats.archive.manifest_s",
    "archive.convert": "tacc_stats.convert.convert_s",
    "warehouse.commit": "warehouse.commit_s",
    "warehouse.record_live_counters": "warehouse.commit_s",
    "analytics.snapshot_refresh": "xdmod.snapshot.refresh_s",
    "analytics.frame_load": "xdmod.snapshot.frame_load_s",
    "report.render": "xdmod.reports.render_s",
    "live.batch": "live.publish_counters_s",
}

#: Sub-runs of the ingest layer whose spans are kept per stage, and
#: the two that no end-to-end metric times (the ingest
#: ``run_with_files`` does while ``reingest``'s set-up builds the
#: archive; the earlier days loaded before a timed append), kept whole.
INGEST_KINDS = ("text", "v2", "append", "live")
INGEST_UNTIMED = ("setup", "through")
#: Self time of spans that belong to no layer: the harness's own code.
UNATTRIBUTED = "harness.unattributed_s"


def iter_spans(roots: list[Span]):
    """``(span, parent)`` for every span, depth first."""
    stack = [(r, None) for r in reversed(roots)]
    while stack:
        s, parent = stack.pop()
        yield s, parent
        stack.extend((c, s) for c in reversed(s.children))


class TraceSummary:
    """One traced run's span tree folded into per-layer numbers.

    ``bench.setup`` roots and ``bench.repeat`` roots are each averaged
    (one set-up's and one repeat's worth), so a run that fits more
    repeats into its time does not report more layer time; other roots
    (warm-up, checks, probes) are left out.  Every counted span's self
    time lands in exactly one metric of ``self_s``, so those sum to
    ``wall_s``.  ``calls`` (by span name) and ``counters`` (the
    program's own, from the phase roots) use the same accounting;
    ``inclusive_s`` is whole-span time by ``parent>name`` and ``name``.
    """

    def __init__(self, roots: list[Span]):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.wall_s = 0.0
        self.n_spans = sum(1 for _ in iter_spans(roots))
        counted = {name: sum(r.name == name for r in roots)
                   for name in ("bench.setup", "bench.repeat")}
        for root in roots:
            if root.name not in counted:
                continue
            weight = 1.0 / counted[root.name]
            self.wall_s += root.duration * weight
            for k, v in root.attrs.get("counters", {}).items():
                self.counters[k] = self.counters.get(k, 0.0) + v * weight
            self._visit(root, None, None, weight)

    def _visit(self, s: Span, parent: Span | None, kind: str | None,
               weight: float) -> None:
        kind = s.attrs.get("ingest_kind", kind)
        if s.name == "ingest" or s.name.startswith("ingest."):
            # The root ``ingest`` span's self time is ledger and
            # provenance recording, which belongs with the load.
            stage = s.name.partition(".")[2] or "load"
            if kind in INGEST_KINDS:
                metric = f"ingest.{kind}.{stage}_s"
            elif kind in INGEST_UNTIMED:
                metric = f"ingest.{kind}_s"
            else:
                metric = UNATTRIBUTED
        else:
            metric = SPAN_LAYER.get(s.name, UNATTRIBUTED)
        for table, key, value in (
                (self.self_s, metric, self_time(s)),
                (self.calls, s.name, 1.0),
                (self.inclusive_s, s.name, s.duration),
                (self.inclusive_s,
                 f"{parent.name if parent else ''}>{s.name}", s.duration)):
            table[key] = table.get(key, 0.0) + value * weight
        for child in s.children:
            self._visit(child, s, kind, weight)


def write_trace(path: Path, roots: list[Span], epoch: float) -> None:
    """Flatten the span tree to ``{id, name, start, end, parent, run}``
    records (seconds since *epoch*; ``run`` is the root phase's
    ordinal, shared by every span it caused).  A run of childless
    sibling spans of one name becomes a single record with their
    ``count`` and summed ``busy`` seconds, which keeps the per-sample
    wrapper spans from swamping the file."""
    records: list[dict] = []

    def emit(s: Span, parent: int | None, run: int) -> None:
        me = len(records)
        record = {"id": me, "name": s.name,
                  "start": round(s.start - epoch, 6),
                  "end": round(s.start - epoch + s.duration, 6),
                  "parent": parent, "run": run}
        attrs = {k: v for k, v in s.attrs.items() if k != "counters"}
        if attrs:
            record["attrs"] = attrs
        records.append(record)
        merged = None
        for child in s.children:
            if child.children or child.attrs:
                merged = None
                emit(child, me, run)
            elif merged is not None and merged["name"] == child.name:
                merged["count"] += 1
                merged["busy"] = round(merged["busy"] + child.duration, 6)
                merged["end"] = round(
                    child.start - epoch + child.duration, 6)
            else:
                emit(child, me, run)
                merged = records[-1]
                merged.update(count=1, busy=round(child.duration, 6))

    for run, root in enumerate(roots):
        emit(root, None, run)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"spans": records}) + "\n")


# -- results -----------------------------------------------------------------------

@dataclass
class Result:
    """What one run of one workload measured."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end metric -> (value, sample count, what it is on this
    #: workload); units live in ``BENCHMARK.json``.
    end_to_end: dict[str, tuple[float, int, str]] = field(
        default_factory=dict)
    #: the issue's own name for a number, where it has one ->
    #: (value, unit, sample count); the role-named metrics above are
    #: what the driver reads, these are what a reader looks for.
    named: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: per-layer metric -> value; whatever a workload does not exercise
    #: is reported as 0.
    per_layer: dict[str, float] = field(default_factory=dict)
    #: end-to-end metric -> the samples its value was chosen from, at
    #: the reference speed (see :class:`Speedometer`) and as measured.
    samples: dict[str, list[float]] = field(default_factory=dict)
    measured: dict[str, list[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def timing(self, name: str, laps: list[Lap], what: str,
               scale: float = 1.0, per: list[float] | None = None,
               middle=statistics.median) -> float:
        """Fill end-to-end metric *name* with the median (or another
        *middle*) of *laps* at the reference speed, times *scale*; keep
        the samples, as measured too; return the value.  With *per* (an
        amount of work per lap) the samples are rates,
        ``per[i] / laps[i]``."""
        def samples(seconds: list[float]) -> list[float]:
            if per is None:
                return [v * scale for v in seconds]
            return [n / v * scale for n, v in zip(per, seconds)]
        self.samples[name] = samples([lap.seconds for lap in laps])
        self.measured[name] = samples([lap.raw for lap in laps])
        value = middle(self.samples[name])
        self.end_to_end[name] = (
            value, len(laps),
            f"{what}; as measured {middle(self.measured[name]):.4g}")
        return value

    def check(self, ok: bool, problem: str) -> None:
        """Record *problem* unless *ok*."""
        if not ok:
            self.problems.append(problem)


def fingerprint() -> dict:
    """Where and on what a result was measured."""
    import numpy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }
