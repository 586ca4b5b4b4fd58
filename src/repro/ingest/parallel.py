"""Parallel host-scan fan-out for the ingest engine.

Decoding host files dominates ingest cost, and host files are
independent, so the natural unit of parallelism is one *host*: a worker
process reads and scans the host's archived files itself (only the
archive root and hostname cross the process boundary going in) and
ships back a :class:`HostScan` — the host's per-job matcher views plus
per-job metric partials.  Scans are a few KB regardless of file size,
so the decoded column arrays never get pickled.

Determinism: hosts are scanned in sorted hostname order; the parallel
path buffers its per-host results and replays them in that same order,
so the coordinator observes the exact sequence the serial path produces
— the warehouse contents are byte-identical for any worker count.

Fault tolerance: the fan-out survives the failure modes a facility-scale
ingest actually hits.  Malformed host data is handled by the
:class:`~repro.errors.ErrorPolicy` threaded into each worker (see
:meth:`HostArchive.read_host_days`), while *transient* worker death
(an OOM-killed child takes the whole pool down as
``BrokenProcessPool``) and per-round timeouts are retried with
exponential backoff.  Because a broken pool cannot name the culprit,
failed hosts are charged an attempt collectively; a host that exhausts
its retries gets one final *isolation probe* in a fresh single-worker
pool, so an innocent host that kept sharing rounds with a crasher is
never falsely dropped.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import (
    ErrorPolicy,
    HostScanError,
    IngestHealth,
    QuarantinedRecord,
)
from repro.ingest.columnar_scan import HostScan, scan_host
from repro.ingest.matcher import host_job_views
from repro.ingest.summarize import host_job_partials
from repro.tacc_stats.archive import HostArchive
from repro.tacc_stats.types import HostData
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    use_registry,
)
from repro.telemetry.trace import Tracer, use_tracer

__all__ = ["HostScan", "HostScanResult", "effective_workers",
           "scan_archive", "scan_host_data"]

#: Longest backoff between retry rounds, whatever the exponent says.
_MAX_BACKOFF = 2.0

_log = get_logger("ingest.parallel")


@dataclass(frozen=True)
class HostScanResult:
    """One worker's structured outcome for one host.

    ``scan`` is ``None`` when the host was dropped (quarantine policy or
    unsalvageable data); ``records`` carries the quarantine provenance
    and ``status`` is ``"ok"`` / ``"degraded"`` / ``"dropped"`` as in
    :meth:`HostArchive.read_host_days`.  ``metrics`` is
    the worker-local telemetry snapshot for this host's scan (parse
    counters, scan timing); the coordinator folds it into the ambient
    registry so fan-out runs report the same totals as serial ones.
    """

    hostname: str
    scan: HostScan | None
    records: tuple[QuarantinedRecord, ...]
    status: str
    metrics: MetricsSnapshot | None = None


def scan_host_data(host: HostData) -> HostScan:
    """The dict-reducer scan of one :class:`HostData` — the reference
    the tests compare :func:`~repro.ingest.columnar_scan.scan_host`
    against; no ingest path calls it."""
    return HostScan(
        hostname=host.hostname,
        views=tuple(host_job_views(host).values()),
        partials=host_job_partials(host),
    )


def _scan_host_checked(archive: HostArchive, hostname: str,
                       allow_truncated: bool, policy: str,
                       paths: tuple[str, ...] | None = None,
                       jobs: frozenset[str] | None = None,
                       seeds: dict | None = None) -> HostScanResult:
    """Read + scan one host inside a private metrics registry.

    Both the serial in-process loop and the pool worker route through
    this helper, so each host's parse counters and scan timing
    accumulate in a fresh local registry whose snapshot rides the result
    back to the coordinator.  That shared construction is what makes serial and
    parallel runs merge to identical metric totals.
    """
    local = MetricsRegistry()
    # Fresh tracer too: pool workers are reused across hosts, so spans
    # opened here must not pile up in a long-lived ambient tree — and
    # keeping the serial path identical means serial and parallel runs
    # produce the same trace shape (per-host timing travels as metrics).
    with use_registry(local), use_tracer(Tracer()):
        t0 = time.perf_counter()
        scan, records, status = scan_host(
            archive, hostname, allow_truncated=allow_truncated,
            policy=policy, paths=paths, jobs=jobs, seeds=seeds)
        elapsed = time.perf_counter() - t0
        local.histogram("ingest.host_scan.seconds").observe(elapsed)
        local.gauge(f"ingest.host_scan.{hostname}.seconds").set(elapsed)
    return HostScanResult(hostname=hostname, scan=scan,
                          records=records, status=status,
                          metrics=local.snapshot())


def _scan_one(root: str, hostname: str, allow_truncated: bool,
              policy: str = ErrorPolicy.STRICT,
              paths: tuple[str, ...] | None = None,
              jobs: frozenset[str] | None = None,
              seeds: dict | None = None) -> HostScanResult:
    """Worker entry point: read, parse and scan one host by name.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method as well as ``fork``.  Under the ``strict`` policy a malformed
    host raises (the error crosses back through the future); otherwise
    malformed data is quarantined per the policy and reported in the
    result.  *paths* restricts the read to those files, *jobs* the
    metric partials to those job ids, and *seeds* are the host's
    persisted scan states (see :func:`scan_host`).
    """
    return _scan_host_checked(HostArchive(root), hostname, allow_truncated,
                              policy, paths=paths, jobs=jobs, seeds=seeds)


def effective_workers(workers: int, n_hosts: int) -> int:
    """The pool size actually worth running for a CPU-bound scan.

    The scan is parse-dominated, so processes beyond the visible CPU
    count only add scheduling contention — the requested *workers* is
    clamped to ``os.cpu_count()`` and to the host count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, n_hosts, os.cpu_count() or 1))


def _record_outcome(health: IngestHealth | None, result: HostScanResult
                    ) -> None:
    """Fold one host's outcome into health and telemetry accounting.

    Runs on the coordinator in sorted-hostname order for serial and
    parallel paths alike, so even last-write-wins gauges merge
    deterministically.
    """
    registry = get_registry()
    if result.metrics is not None:
        registry.merge_snapshot(result.metrics)
    registry.counter(f"ingest.hosts_{result.status}").inc()
    if result.records:
        registry.counter("ingest.records_quarantined").inc(
            len(result.records))
    if result.status == "dropped":
        _log.warning("host_dropped", host=result.hostname,
                     records=len(result.records))
    if health is None:
        return
    if result.status == "ok":
        health.record_ok(result.hostname)
    elif result.status == "degraded":
        health.record_degraded(result.hostname, result.records)
    else:
        health.record_dropped(result.hostname, result.records)


def _run_round(scan_fn: Callable, root: str, hosts: list[str], workers: int,
               allow_truncated: bool, policy: str, timeout: float | None,
               results: dict[str, HostScanResult],
               per_host: dict[str, tuple]) -> dict[str, str]:
    """Submit one retry round to a fresh pool; return transient failures.

    Successful scans land in *results*.  Hosts whose future raised
    :class:`BrokenExecutor` (worker death poisons every unfinished
    future, so the culprit is unknowable) or missed the round *timeout*
    come back as ``{hostname: reason}``.  A deterministic exception from
    the scan itself (e.g. :class:`ParseError` under ``strict``) is
    re-raised — retrying cannot fix bad bytes.
    """
    failures: dict[str, str] = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(hosts))) as ex:
        futures = {
            ex.submit(scan_fn, root, h, allow_truncated, policy,
                      *per_host[h]): h
            for h in hosts
        }
        _done, not_done = wait(futures, timeout=timeout)
        if not_done:
            # Deadline missed (or the pool broke): kill the stragglers
            # so shutdown cannot hang on a wedged worker.
            for fut in not_done:
                fut.cancel()
            for proc in list(getattr(ex, "_processes", {}).values()):
                proc.terminate()
        for fut, hostname in futures.items():
            if fut in not_done:
                failures[hostname] = (
                    f"timeout: scan exceeded {timeout}s round deadline"
                )
                continue
            try:
                # A deterministic scan exception (e.g. ParseError under
                # strict) propagates from .result() — not retryable.
                results[hostname] = fut.result()
            except BrokenExecutor as e:
                failures[hostname] = (
                    f"worker died: {e or type(e).__name__}"
                )
    return failures


def _scan_parallel(scan_fn: Callable, root: str, hostnames: list[str],
                   workers: int, allow_truncated: bool, policy: str,
                   health: IngestHealth | None, max_retries: int,
                   retry_backoff: float, timeout: float | None,
                   per_host: dict[str, tuple],
                   ) -> dict[str, HostScanResult]:
    """The retrying fan-out: scan every host, tolerating worker death.

    Runs rounds until every host has either a result or a definitive
    verdict.  A transient failure charges one attempt to every host that
    failed in the round (the pool cannot attribute the crash); a host
    over *max_retries* attempts gets a last isolation probe before the
    verdict, so crashers cannot take innocent hosts down with them.
    """
    results: dict[str, HostScanResult] = {}
    attempts = dict.fromkeys(hostnames, 0)
    pending = list(hostnames)
    round_no = 0
    while pending:
        failures = _run_round(scan_fn, root, pending, workers,
                              allow_truncated, policy, timeout, results,
                              per_host)
        if not failures:
            break
        retry: list[str] = []
        for hostname, reason in failures.items():
            attempts[hostname] += 1
            get_registry().counter("ingest.retries").inc()
            if health is not None:
                health.record_retry(hostname)
            _log.warning("host_retry", host=hostname,
                         attempt=attempts[hostname], reason=reason)
            if attempts[hostname] <= max_retries:
                retry.append(hostname)
                continue
            # Retries exhausted — but this host may only ever have
            # failed in company.  Give it one isolated round for a
            # definitive verdict.
            attempts[hostname] += 1
            get_registry().counter("ingest.retries").inc()
            if health is not None:
                health.record_retry(hostname)
            probe_failure = _run_round(
                scan_fn, root, [hostname], 1, allow_truncated, policy,
                timeout, results, per_host).get(hostname)
            if probe_failure is None:
                continue  # innocent: the probe produced its result
            if ErrorPolicy(policy) is ErrorPolicy.STRICT:
                raise HostScanError(hostname, attempts[hostname],
                                    probe_failure)
            drop = HostScanResult(
                hostname=hostname, scan=None, status="dropped",
                records=(QuarantinedRecord(
                    hostname=hostname, path=f"{root}/{hostname}",
                    lineno=None, kind="scan_failure", error=probe_failure,
                ),),
            )
            results[hostname] = drop
        pending = retry
        if pending:
            time.sleep(min(retry_backoff * (2 ** round_no), _MAX_BACKOFF))
            round_no += 1
    return results


def scan_archive(
    archive: HostArchive,
    workers: int = 1,
    allow_truncated: bool = False,
    policy: str = ErrorPolicy.STRICT,
    health: IngestHealth | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    timeout: float | None = None,
    scan_fn: Callable | None = None,
    files_by_host: dict[str, tuple[str, ...]] | None = None,
    jobs: frozenset[str] | None = None,
    seeds: dict[str, dict] | None = None,
) -> Iterator[HostScan]:
    """Yield one :class:`HostScan` per surviving host, in sorted order.

    An effective worker count of 1 (see :func:`effective_workers`) runs
    in-process (no executor, no pickling, nothing transient to retry);
    more fans the per-host work over a process pool with per-host retry
    (*max_retries* attempts beyond the first, exponential
    *retry_backoff*, optional per-round *timeout* seconds) while
    preserving the serial output order.

    *policy* decides what malformed host data does (see
    :class:`~repro.errors.ErrorPolicy`); dropped hosts yield nothing.
    Every outcome — ok, degraded, dropped, and retry counts — is folded
    into *health* when one is supplied.  *scan_fn* swaps the worker
    entry point (same signature as the default) and exists for the
    fault-injection harness to simulate crashing workers.

    *files_by_host* names what to read: only those hosts are visited,
    and each reads just the listed paths (its files in label order, as
    a manifest resolved them; none when the host is visited for its
    seeds alone).  *seeds* maps a host to the persisted scan states of
    its open jobs, which the host's fold continues from; *jobs* narrows
    the metric partials to the job ids the run can load (``None`` =
    every job; matcher views are always complete).  Quarantine/retry
    semantics are the same for any selection.
    """
    hostnames = (sorted(files_by_host) if files_by_host is not None
                 else archive.hostnames())
    #: host -> the (paths, jobs, seeds) its scan is called with.
    per_host = {h: (None if files_by_host is None
                    else tuple(files_by_host[h]), jobs, (seeds or {}).get(h))
                for h in hostnames}
    workers = effective_workers(workers, len(hostnames))
    if workers == 1 and scan_fn is None and timeout is None:
        for hostname in hostnames:
            outcome = _scan_host_checked(archive, hostname,
                                         allow_truncated, policy,
                                         *per_host[hostname])
            _record_outcome(health, outcome)
            if outcome.scan is not None:
                yield outcome.scan
        return

    results = _scan_parallel(
        scan_fn or _scan_one, str(archive.root), hostnames, workers,
        allow_truncated, policy, health, max_retries, retry_backoff,
        timeout, per_host)
    for hostname in hostnames:
        outcome = results.get(hostname)
        if outcome is None:  # pragma: no cover - every host gets a verdict
            continue
        _record_outcome(health, outcome)
        if outcome.scan is not None:
            yield outcome.scan
