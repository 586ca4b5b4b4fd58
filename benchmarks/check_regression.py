"""Bench-smoke regression gate.

Parses the human-readable artifacts the bench smoke leaves under
``benchmarks/out/`` and compares the headline numbers against the
committed ``benchmarks/baseline.json``.  A metric that regresses by
more than the slack factor (default 30%, ``--slack`` / the
``REPRO_BENCH_SLACK`` env var) fails the gate with exit code 1, so a
perf regression turns the CI job red instead of scrolling past in a
log nobody reads.

Gated metrics::

    report_cold_ms                cold report-suite latency (lower)
    report_warm_ms                warm (memoized) latency   (lower)
    telemetry_overhead_pct        telemetry on-vs-off cost  (lower)
    incremental_append_speedup_x  append vs full re-ingest  (higher)
    service_p99_ms                warm report p99 under 64
                                  concurrent sessions       (lower)
    cli_report_ms                 one repro-report process
                                  per query, cold           (lower)
    service_coalesce_rate         single-flight dedup rate  (higher)
    live_batch_ms                 live micro-batch append +
                                  snapshot refresh latency  (lower)
    live_top_warm_ms              warm /api/v1/live/top
                                  rate-poll latency         (lower)
    synthesis_speedup_x           vectorized replay vs the
                                  scalar daemon loop        (higher)

Latency metrics carry an absolute *floor*: anything at or under the
floor passes outright, because below it the measurement is timer and
scheduler noise (the warm path is memoized-dict territory — sub-
millisecond on every machine — and a 0.1 ms -> 0.2 ms "100%
regression" means nothing).  For higher-is-better metrics the floor is
the opposite thing — a hard minimum the slack rule can never relax,
used where the requirement is an acceptance criterion rather than a
measured baseline.

The service gates (:data:`ADVISORY`) are wall-clock-sensitive — a p99
under concurrency and a thread-overlap dedup rate both wobble on
shared CI runners — so by default their failures print as ADVISORY
warnings without flipping the exit code.  Pass ``--strict`` (or set
``REPRO_BENCH_STRICT=1``) to enforce them: do that locally on quiet
hardware, and always before refreshing the baseline — ``--update``
implies strict measurement conditions.

Refresh the baseline after an intentional perf change with::

    python benchmarks/check_regression.py --strict --update

run on the same machine class as CI (the committed numbers come from a
quick-mode run, ``REPRO_BENCH_QUICK=1``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: metric -> (artifact file, extraction regex, higher|lower, noise floor)
METRICS = {
    "report_cold_ms": (
        "report_latency.txt",
        re.compile(r"^cold\s+\(one shared scan\):\s+([\d.]+) ms",
                   re.MULTILINE),
        "lower",
        100.0,
    ),
    "report_warm_ms": (
        "report_latency.txt",
        re.compile(r"^warm\s+\(memoized\):\s+([\d.]+) ms", re.MULTILINE),
        "lower",
        50.0,
    ),
    # The incremental-ingest contract: appending one day via the
    # ledger must beat a full re-ingest by at least 5x (the floor is
    # the acceptance criterion itself — a hard minimum the slack rule
    # cannot relax, see docs/PERFORMANCE.md "Incremental ingest").
    "incremental_append_speedup_x": (
        "incremental_ingest.txt",
        re.compile(r"^append speedup: ([\d.]+)x", re.MULTILINE),
        "higher",
        5.0,
    ),
    # The service contract (docs/PERFORMANCE.md "Service latency"):
    # warm report p99 stays under 10 ms with 64 concurrent dashboard
    # sessions live, and the single-flight layer deduplicates most of
    # a synchronized wave of identical uncached queries; both floors
    # are the acceptance criteria themselves.  ``cli_report_ms`` is
    # what one cold ``repro-report`` process costs (interpreter + the
    # read side's imports + snapshot build) — an absolute time, because
    # the ratio it replaced (CLI ms / warm request ms) fell whenever
    # the CLI got faster.  Its floor is the numpy + stdlib import
    # alone, which no change here can go under.
    "service_p99_ms": (
        "service_latency.txt",
        re.compile(r"^warm report p99: ([\d.]+) ms", re.MULTILINE),
        "lower",
        10.0,
    ),
    "cli_report_ms": (
        "service_latency.txt",
        re.compile(r"^cli report: ([\d.]+) ms", re.MULTILINE),
        "lower",
        250.0,
    ),
    "service_coalesce_rate": (
        "service_latency.txt",
        re.compile(r"^coalesce rate: ([\d.]+)", re.MULTILINE),
        "higher",
        0.5,
    ),
    # The live-mode gates (docs/OBSERVABILITY.md "Live monitoring"):
    # a micro-batch (replay + rotation + ledger append + snapshot
    # refresh) must complete far inside the rotation cadence, and a
    # warm live/top poll — deliberately uncached, one counter scan
    # plus an in-memory rate diff — stays in the same noise-floor
    # territory as the other warm read paths.  Both are wall-clock
    # ADVISORY gates.
    "live_batch_ms": (
        "live_append.txt",
        re.compile(r"^live batch median: ([\d.]+) ms", re.MULTILINE),
        "lower",
        250.0,
    ),
    "live_top_warm_ms": (
        "live_append.txt",
        re.compile(r"^warm live/top median: ([\d.]+) ms", re.MULTILINE),
        "lower",
        10.0,
    ),
    # The vectorized-synthesis contract (docs/PERFORMANCE.md
    # "Vectorized synthesis"): the batched-kernel replay writing
    # direct-to-v2 must beat the scalar daemon loop by at least 5x on
    # the same config with byte-identical archives (asserted inside the
    # bench).  The floor is the acceptance criterion; the number itself
    # is a wall-clock ratio, hence advisory on shared runners.  The
    # baseline is ~18x since a job begin stopped being a kernel-call
    # boundary (9.5x with text-free v2 writes, 6.5x before those).
    "synthesis_speedup_x": (
        "synthesis_throughput.txt",
        re.compile(r"^synthesis speedup: ([\d.]+)x", re.MULTILINE),
        "higher",
        5.0,
    ),
    # The observability budget: telemetry stays on by default, so its
    # cost is a gated headline number.  The 1.0 floor IS the < 1 %
    # budget from docs/OBSERVABILITY.md — at or under it the gate
    # passes outright (A/B timing noise lives well inside ±1 %);
    # above it the usual slack-vs-baseline rule applies and CI goes red.
    "telemetry_overhead_pct": (
        "telemetry_overhead.txt",
        re.compile(r"^telemetry overhead: (-?[\d.]+) %", re.MULTILINE),
        "lower",
        1.0,
    ),
}

#: Wall-clock-sensitive gates: enforced only under ``--strict`` /
#: ``REPRO_BENCH_STRICT=1`` (local quiet hardware, baseline updates);
#: on shared CI runners their failures are advisory warnings so a
#: noisy-neighbour scheduler blip cannot fail an unrelated PR.
ADVISORY = {"service_p99_ms", "cli_report_ms",
            "service_coalesce_rate",
            "live_batch_ms", "live_top_warm_ms",
            "synthesis_speedup_x"}


def read_metrics(out_dir: Path) -> dict[str, float]:
    """Extract every gated metric from the artifacts in *out_dir*.

    Raises ``SystemExit`` with a readable message when an artifact is
    missing or its format has drifted away from the regexes above —
    a gate that silently matches nothing is worse than no gate.  Every
    problem is collected before exiting, so one run reports the whole
    damage instead of failing artifact-by-artifact across retries.
    """
    values = {}
    errors: list[str] = []
    missing_artifacts: set[str] = set()
    for name, (artifact, pattern, _, _) in METRICS.items():
        path = out_dir / artifact
        if not path.exists():
            # One message per missing file, not per metric in it.
            if artifact not in missing_artifacts:
                missing_artifacts.add(artifact)
                errors.append(f"{path} not found — run the bench smoke "
                              f"(REPRO_BENCH_QUICK=1 python -m pytest "
                              f"benchmarks/bench_*.py -q -s) first")
            continue
        match = pattern.search(path.read_text())
        if match is None:
            errors.append(f"could not find {name} in {path}; the "
                          f"artifact format drifted — update METRICS in "
                          f"{__file__}")
            continue
        values[name] = float(match.group(1))
    if errors:
        sys.exit("error:\n  " + "\n  ".join(errors))
    return values


def check(current: dict[str, float], baseline: dict[str, float],
          slack: float, strict: bool = False
          ) -> tuple[list[str], list[str]]:
    """Return ``(failures, advisories)`` — human-readable regression
    messages; only *failures* flip the exit code."""
    failures: list[str] = []
    advisories: list[str] = []
    for name, value in current.items():
        _, _, direction, floor = METRICS[name]
        advisory = name in ADVISORY and not strict
        base = baseline.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry — run with "
                            f"--update to record one")
            continue
        if direction == "higher":
            # The floor is a hard minimum for higher-is-better metrics:
            # even a baseline refreshed on slow hardware cannot ratchet
            # the requirement below it.
            limit = max(base * (1.0 - slack), floor)
            ok = value >= limit
            verdict = f">= {limit:.1f} required"
        else:
            if value <= floor:
                ok, verdict = True, f"under the {floor:g} noise floor"
            else:
                limit = max(base, floor) * (1.0 + slack)
                ok = value <= limit
                verdict = f"<= {limit:.1f} required"
        status = "ok" if ok else ("ADVISORY" if advisory else "REGRESSION")
        print(f"  {name:<24} {value:>10.1f}  (baseline {base:.1f}, "
              f"{verdict}) {status}")
        if not ok:
            message = (f"{name}: {value:.1f} vs baseline {base:.1f} "
                       f"(> {slack:.0%} worse)")
            (advisories if advisory else failures).append(message)
    return failures, advisories


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description="fail CI when bench-smoke numbers regress >slack "
                    "vs the committed baseline")
    parser.add_argument("--out-dir", default=str(BENCH_DIR / "out"),
                        help="directory holding the bench artifacts")
    parser.add_argument("--baseline",
                        default=str(BENCH_DIR / "baseline.json"),
                        help="committed baseline file")
    parser.add_argument("--slack", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SLACK",
                                                     "0.30")),
                        help="allowed fractional regression "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current "
                             "artifacts instead of checking")
    parser.add_argument("--strict", action="store_true",
                        default=os.environ.get("REPRO_BENCH_STRICT",
                                               "") not in ("", "0"),
                        help="enforce the wall-clock-sensitive service "
                             "gates instead of reporting them as "
                             "advisory (default: REPRO_BENCH_STRICT)")
    args = parser.parse_args(argv)

    current = read_metrics(Path(args.out_dir))
    baseline_path = Path(args.baseline)

    if args.update:
        baseline_path.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {baseline_path}")
        for name, value in sorted(current.items()):
            print(f"  {name:<24} {value:>10.1f}")
        return 0

    if not baseline_path.exists():
        sys.exit(f"error: {baseline_path} not found — run with --update "
                 f"to record one")
    baseline = json.loads(baseline_path.read_text())

    mode = "strict" if args.strict else "service gates advisory"
    print(f"bench regression gate (slack {args.slack:.0%}, {mode}):")
    failures, advisories = check(current, baseline, args.slack,
                                 strict=args.strict)
    if advisories:
        print("\nADVISORY (timing-sensitive; not failing this run — "
              "verify locally with --strict):")
        for a in advisories:
            print(f"  {a}")
    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("all enforced bench metrics within slack")
    return 0


if __name__ == "__main__":
    sys.exit(main())
