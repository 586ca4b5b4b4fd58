"""End-to-end benchmark: node counters -> served report.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload etl_day --seed 7 \\
        --seconds 12 --trace 0

prints every metric by name with unit and sample count and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separately traced run) with ``--trace 1``.  It exits non-zero when an
output was wrong.

Without ``--workload`` every workload runs, each in its own process;
``--runs N`` repeats each with seeds ``seed .. seed+N-1``, ``--trace``
adds a traced run beside every untraced one (and reports the wall
difference of each pair), and ``--sets 2`` measures everything twice
and compares the two sets with ``compare.py``.  Results land in
``benchmarks/e2e/out/``.  See ``README.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
OUT = HERE / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are written down."""
    return json.loads(SPEC_PATH.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, started: float | None = None):
    """Run one workload in this process; returns its
    :class:`harness.Result` (per-layer numbers filled when *trace*)."""
    import harness
    import workloads

    result = harness.Result(name, seed)
    started = time.perf_counter() if started is None else started
    with harness.Speedometer() as speed, harness.scratch_dir() as tmp:
        run = workloads.Run(seed, seconds, trace, smoke, started, tmp, speed)
        if not trace:
            workloads.WORKLOADS[name](run, result)
        else:
            span_cost = harness.span_cost_s()
            with harness.tracing() as tracer:
                workloads.WORKLOADS[name](run, result)
            workloads.trace_layers(result, tracer, span_cost)
            harness.write_trace(OUT / f"trace-{name}.json", tracer.roots,
                                started)
    return result


def record(result, spec: dict, trace: bool) -> dict:
    """The run as a JSON-able record whose ``metrics`` are exactly the
    ones ``BENCHMARK.json`` lists for this kind of run."""
    import workloads

    rec = {"workload": result.workload, "seed": result.seed,
           "seed_draws": workloads.SEED_DRAWS[result.workload],
           "trace": trace, "correct": result.correct,
           "attempted": result.attempted, "failed": result.failed,
           "problems": result.problems}
    if trace:
        known = {m["name"]: m["unit"] for m in spec["per_layer"]}
        extra = sorted(set(result.per_layer) - set(known))
        if extra:
            raise KeyError(f"per-layer metrics not in BENCHMARK.json: "
                           f"{extra}")
        rec["metrics"] = {
            name: {"value": float(result.per_layer.get(name, 0.0)),
                   "unit": unit}
            for name, unit in known.items()}
        # What the traced run itself measured end to end, so a paired
        # untraced run of the same seed gives the tracing overhead.
        rec["traced_throughput_per_s"] = float(
            result.end_to_end["throughput_per_s"][0])
        return rec
    rec["metrics"] = {}
    for m in spec["end_to_end"]:
        value, n, what = result.end_to_end[m["name"]]
        rec["metrics"][m["name"]] = {"value": float(value),
                                     "unit": m["unit"], "n": n,
                                     "what": what}
    rec["named"] = {name: {"value": float(value), "unit": unit, "n": n}
                    for name, (value, unit, n) in result.named.items()}
    rec["samples"] = result.samples
    rec["measured"] = result.measured
    return rec


def print_record(rec: dict) -> None:
    """Every metric by name, with unit and sample count."""
    kind = "per-layer (traced run)" if rec["trace"] else "end-to-end"
    print(f"== {rec['workload']} seed={rec['seed']} — {kind}; the seed "
          f"draws {rec['seed_draws']}")
    for name, m in rec["metrics"].items():
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
              f"{n:<8} {m.get('what', '')}".rstrip())
    if rec.get("named"):
        print("  -- the same run under the issue's metric names")
        for name, m in rec["named"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
                  f"n={m['n']}")
    if not rec["trace"]:
        print("  timings are quoted at the reference speed "
              "(README, \"Reference speed\")")
    share = rec["failed"] / rec["attempted"] if rec["attempted"] else 0.0
    print(f"  failed/attempted: {rec['failed']}/{rec['attempted']} "
          f"({share:.2%})  correct: {rec['correct']}")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")


def single(args, spec: dict) -> int:
    """One run, in this process — the driver's entry point."""
    import harness

    harness.terminate_as_exit()
    harness.pin_cpus()
    result = run_workload(args.workload, args.seed, args.seconds,
                          args.trace, args.scale == "smoke", STARTED)
    rec = record(result, spec, args.trace)
    print_record(rec)
    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(
        {"fingerprint": harness.fingerprint(), "seconds": args.seconds,
         "scale": args.scale, "runs": [rec]}, indent=1) + "\n")
    print(json.dumps({
        "correct": rec["correct"], "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in rec["metrics"].items()}}))
    return 0 if rec["correct"] else 1


def run_child(argv: list[str]) -> tuple[int, str, str]:
    """One run in its own process: ``(exit status, stdout, stderr)``.

    If this process is told to stop meanwhile, the child is told too
    and given time to stop its servers and remove its scratch tree
    before this process goes (its own handler ignores a second signal,
    so being told twice — Ctrl-C reaches the whole foreground group —
    cannot cut its teardown short)."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate()
    except BaseException:
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    return child.returncode, out, err


def measure_set(args, names: list[str]) -> list[dict]:
    """Every selected workload, ``--runs`` times, one process per run
    so that peak RSS and warm caches never carry over."""
    records = []
    for name in names:
        for i in range(args.runs):
            pair = []
            for trace in ([0, 1] if args.trace else [0]):
                status, out, err = run_child(
                    [sys.executable, str(HERE / "run.py"),
                     "--workload", name, "--seed", str(args.seed + i),
                     "--seconds", str(args.seconds), "--trace", str(trace),
                     "--scale", args.scale])
                lines = out.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    sys.stderr.write(out + err)
                    raise SystemExit(
                        f"{name}: run failed with no result "
                        f"(exit {status})")
                print("\n".join(lines[:-1]))
                pair.append(json.loads(
                    (OUT / "result.json").read_text())["runs"][0])
            if len(pair) == 2:
                # The wall difference the tracing made, on the
                # workload's own throughput; the traced run's
                # harness.trace_overhead_pct is the estimate.
                plain = pair[0]["metrics"]["throughput_per_s"]["value"]
                pair[1]["trace_overhead_measured_pct"] = 100.0 * (
                    plain / pair[1]["traced_throughput_per_s"] - 1.0)
                print(f"  trace overhead measured on this pair: "
                      f"{pair[1]['trace_overhead_measured_pct']:+.2f} % "
                      f"of throughput_per_s")
            records += pair
    return records


def spreads(records: list[dict], spec: dict) -> str:
    """Median and run-to-run spread of every end-to-end metric — what
    ``--runs N`` is for: the spread behind an ``unresolved`` verdict."""
    import compare

    lines = [f"{'workload':<12} {'metric':<18} {'unit':<5} {'median':>12} "
             f"{'spread':>7} {'bound':>6} {'runs':>4}"]
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records
                if r["workload"] == workload and not r["trace"]]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            lines.append(
                f"{workload:<12} {m['name']:<18} {m['unit']:<5} "
                f"{statistics.median(values):>12.6g} "
                f"{compare.spread(values):>7.1%} {m['bound']:>6.0%} "
                f"{len(values):>4}")
    return "\n".join(lines)


def many(args, spec: dict) -> int:
    """All (or one) workloads, several runs, one or two sets."""
    import compare
    import harness

    harness.terminate_as_exit()
    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    paths = []
    ok = True
    for s in range(args.sets):
        records = measure_set(args, names)
        ok = ok and all(r["correct"] for r in records)
        path = OUT / ("result.json" if args.sets == 1
                      else f"set-{s + 1}.json")
        path.write_text(json.dumps(
            {"fingerprint": harness.fingerprint(),
             "seconds": args.seconds, "scale": args.scale,
             "runs": records}, indent=1) + "\n")
        paths.append(path)
        print(f"\nwrote {path}")
        if args.runs > 1:
            print(spreads(records, spec))
        for name in names if args.trace else []:
            measured = [r["trace_overhead_measured_pct"] for r in records
                        if r["workload"] == name and r["trace"]]
            print(f"{name:<12} trace overhead measured, median of "
                  f"{len(measured)} pairs: "
                  f"{statistics.median(measured):+.2f} %")
    if args.sets >= 2:
        print()
        print(compare.render(*(json.loads(p.read_text())
                               for p in paths[:2]), spec))
    return 0 if ok else 1


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` (children inherit it).

    str hashes are salted per process, and with them the iteration
    order of the program's sets and dicts and its memory access
    pattern: between otherwise identical processes that alone moved a
    v2 ingest's median by +-5 % (inter-quartile 10 % salted, 4 %
    pinned, ten processes each)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        pin_hash_seed()
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long the timed phase measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: tiny inputs, for the harness test")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--sets", type=int, default=1,
                        help="2: measure twice and compare the sets")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.workload and args.runs == 1 and args.sets == 1:
        return single(args, spec)
    return many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
