"""Tests for the CLI entry points (invoked in-process via main(argv))."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.persistence import main as persistence_main
from repro.cli.report import main as report_main
from repro.cli.simulate import main as simulate_main
from repro.cli.stats_cat import main as stats_cat_main
from tests.conftest import SUBPROCESS_ENV


@pytest.fixture(scope="module")
def warehouse_file(tmp_path_factory, capfd_disabled=None):
    """A warehouse built by the simulate CLI itself (fast path)."""
    path = str(tmp_path_factory.mktemp("cli") / "wh.sqlite")
    rc = simulate_main([
        "--system", "ranger", "--nodes", "24", "--days", "12",
        "--users", "50", "--seed", "9", "--warehouse", path, "--quiet",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def archive_run(tmp_path_factory):
    """A warehouse + archive built by the simulate CLI (slow path)."""
    d = tmp_path_factory.mktemp("cli_arch")
    wh = str(d / "wh.sqlite")
    arch = str(d / "archive")
    rc = simulate_main([
        "--system", "ranger", "--nodes", "8", "--days", "1",
        "--users", "10", "--seed", "3", "--warehouse", wh,
        "--archive", arch, "--quiet",
    ])
    assert rc == 0
    return wh, arch


def test_simulate_refuses_duplicate_system(warehouse_file, capsys):
    rc = simulate_main([
        "--system", "ranger", "--warehouse", warehouse_file, "--quiet",
    ])
    assert rc != 0
    assert "already present" in capsys.readouterr().err


def test_report_support(warehouse_file, capsys):
    rc = report_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "support"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SUPPORT STAFF REPORT" in out
    assert "circled user" in out


def test_report_user_needs_target(warehouse_file, capsys):
    rc = report_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "user"])
    assert rc != 0
    assert "needs" in capsys.readouterr().err


def test_report_user_with_target(warehouse_file, capsys):
    from repro.ingest.warehouse import Warehouse
    from repro.xdmod.query import JobQuery
    wh = Warehouse(warehouse_file)
    user = JobQuery(wh, "ranger").top("user", 1)[0]
    wh.close()
    rc = report_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "user", user])
    assert rc == 0
    assert user in capsys.readouterr().out


def test_report_unknown_system(warehouse_file, capsys):
    rc = report_main(["--warehouse", warehouse_file, "--system", "nope",
                      "support"])
    assert rc != 0


def test_report_unknown_user(warehouse_file, capsys):
    rc = report_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "user", "nobody9999"])
    assert rc != 0


def test_persistence_cli(warehouse_file, capsys):
    rc = persistence_main(["--warehouse", warehouse_file,
                           "--system", "ranger"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "combined fit" in out
    assert "io_scratch_write" in out


def test_persistence_bad_offsets(warehouse_file, capsys):
    rc = persistence_main(["--warehouse", warehouse_file,
                           "--system", "ranger", "--offsets", "0,-5"])
    assert rc != 0


def test_stats_cat_header_and_jobs(archive_run, capsys):
    _, arch = archive_run
    from repro.tacc_stats.archive import HostArchive
    archive = HostArchive(arch)
    host = archive.hostnames()[0]
    files = [str(p) for p in archive.host_files(host)]
    rc = stats_cat_main(["--jobs"] + files)
    assert rc == 0
    out = capsys.readouterr().out
    assert "TACC_Stats stream" in out
    assert host in out


def test_stats_cat_series(archive_run, capsys):
    _, arch = archive_run
    from repro.tacc_stats.archive import HostArchive
    archive = HostArchive(arch)
    host = archive.hostnames()[0]
    files = [str(p) for p in archive.host_files(host)]
    rc = stats_cat_main(["--series", "cpu:0:idle"] + files)
    assert rc == 0
    assert "cpu:0:idle" in capsys.readouterr().out


def test_stats_cat_bad_series_spec(archive_run, capsys):
    _, arch = archive_run
    from repro.tacc_stats.archive import HostArchive
    archive = HostArchive(arch)
    files = [str(archive.host_files(archive.hostnames()[0])[0])]
    rc = stats_cat_main(["--series", "nonsense"] + files)
    assert rc != 0


def test_stats_cat_missing_file(capsys):
    rc = stats_cat_main(["/does/not/exist"])
    assert rc != 0


def test_stats_cat_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a stats file\n")
    rc = stats_cat_main([str(bad)])
    assert rc == 1


def test_diagnose_cli_all(warehouse_file, capsys):
    from repro.cli.diagnose import main as diagnose_main
    rc = diagnose_main(["--warehouse", warehouse_file, "--system",
                        "ranger", "--limit", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Diagnosis" in out or "no diagnosable" in out


def test_diagnose_cli_associations(warehouse_file, capsys):
    from repro.cli.diagnose import main as diagnose_main
    rc = diagnose_main(["--warehouse", warehouse_file, "--system",
                        "ranger", "--associations"])
    assert rc == 0


def test_diagnose_cli_unknown_job(warehouse_file, capsys):
    from repro.cli.diagnose import main as diagnose_main
    rc = diagnose_main(["--warehouse", warehouse_file, "--system",
                        "ranger", "--job", "bogus"])
    assert rc != 0


def test_export_cli_groups_csv(warehouse_file, capsys):
    from repro.cli.export import main as export_main
    rc = export_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "--format", "csv", "groups", "science_field",
                      "--metric", "mem_used"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("group,")
    assert "mem_used" in out


def test_export_cli_profile_json(warehouse_file, capsys):
    import json
    from repro.cli.export import main as export_main
    from repro.ingest.warehouse import Warehouse
    from repro.xdmod.query import JobQuery
    wh = Warehouse(warehouse_file)
    user = JobQuery(wh, "ranger").top("user", 1)[0]
    wh.close()
    rc = export_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "profile", "user", user])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "radar"


def test_export_cli_series_to_file(warehouse_file, tmp_path, capsys):
    import json
    from repro.cli.export import main as export_main
    out_file = tmp_path / "series.json"
    rc = export_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "-o", str(out_file), "series", "flops_tf"])
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["kind"] == "line"
    assert len(data["t"]) == len(data["y"]) > 0


def test_export_cli_density_csv(warehouse_file, capsys):
    from repro.cli.export import main as export_main
    rc = export_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "--format", "csv", "density", "mem_used"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("x,density")


def test_export_cli_bad_series(warehouse_file, capsys):
    from repro.cli.export import main as export_main
    rc = export_main(["--warehouse", warehouse_file, "--system", "ranger",
                      "series", "nonexistent"])
    assert rc != 0


def test_stats_cat_timeline(archive_run, capsys):
    """The job-viewer path: feed all hosts' files, ask for one job."""
    wh, arch = archive_run
    from repro.ingest.warehouse import Warehouse
    from repro.tacc_stats.archive import HostArchive
    from repro.xdmod.query import JobQuery
    w = Warehouse(wh)
    q = JobQuery(w, "ranger", metrics=())
    # Pick a job with >= 2 samples (longer than the interval).
    import numpy as np
    durations = q.column("end_time") - q.column("start_time")
    idx = int(np.argmax(durations))
    jobid = str(q.column("jobid")[idx])
    w.close()
    archive = HostArchive(arch)
    files = [str(p) for h in archive.hostnames()
             for p in archive.host_files(h)]
    rc = stats_cat_main(["--timeline", jobid] + files)
    assert rc == 0
    out = capsys.readouterr().out
    assert f"Job timeline — {jobid}" in out
    assert "most deviant host" in out


def _longest_job(wh: str) -> str:
    from repro.ingest.warehouse import Warehouse
    from repro.xdmod.query import JobQuery
    w = Warehouse(wh)
    q = JobQuery(w, "ranger", metrics=())
    durations = q.column("end_time") - q.column("start_time")
    jobid = str(q.column("jobid")[int(durations.argmax())])
    w.close()
    return jobid


def test_stats_cat_timeline_of_text_and_its_v2_twin_agree(archive_run,
                                                          tmp_path, capsys):
    from repro.cli.convert import main as convert_main
    wh, arch = archive_run
    jobid = _longest_job(wh)
    assert convert_main(["--archive", arch, "--to", "v2", "--out",
                         str(tmp_path / "v2"), "--quiet"]) == 0
    capsys.readouterr()
    outs = []
    for root, suffix in ((Path(arch), ".gz"), (tmp_path / "v2", ".v2")):
        files = sorted(str(p) for p in root.glob(f"*/*{suffix}"))
        assert stats_cat_main(["--timeline", jobid, *files]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "io_scratch_write" in outs[0]


def test_stats_cat_timeline_of_a_degraded_cpu_schema(archive_run, tmp_path,
                                                     capsys):
    """A host-day whose cpu type lacks a key renders every other series
    (the cpu fractions need all of them) and exits 0."""
    import dataclasses
    import gzip

    from repro.tacc_stats.archive import HostArchive
    from repro.tacc_stats.parser import parse_host_columns
    wh, arch = archive_run
    jobid = _longest_job(wh)
    files = []
    for path in sorted(Path(arch).glob("*/*.gz")):
        day = parse_host_columns(HostArchive.read_file(path))
        types = []
        for tc in day.types:
            if tc.name == "cpu":
                keep = [i for i, e in enumerate(tc.schema.entries)
                        if e.key != "nice"]
                tc = dataclasses.replace(tc, values=tc.values[:, keep],
                                         schema=dataclasses.replace(
                    tc.schema, entries=tuple(tc.schema.entries[i]
                                             for i in keep)))
            types.append(tc)
        out = tmp_path / path.parent.name / path.name
        out.parent.mkdir(exist_ok=True)
        out.write_bytes(gzip.compress(
            dataclasses.replace(day, types=types).to_text().encode()))
        files.append(str(out))
    assert stats_cat_main(["--timeline", jobid, *files]) == 0
    out = capsys.readouterr().out
    assert "io_scratch_write" in out and "cpu_user" not in out


def test_stats_cat_multi_host_without_timeline_rejected(archive_run,
                                                        capsys):
    _, arch = archive_run
    from repro.tacc_stats.archive import HostArchive
    archive = HostArchive(arch)
    hosts = archive.hostnames()[:2]
    files = [str(archive.host_files(h)[0]) for h in hosts]
    rc = stats_cat_main(files)
    assert rc != 0
    assert "multiple hosts" in capsys.readouterr().err


def test_simulate_policy_and_kernels(tmp_path, capsys):
    path = str(tmp_path / "fcfs.sqlite")
    rc = simulate_main([
        "--system", "ranger", "--nodes", "12", "--days", "4",
        "--users", "15", "--seed", "2", "--warehouse", path,
        "--policy", "fcfs", "--appkernels", "--no-syslog", "--quiet",
    ])
    assert rc == 0
    from repro.ingest.warehouse import Warehouse
    from repro.xdmod.query import JobQuery
    wh = Warehouse(path)
    q = JobQuery(wh, "ranger", metrics=())
    import numpy as np
    assert "appkernel" in np.unique(q.column("user"))
    wh.close()


def test_simulate_telemetry_manifest_end_to_end(tmp_path, capsys):
    """--telemetry-out writes a valid manifest that repro-diagnose
    --telemetry renders and repro-report --cache-stats complements."""
    from repro.cli.diagnose import main as diagnose_main
    from repro.telemetry.manifest import RunManifest, validate_manifest

    wh = str(tmp_path / "wh.sqlite")
    manifest_path = str(tmp_path / "manifest.json")
    rc = simulate_main([
        "--system", "lonestar4", "--nodes", "6", "--days", "1",
        "--users", "8", "--seed", "5", "--warehouse", wh,
        "--archive", str(tmp_path / "archive"),
        "--ingest-workers", "2",
        "--telemetry-out", manifest_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "telemetry manifest:" in out

    manifest = RunManifest.read(manifest_path)
    assert validate_manifest(manifest.to_dict()) == []
    assert manifest.systems == ["lonestar4"]
    assert manifest.stages[0].name == "simulate"
    assert manifest.metrics.counters["ingest.jobs_loaded"] > 0
    assert manifest.slowest_hosts
    assert manifest.extra["jobs_simulated"] > 0

    rc = diagnose_main(["--telemetry", manifest_path, "--min-ms", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Run telemetry" in out
    assert "slowest hosts" in out
    assert "ingest.jobs_loaded" in out

    rc = report_main(["--warehouse", wh, "--system", "lonestar4",
                      "support", "--cache-stats"])
    assert rc == 0
    assert "cache:" in capsys.readouterr().out


def test_diagnose_telemetry_rejects_garbage(tmp_path, capsys):
    from repro.cli.diagnose import main as diagnose_main
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = diagnose_main(["--telemetry", str(bad)])
    assert rc != 0
    assert "cannot read telemetry manifest" in capsys.readouterr().err


def test_diagnose_without_warehouse_or_telemetry_dies(capsys):
    from repro.cli.diagnose import main as diagnose_main
    rc = diagnose_main([])
    assert rc != 0
    assert "--warehouse and --system are required" in \
        capsys.readouterr().err


def test_simulate_live_end_to_end(tmp_path, capsys):
    """--live streams the horizon, prints per-batch lines, records the
    live section in the manifest, and repro-top reads the result."""
    from repro.cli.top import main as top_main
    from repro.telemetry.manifest import RunManifest

    wh = str(tmp_path / "live.sqlite")
    manifest_path = str(tmp_path / "live_manifest.json")
    rc = simulate_main([
        "--system", "ranger", "--nodes", "3", "--days", "1",
        "--users", "5", "--seed", "5", "--warehouse", wh,
        "--archive", str(tmp_path / "archive"), "--live",
        "--live-segment-seconds", str(6 * 3600),
        "--telemetry-out", manifest_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[live] batch=0" in out
    assert "live complete" in out

    manifest = RunManifest.read(manifest_path)
    live = manifest.extra["live"]
    assert live["complete"] is True
    assert live["batches"] == len(live["snapshot_rows"])
    assert live["snapshot_rows"] == sorted(live["snapshot_rows"])
    assert manifest.metrics.counters["live.batches"] == live["batches"]

    rc = top_main(["--warehouse", wh, "--system", "ranger", "-r", "1"])
    assert rc == 0
    assert "repro-top — system ranger" in capsys.readouterr().out


#: One lonestar4 study period for the ledger tests below: 6 hosts, 4
#: days.  Counts, not times: fixed for a fixed seed on any machine.
_INC = ["--system", "lonestar4", "--nodes", "6", "--users", "8",
        "--seed", "5"]


def _data_tables(path):
    import sqlite3

    conn = sqlite3.connect(path)
    try:
        return {table: sorted(conn.execute(f"SELECT * FROM {table}"),
                              key=repr)
                for table in ("jobs", "job_metrics", "system_series",
                              "syslog_events")}
    finally:
        conn.close()


def test_simulate_seed_then_append_through_the_ledger(tmp_path, capsys):
    """``--ingest-days 3`` then ``--append``: every host holds a job that
    crosses the window and each is continued from its scan state, so
    none of the 18 seeded files is read again; the ledger inspects and
    verifies clean, and the warehouse equals a one-shot run's."""
    from repro.cli.diagnose import main as diagnose_main

    wh, arch = str(tmp_path / "inc.sqlite"), str(tmp_path / "inc-archive")
    run = [*_INC, "--days", "4", "--warehouse", wh, "--archive", arch]
    assert simulate_main([*run, "--ingest-days", "3"]) == 0
    capsys.readouterr()
    assert simulate_main([*run, "--append"]) == 0
    assert "ingest delta (append): new=12 lookback=0 (per cell) " \
        "skipped=18 " in capsys.readouterr().out
    system = ["--warehouse", wh, "--system", "lonestar4"]
    assert diagnose_main([*system, "--ledger"]) == 0
    assert "cells with open jobs" in capsys.readouterr().out
    assert diagnose_main([*system, "--verify", arch]) == 0
    assert "no differences" in capsys.readouterr().out

    ref = str(tmp_path / "ref.sqlite")
    assert simulate_main([*_INC, "--days", "4", "--warehouse", ref,
                          "--archive", str(tmp_path / "ref-archive"),
                          "--quiet"]) == 0
    assert _data_tables(wh) == _data_tables(ref)


def test_simulate_live_batches_parse_every_file_once(tmp_path, capsys):
    """Five hourly ``--live`` batches: the segments are v2 files that
    ``repro-stats-cat`` still reads, jobs spanning several files go on
    from their scan states (re-reading the files that hold them was 4),
    the snapshot grows monotonically, and the ledgered fingerprints and
    kept states verify against the live archive."""
    from repro.cli.diagnose import main as diagnose_main
    from repro.telemetry.manifest import RunManifest

    wh, arch = str(tmp_path / "live.sqlite"), str(tmp_path / "live-stats")
    manifest_path = str(tmp_path / "live-manifest.json")
    assert simulate_main([
        *_INC, "--days", "1", "--warehouse", wh, "--archive", arch,
        "--live", "--live-segment-seconds", "3600",
        "--live-max-batches", "5", "--telemetry-out", manifest_path]) == 0
    assert "[live] batch=0" in capsys.readouterr().out
    segments = sorted(p for p in Path(arch).rglob("*") if p.is_file()
                      and p.name != "archive.json")
    assert segments and {p.suffix for p in segments} == {".v2"}
    assert stats_cat_main([str(segments[0])]) == 0
    assert "TACC_Stats stream" in capsys.readouterr().out
    manifest = RunManifest.read(manifest_path)
    live, counters = manifest.extra["live"], manifest.metrics.counters
    assert live["batches"] == counters["live.batches"] == 5
    assert live["snapshot_rows"] == sorted(live["snapshot_rows"])
    assert counters["live.rows_appended"] > 0
    assert {k: counters[f"ingest.delta.files_{k}"]
            for k in ("new", "lookback", "skipped")} == {
        "new": 30, "lookback": 0, "skipped": 60}
    assert diagnose_main(["--warehouse", wh, "--system", "lonestar4",
                          "--verify", arch]) == 0
    assert "no differences" in capsys.readouterr().out


def _archive_only_rows(argv, needs):
    """``(argv, needle)`` rows: every flag that only means something to
    the archive path, set away from its default on the fast path.  Each
    exits 2 naming itself (they used to be silently ignored)."""
    return [([*argv, *flags], f"{flags[0]} requires {needs}") for flags in (
        ["--workers", "4", "--error-policy", "quarantine"],
        ["--ingest-workers", "2"],
        ["--error-policy", "repair"], ["--max-retries", "0"],
        ["--archive-format", "v2"], ["--append"], ["--ingest-days", "1"])]


def _live_ignored_rows(argv):
    """``(argv, needle)`` rows: every archive-path ingest or replay knob
    set away from its default under ``--live``, which replays in-process
    and ingests with the defaults.  Each exits 2 naming itself (they
    used to be silently ignored: no quarantine sidecar was written)."""
    live = [*argv, "--live", "--live-max-batches", "1"]
    return [([*live, *flags], f"{flags[0]} does not apply to --live")
            for flags in (
                ["--error-policy", "quarantine", "--max-retries", "5"],
                ["--max-retries", "5"], ["--workers", "2"],
                ["--ingest-workers", "2"], ["--archive-format", "v2"])]


def test_simulate_flag_validation(tmp_path, capsys):
    """The plain-mode twin of
    ``test_simulate_federation_flag_validation``: nothing is written."""
    wh = str(tmp_path / "wh.sqlite")
    cases = [
        *_archive_only_rows(["--warehouse", wh], "--archive"),
        *_live_ignored_rows(["--warehouse", wh, "--archive",
                             str(tmp_path / "a")]),
        (["--warehouse", wh, "--no-syslog", "--archive",
          str(tmp_path / "a")], "--no-syslog is fast-path"),
        (["--warehouse", wh, "--archive", str(tmp_path / "a"),
          "--ingest-days", "1", "--append"], "only windows a full ingest"),
        (["--warehouse", wh, "--archive", str(tmp_path / "a"),
          "--ingest-days", "0"], "--ingest-days must be >= 1"),
    ]
    for argv, needle in cases:
        rc = simulate_main(argv + ["--quiet"])
        assert rc == 2, argv
        assert needle in capsys.readouterr().err, argv
    # One synthesis engine: there is no knob to pick another.
    with pytest.raises(SystemExit) as exc:
        simulate_main(["--warehouse", wh, "--archive", str(tmp_path / "a"),
                       "--synthesis", "scalar"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --synthesis" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_live_flag_validation(tmp_path, capsys):
    wh = str(tmp_path / "wh.sqlite")
    cases = [
        (["--live", "--warehouse", wh], "requires --archive"),
        (["--live", "--warehouse", wh, "--archive",
          str(tmp_path / "a"), "--append"], "incremental ingest"),
        (["--live", "--warehouse", wh, "--archive",
          str(tmp_path / "a"), "--live-segment-seconds", "0"],
         "--live-segment-seconds"),
        (["--live", "--federation", str(tmp_path / "fed")],
         "batch-only"),
    ]
    for argv, needle in cases:
        rc = simulate_main(argv)
        assert rc != 0
        assert needle in capsys.readouterr().err


def test_repro_top_validation(tmp_path, capsys):
    from repro.cli.top import main as top_main

    rc = top_main(["--warehouse", str(tmp_path / "nope.sqlite"),
                   "--system", "ranger", "-n", "0"])
    assert rc != 0
    assert "--count" in capsys.readouterr().err

    from repro.ingest.warehouse import Warehouse
    path = str(tmp_path / "empty.sqlite")
    Warehouse(path).close()
    rc = top_main(["--warehouse", path, "--system", "ranger"])
    assert rc != 0
    assert "unknown system" in capsys.readouterr().err

    rc = top_main(["--url", "http://127.0.0.1:1", "--system", "ranger",
                   "-r", "1"])
    assert rc != 0
    assert "cannot reach" in capsys.readouterr().err


def test_diagnose_telemetry_empty_spans_explicit(tmp_path, capsys):
    """A manifest with no spans gets an explicit line, not silence."""
    from repro.cli.diagnose import main as diagnose_main
    from repro.telemetry.manifest import build_manifest

    manifest = build_manifest(systems=["ranger"])
    manifest.stages = []
    path = manifest.write(str(tmp_path / "empty.json"))
    rc = diagnose_main(["--telemetry", str(path)])
    assert rc == 0
    assert "no spans recorded" in capsys.readouterr().out


_TOOLS = ["simulate", "convert", "report", "stats_cat", "persistence",
          "diagnose", "export", "serve", "top"]


@pytest.mark.parametrize("tool", _TOOLS)
def test_python_dash_m_runs_without_runpy_warning(tool):
    """``repro/cli/__init__`` used to import all the mains, so
    ``python -m repro.cli.<tool>`` found its module already in
    ``sys.modules`` and said so (RuntimeWarning) on every run."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         f"repro.cli.{tool}", "--help"],
        env=SUBPROCESS_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "usage: repro-" in proc.stdout


def _run_with_closed_stdout(argv: list[str]) -> tuple[str, int]:
    """Run ``python -m *argv`` with the read end of its stdout pipe
    already closed; returns ``(stderr, exit status)``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", *argv],
                              env=SUBPROCESS_ENV, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    return proc.stderr, proc.returncode


@pytest.mark.parametrize("tool, args", [
    ("report", ["support"]),
    ("persistence", []),
    ("export", ["--format", "csv", "groups", "user"]),
    ("diagnose", ["--associations"]),
    ("top", ["-r", "1", "--json"]),
])
def test_closed_stdout_ends_a_printing_tool_quietly(warehouse_file, tool,
                                                    args):
    """``repro-report … | head``: the reader is gone before the tool
    writes.  No traceback, no "Exception ignored" from the exit flush,
    and the status a SIGPIPE death would give."""
    assert _run_with_closed_stdout(
        [f"repro.cli.{tool}", "--warehouse", warehouse_file,
         "--system", "ranger", *args]) == ("", 128 + signal.SIGPIPE)


def test_closed_stdout_stats_cat(archive_run):
    _, arch = archive_run
    first = sorted(Path(arch).glob("*/*.gz"))[0]
    assert _run_with_closed_stdout(
        ["repro.cli.stats_cat", str(first)]) == ("", 128 + signal.SIGPIPE)
