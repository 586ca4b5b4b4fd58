"""Federation mode of the CLI tools (in-process via ``main(argv)``).

Includes the acceptance-critical byte-identity check: a one-cluster
federation's shard must hold row-identical data tables — and render
byte-identical reports — to the legacy ``--warehouse`` path with the
same knobs.  (Raw file bytes are not compared: ingest bookkeeping rows
carry a random run id by design.)
"""

from __future__ import annotations

import contextlib
import io
import re
import sqlite3

import pytest

from repro.cli.diagnose import main as diagnose_main
from repro.cli.report import main as report_main
from repro.cli.serve import main as serve_main
from repro.cli.simulate import main as simulate_main
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import MetricsRegistry, use_registry
from repro.xdmod.query import JobQuery
from tests.test_cli import _archive_only_rows

KNOBS = ["--nodes", "8", "--days", "2", "--users", "10", "--seed", "5"]


@pytest.fixture(scope="module")
def fed_dir(tmp_path_factory) -> str:
    """A 3-cluster federation built by the CLI (fast path), including
    an aliased second Ranger shard."""
    root = str(tmp_path_factory.mktemp("cli_fed") / "fed")
    rc = simulate_main(["--clusters",
                        "ranger,lonestar4,ranger-b=ranger",
                        "--federation", root, *KNOBS, "--quiet"])
    assert rc == 0
    return root


DATA_TABLES = ("systems", "jobs", "job_metrics", "system_series",
               "syslog_events")


def _dump(path: str) -> dict[str, list]:
    """Every data-table row, ordered — the byte-identity view."""
    conn = sqlite3.connect(path)
    try:
        out = {}
        for table in DATA_TABLES:
            cols = [r[1] for r in
                    conn.execute(f"PRAGMA table_info({table})")]
            out[table] = conn.execute(
                f"SELECT * FROM {table} ORDER BY {', '.join(cols)}"
            ).fetchall()
        return out
    finally:
        conn.close()


# -- simulate ----------------------------------------------------------------


def test_simulate_builds_all_shards(fed_dir, capsys):
    for cluster in ("ranger", "lonestar4", "ranger-b"):
        assert _dump(f"{fed_dir}/{cluster}.sqlite")["jobs"]
    # Re-running without --append refuses to clobber the shards.
    rc = simulate_main(["--federation", fed_dir, *KNOBS, "--quiet"])
    assert rc != 0
    assert "use --append" in capsys.readouterr().err


def test_simulate_prints_overview(tmp_path, capsys):
    root = str(tmp_path / "fed")
    rc = simulate_main(["--clusters", "ranger,lonestar4",
                        "--federation", root, "--nodes", "6",
                        "--days", "1", "--users", "8", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FEDERATION OVERVIEW — 2 clusters" in out
    assert "[ranger]" in out and "[lonestar4]" in out


def test_simulate_federation_flag_validation(fed_dir, tmp_path, capsys):
    cases = [
        (["--clusters", "ranger"], "--clusters requires --federation"),
        (["--federation", str(tmp_path / "none")], "pass --clusters"),
        (["--clusters", "ranger", "--federation", str(tmp_path / "x"),
          "--warehouse", "w.sqlite"], "different modes"),
        (["--clusters", "ranger", "--federation", str(tmp_path / "x"),
          "--archive", "a/"], "--with-archives instead"),
        (["--clusters", "ranger", "--federation", str(tmp_path / "x"),
          "--no-syslog", "--with-archives"], "--no-syslog is fast-path"),
        (["--clusters", "ranger", "--federation", str(tmp_path / "x"),
          "--policy", "fcfs"], "--policy is not supported"),
        (["--clusters", "ranger", "--federation", str(tmp_path / "x"),
          "--appkernels"], "--appkernels is not supported"),
        (["--clusters", "bogus", "--federation", str(tmp_path / "x")],
         "unknown archetype"),
        (["--clusters", "ranger,stampede", "--federation", fed_dir],
         "does not match"),
        (["--with-archives"], "federation-mode flag"),
        *_archive_only_rows(["--clusters", "ranger", "--federation",
                             str(tmp_path / "x")], "--with-archives"),
    ]
    for argv, needle in cases:
        rc = simulate_main(argv + ["--quiet"])
        assert rc == 2, argv
        assert needle in capsys.readouterr().err, argv
    assert not (tmp_path / "x").exists()


def test_simulate_archive_federation_with_append(tmp_path, capsys):
    """The slow path: per-shard archives + ledgers, windowed ingest,
    then an --append run that folds in the remaining day."""
    root = str(tmp_path / "fed")
    base = ["--federation", root, "--nodes", "4", "--days", "2",
            "--users", "6", "--seed", "3", "--with-archives"]
    rc = simulate_main(["--clusters", "test=ranger", *base,
                        "--ingest-days", "1", "--quiet"])
    assert rc == 0
    rc = simulate_main([*base, "--append"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ingest delta (append)" in out
    # The shard's ledger is visible through repro-diagnose.
    rc = diagnose_main(["--federation", root, "--ledger"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Ingest ledger — test" in out
    assert "append" in out


# -- byte identity -----------------------------------------------------------


def test_single_cluster_federation_matches_legacy_path(tmp_path, capsys):
    """MUST-preserve acceptance: one-cluster federation == legacy
    single-warehouse run, row for row and report for report."""
    root = str(tmp_path / "fed")
    legacy = str(tmp_path / "legacy.sqlite")
    rc = simulate_main(["--clusters", "ranger", "--federation", root,
                        *KNOBS, "--quiet"])
    assert rc == 0
    rc = simulate_main(["--system", "ranger", "--warehouse", legacy,
                        *KNOBS, "--quiet"])
    assert rc == 0
    assert _dump(f"{root}/ranger.sqlite") == _dump(legacy)

    rc = report_main(["--federation", root, "--cluster", "ranger",
                      "support"])
    assert rc == 0
    fed_text = capsys.readouterr().out
    rc = report_main(["--warehouse", legacy, "--system", "ranger",
                      "support"])
    assert rc == 0
    assert fed_text == capsys.readouterr().out


def _ledger(path: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT host, day, sha256, status, open_jobs FROM ingest_ledger "
            "ORDER BY host, day").fetchall()
    finally:
        conn.close()


def _system_lines(out: str, path: str) -> list[str]:
    """What a run printed for its system, through the ``warehouse:``
    line, with the elapsed seconds and the file name masked."""
    lines = out.splitlines()
    block = lines[:lines.index(f"warehouse: {path}") + 1]
    return [re.sub(r"\(\d+\.\ds\)$", "(…s)", line).replace(path, "FILE")
            for line in block]


SIMULATE_ROWS = {
    "fast": [[]],
    "archive": [["ARCHIVE"]],
    "ingest-days-then-append": [["ARCHIVE", "--ingest-days", "1"],
                                ["ARCHIVE", "--append"]],
}


@pytest.mark.parametrize("steps", SIMULATE_ROWS.values(),
                         ids=SIMULATE_ROWS.keys())
def test_both_spellings_of_a_simulate_run_agree(tmp_path, steps):
    """``--clusters X --federation D`` == ``--system X --warehouse F``,
    step for step: data tables, ledger rows and the lines printed for
    the system.  (The write-side twin of
    ``test_both_spellings_of_a_shard_print_the_same``.)"""
    root = str(tmp_path / "fed")
    legacy = str(tmp_path / "legacy.sqlite")
    knobs = ["--nodes", "4", "--days", "2", "--users", "6", "--seed", "5"]
    for i, step in enumerate(steps):
        fed_flags = ["--with-archives" if f == "ARCHIVE" else f
                     for f in step]
        plain_flags = [a for f in step for a in (
            ["--archive", str(tmp_path / "arch")] if f == "ARCHIVE"
            else [f])]
        members = ["--clusters", "ranger"] if i == 0 else []
        rc, fed_out, err = _run(simulate_main, [
            *members, "--federation", root, *knobs, *fed_flags])
        assert (rc, err) == (0, ""), err
        rc, plain_out, err = _run(simulate_main, [
            "--system", "ranger", "--warehouse", legacy, *knobs,
            *plain_flags])
        assert (rc, err) == (0, ""), err
        shard = f"{root}/ranger.sqlite"
        printed = _system_lines(plain_out, legacy)
        assert len(printed) == len(plain_out.splitlines())
        assert _system_lines(fed_out, shard) == printed
        assert _dump(shard) == _dump(legacy)
        assert _ledger(shard) == _ledger(legacy)
        assert bool(_ledger(legacy)) == ("ARCHIVE" in step)


def test_aliased_shards_draw_distinct_workloads(fed_dir):
    """ranger and ranger-b share an archetype and seed but not data."""
    assert _dump(f"{fed_dir}/ranger.sqlite")["jobs"] != \
        _dump(f"{fed_dir}/ranger-b.sqlite")["jobs"]


# -- report ------------------------------------------------------------------


def test_report_federation_kind(fed_dir, capsys):
    rc = report_main(["--federation", fed_dir, "federation"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FEDERATION OVERVIEW — 3 clusters" in out
    assert "TOTAL" in out


def test_report_routed_to_cluster(fed_dir, capsys):
    rc = report_main(["--federation", fed_dir, "--cluster", "ranger-b",
                      "admin"])
    assert rc == 0
    assert "SYSTEMS ADMIN REPORT — ranger-b" in capsys.readouterr().out


def test_report_federation_flag_validation(fed_dir, capsys):
    cases = [
        (["federation"], "needs --federation"),
        (["--federation", fed_dir, "--warehouse", "w.sqlite",
          "federation"], "different modes"),
        (["--federation", fed_dir, "support"], "needs --cluster"),
        (["--federation", fed_dir, "--cluster", "nope", "support"],
         "not in federation"),
        (["--federation", fed_dir, "federation", "extra"], "no target"),
    ]
    for argv, needle in cases:
        rc = report_main(argv)
        assert rc != 0, argv
        assert needle in capsys.readouterr().err, argv


# -- diagnose ----------------------------------------------------------------


def test_diagnose_federation_requires_cluster_for_ancor(fed_dir, capsys):
    rc = diagnose_main(["--federation", fed_dir])
    assert rc != 0
    assert "needs --cluster" in capsys.readouterr().err
    rc = diagnose_main(["--federation", fed_dir, "--cluster", "ranger"])
    assert rc == 0


def test_diagnose_federation_ingest_health_all_shards(fed_dir, capsys):
    rc = diagnose_main(["--federation", fed_dir, "--ingest-health"])
    assert rc == 0
    out = capsys.readouterr().out
    # Fast-path shards have no ingest-health record; one line each.
    assert out.count("no ingest-health record") == 3


def test_diagnose_federation_flag_validation(fed_dir, capsys):
    rc = diagnose_main(["--federation", fed_dir, "--warehouse", "w",
                        "--system", "s"])
    assert rc != 0
    assert "different modes" in capsys.readouterr().err
    rc = diagnose_main(["--federation", fed_dir, "--cluster", "nope",
                        "--ledger"])
    assert rc != 0
    assert "not in federation" in capsys.readouterr().err


# -- serve -------------------------------------------------------------------


def test_serve_requires_exactly_one_source(fed_dir, capsys):
    rc = serve_main([])
    assert rc != 0
    assert "exactly one" in capsys.readouterr().err
    rc = serve_main(["--warehouse", "w.sqlite", "--federation", fed_dir])
    assert rc != 0
    assert "exactly one" in capsys.readouterr().err


def test_serve_rejects_missing_federation(tmp_path, capsys):
    rc = serve_main(["--federation", str(tmp_path / "nope")])
    assert rc != 0
    assert "cannot open federation" in capsys.readouterr().err


# -- two spellings of one shard ---------------------------------------------


@pytest.fixture(scope="module")
def twins(fed_dir, tmp_path_factory) -> dict:
    """What the two spellings are asked about: the fast-path federation
    for reports (only ``Facility.run`` writes the series the admin
    report reads), one built through archives for ``repro-diagnose``
    (so there is a ledger to print and verify), and names in each."""
    slow = str(tmp_path_factory.mktemp("cli_twins") / "fed")
    rc = simulate_main(["--clusters", "ranger,lonestar4", "--federation",
                        slow, "--nodes", "4", "--days", "2", "--users",
                        "6", "--seed", "5", "--with-archives", "--quiet"])
    assert rc == 0
    names = {"fast": fed_dir, "slow": slow}
    wh = Warehouse(f"{fed_dir}/ranger.sqlite")
    query = JobQuery(wh, "ranger")
    names.update(user=query.top("user", 1)[0], app=query.top("app", 1)[0])
    wh.close()
    wh = Warehouse(f"{slow}/ranger.sqlite")
    names["job"] = str(JobQuery(wh, "ranger").column("jobid")[0])
    wh.close()
    return names


def _run(main, argv) -> tuple[int, str, str]:
    """One in-process tool run on a private metrics registry (the
    ``--cache-stats`` line prints process-wide counters)."""
    out, err = io.StringIO(), io.StringIO()
    with use_registry(MetricsRegistry()), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


REPORT_ROWS = [("fast", report_main, [*kind, *flags])
               for kind in (["support"], ["admin"], ["user", "{user}"],
                            ["developer", "{app}"])
               for flags in ([], ["--cache-stats"])]
DIAGNOSE_ROWS = [("slow", diagnose_main, flags) for flags in (
    [], ["--associations"], ["--job", "{job}"], ["--ledger"],
    ["--ingest-health"], ["--verify", "{slow}/archives/ranger"])]


@pytest.mark.parametrize(
    "which, main, row", REPORT_ROWS + DIAGNOSE_ROWS,
    ids=[f"{main.__module__.rsplit('.', 1)[1]} {' '.join(row)}"
         for _which, main, row in REPORT_ROWS + DIAGNOSE_ROWS])
def test_both_spellings_of_a_shard_print_the_same(twins, which, main, row):
    """``--federation D --cluster C`` == ``--warehouse D/C.sqlite
    --system C``, flag for flag: stdout and exit status.  (At PR 22's
    parent ``--verify`` and ``--cache-stats`` were silently ignored
    under ``--federation``.)"""
    root = twins[which]
    flags = [part.format(**twins) for part in row]
    routed = _run(main, ["--federation", root, "--cluster", "ranger",
                         *flags])
    direct = _run(main, ["--warehouse", f"{root}/ranger.sqlite",
                         "--system", "ranger", *flags])
    assert routed == direct
    assert direct[0] == 0 and direct[1] and not direct[2]
    if "--verify" in row:
        assert "no differences" in direct[1]
    if "--cache-stats" in row:
        assert "\ncache: " in direct[1]


def test_verify_needs_one_shard_never_a_silent_zero(twins):
    rc, out, err = _run(diagnose_main, [
        "--federation", twins["slow"],
        "--verify", f"{twins['slow']}/archives/ranger"])
    assert rc == 2 and not out
    assert "--verify needs --cluster" in err


def test_serve_missing_federation_leaves_nothing_behind(tmp_path, capsys):
    """The flag decides what kind of store is opened, never the path:
    a mistyped directory handed to SQLite would be *created* as an
    empty database and reported as "holds no systems"."""
    rc = serve_main(["--federation", str(tmp_path / "nope")])
    assert rc != 0
    assert "cannot open federation" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
