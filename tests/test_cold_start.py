"""Process start is proportional to what the process does.

A serving or reporting process is a fresh interpreter every time (cron
job, admin shell, ``repro-serve`` restart), so its import graph *is*
its cold start.  These tests pin the graph, not the clock: what each
read-side entry point may load, that nothing more is loaded by the
first request of each kind, and that every lazily published package
name still resolves.  All deterministic — no wall-clock assertion.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import LONESTAR4, RANGER
from repro.federation import ClusterPlan, FederatedFacility
from tests.conftest import ROOT, SUBPROCESS_ENV

#: The write side, by module-name prefix: nothing a process that only
#: reads a warehouse may import.
WRITE_SIDE = (
    "scipy",
    "repro.facility",
    "repro.workload.behavior", "repro.workload.phases",
    "repro.workload.generator",
    "repro.scheduler.engine",
    "repro.tacc_stats.collectors", "repro.tacc_stats.synth",
    "repro.tacc_stats.parser",
    "repro.ingest.pipeline", "repro.ingest.parallel",
    "repro.ingest.columnar_scan",
    "repro.syslogr", "repro.lariat", "repro.testing",
)
MAX_REPRO_MODULES = 60

LAZY_PACKAGES = (
    "repro", "repro.cli", "repro.util", "repro.ingest", "repro.tacc_stats",
    "repro.xdmod", "repro.live", "repro.federation", "repro.scheduler",
    "repro.workload", "repro.cluster", "repro.service", "repro.telemetry",
)


def _python(code: str, *args: str) -> list[str]:
    """Run *code* in a fresh interpreter; it prints a JSON list."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=SUBPROCESS_ENV, capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _is_ours(name: str) -> bool:
    return name == "repro" or name.startswith(("repro.", "scipy"))


@pytest.mark.parametrize(
    "tool", ["serve", "report", "top", "export", "persistence"])
def test_read_side_entry_point_import_budget(tool):
    loaded = _python(
        "import json, sys\n"
        f"import repro.cli.{tool}\n"
        "print(json.dumps(sorted(sys.modules)))")
    ours = [m for m in loaded if _is_ours(m)]
    write_side = [m for m in ours
                  if any(m == p or m.startswith(p + ".") for p in WRITE_SIDE)]
    assert write_side == []
    assert len([m for m in ours if m.startswith("repro")]) \
        <= MAX_REPRO_MODULES, ours


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_of_a_lazy_package_resolves(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        scope: dict = {}
        exec(f"from {package} import {name}", scope)
        assert scope[name] is getattr(module, name)
        assert name in listed, f"{package}.{name} missing from dir()"
    with pytest.raises(AttributeError):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


@pytest.fixture(scope="module")
def federation_root(tmp_path_factory) -> Path:
    """A two-cluster on-disk federation; each shard file doubles as a
    plain ``--warehouse``."""
    root = tmp_path_factory.mktemp("cold_start") / "fed"
    plans = [
        ClusterPlan("ranger", RANGER.scaled(8, 2, n_users=10), 7),
        ClusterPlan("lonestar4", LONESTAR4.scaled(6, 2, n_users=8), 21),
    ]
    FederatedFacility.plan(str(root), plans).run()
    return root


#: Opens a ServiceState, notes what is loaded, sends one request to
#: every endpoint and every report kind, prints what appeared since.
_REQUEST_EVERYTHING = """
import json, sys
from repro.service.protocol import ServiceError
from repro.service.state import ALL_SYSTEMS, REPORT_KINDS, ServiceState

state = ServiceState(**{sys.argv[1]: sys.argv[2]})
before = set(sys.modules)

def ask(method, *args, **kwargs):
    try:
        return getattr(state, method)(*args, **kwargs)
    except ServiceError as e:     # e.g. not_federated: still a request
        return {"error": e.code}

system = sorted(state.systems()["systems"])[-1]
top = {dim: ask("group_by", system, dim, ())["groups"][0]["key"]
       for dim in ("user", "app")}
targets = {"user": top["user"], "developer": top["app"]}
answers = [ask("report", kind, system, targets.get(kind))
           for kind in REPORT_KINDS]
answers += [
    ask("report", "nope", system, None),
    ask("health"), ask("clusters"), ask("federation_overview"),
    ask("group_by", system, "queue", ("cpu_idle",)),
    ask("group_by", ALL_SYSTEMS, "cluster,app", None),
    ask("timeseries", system, "active_nodes"),
    ask("timeseries", ALL_SYSTEMS, "flops_tf"),
    ask("live_top", system), ask("live_top", system),
    ask("live_watch", system, None, 0.0),
    ask("refresh"),
]
state.snapshot_age_seconds()
state.close()
assert all(isinstance(a, dict) for a in answers)
assert not any("error" in a for a in answers[:len(REPORT_KINDS)]), answers
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("mode", ["warehouse_path", "federation_root"])
def test_no_module_is_imported_on_a_request_path(federation_root, mode):
    source = (federation_root if mode == "federation_root"
              else federation_root / "ranger.sqlite")
    appeared = _python(_REQUEST_EVERYTHING, mode, str(source))
    assert [m for m in appeared if _is_ours(m)] == []
