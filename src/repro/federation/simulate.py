"""Simulate one system into one warehouse file, or a federation of them.

:func:`simulate_system` is the one write path: it runs one facility's
study period into one warehouse file — through the stats archive and
the ledger-driven ingest when given an archive directory, the
in-memory fast path otherwise — and returns what ``repro-simulate``
prints for the system.  ``repro-simulate --warehouse F`` calls it once;
:class:`FederatedFacility` calls it once per member cluster, serially,
each into that cluster's shard (and archive, with its own ingest
ledger).  Parallelism lives inside a shard: the process-parallel node
replay (``workers``) and host parsing (``ingest_workers``).

A one-cluster federation is therefore the plain run by construction:
same config, same seed, same knobs, same function, so the shard file's
rows are identical to the single-warehouse output
(``test_single_cluster_federation_matches_legacy_path``,
``test_both_spellings_of_a_simulate_run_agree``).
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import closing
from dataclasses import dataclass

from repro.config import FacilityConfig
from repro.facility import Facility
from repro.federation.layout import FederationLayout, ShardSpec
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import DAY

__all__ = ["ClusterPlan", "FederatedFacility", "open_for_write",
           "simulate_system"]


@dataclass(frozen=True)
class ClusterPlan:
    """One member cluster: a (possibly renamed) config plus its seed.

    When ``cluster`` differs from ``config.name`` (two shards of the
    same archetype, e.g. ``ranger-a``/``ranger-b``) the config is
    renamed, which also re-keys the RNG streams — the two shards draw
    independent workloads.
    """

    cluster: str
    config: FacilityConfig
    seed: int

    def effective_config(self) -> FacilityConfig:
        """The config actually simulated (renamed to the cluster)."""
        if self.cluster == self.config.name:
            return self.config
        return dataclasses.replace(self.config, name=self.cluster)


def open_for_write(system: str, path: str, append: bool = False) -> Warehouse:
    """Open the warehouse file *path* to write *system* into; a file
    that already holds the system is refused (``ValueError``, handle
    closed) unless *append*."""
    warehouse = Warehouse(path)
    if system in warehouse.systems() and not append:
        warehouse.close()
        raise ValueError(f"system {system!r} already present in {path}; "
                         f"use --append to ingest incrementally, or a "
                         f"fresh file or another system")
    return warehouse


def simulate_system(facility: Facility, warehouse_path: str,
                    archive_dir: str | None = None, *,
                    append: bool = False, through_day: int | None = None,
                    with_syslog: bool = True,
                    **file_knobs) -> dict:
    """Run *facility*'s study period into the warehouse file.

    With *archive_dir* the daemons write the stats archive there and the
    ingest reads it back (``Facility.run_with_files``: the ingest diffs
    it against the file's ledger up to the newest file on disk with
    *append*, up to day *through_day* for a seed, else with no window
    end; *file_knobs* — ``workers``, ``ingest_workers``,
    ``error_policy``, ``max_retries``, ``archive_format`` — forward
    under their own names); without, the fast path runs
    (``Facility.run``, *with_syslog*).  Returns what is printed for the
    system: ``system``, ``warehouse``, ``jobs``, ``summarized``,
    ``node_hours``, ``efficiency``, ``seconds`` (wall time),
    ``archive_stats`` and ``ingest_report`` (``None`` on the fast path).
    """
    if append and archive_dir is None:
        raise ValueError("append=True needs an archive (the ledger lives "
                         "with the archive path)")
    started = time.perf_counter()
    name = facility.config.name
    with closing(open_for_write(name, warehouse_path, append)) as warehouse:
        if archive_dir is None:
            run = facility.run(warehouse=warehouse, with_syslog=with_syslog)
        else:
            run = facility.run_with_files(
                archive_dir, warehouse=warehouse,
                ingest_mode="append" if append else "full",
                ingest_through_day=through_day, **file_knobs)
        q = run.query()
        return {
            "system": name,
            "warehouse": warehouse_path,
            "jobs": len(run.records),
            "summarized": len(q),
            "node_hours": q.node_hours,
            "efficiency": 1.0 - q.weighted_mean("cpu_idle"),
            "seconds": time.perf_counter() - started,
            "archive_stats": run.archive_stats,
            "ingest_report": run.ingest_report,
        }


class FederatedFacility:
    """Simulates every member cluster of a federation into its shard."""

    def __init__(self, layout: FederationLayout, plans: list[ClusterPlan]):
        names = sorted(p.cluster for p in plans)
        if names != layout.clusters:
            raise ValueError(f"plans {names} do not match federation "
                             f"clusters {layout.clusters}")
        self.layout = layout
        self.plans = {p.cluster: p for p in plans}

    @classmethod
    def plan(cls, root: str, plans: list[ClusterPlan],
             ) -> "FederatedFacility":
        """Create the federation directory + manifest from the plans."""
        shards = [
            ShardSpec(cluster=p.cluster, system=p.config.name, seed=p.seed,
                      nodes=p.config.num_nodes,
                      days=p.config.horizon / DAY,
                      users=p.config.n_users)
            for p in plans
        ]
        return cls(FederationLayout.create(root, shards), plans)

    def run(self, archive: bool = False, **knobs) -> dict[str, dict]:
        """Run every shard, one after another, through
        :func:`simulate_system`; returns ``{cluster: what it returned}``.

        *archive* selects the slow path (per-cluster stats archive +
        ledger ingest, required for later ``append=True`` runs); *knobs*
        are :func:`simulate_system`'s, passed to every shard alike."""
        registry = get_registry()
        out = {}
        for cluster in self.layout.clusters:
            plan = self.plans[cluster]
            out[cluster] = summary = simulate_system(
                Facility(plan.effective_config(), seed=plan.seed),
                self.layout.warehouse_path(cluster),
                self.layout.archive_path(cluster) if archive else None,
                **knobs)
            registry.counter("federation.ingest.shards").inc()
            registry.counter(f"federation.ingest.{cluster}.jobs").inc(
                summary["jobs"])
        return out
