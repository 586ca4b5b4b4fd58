"""Simulate a whole federation: N facilities, one shard each.

:class:`FederatedFacility` drives one
:class:`~repro.facility.Facility` per member cluster into that
cluster's own warehouse shard (and, on the slow path, its own stats
archive with its own ingest ledger).  Per-shard work reuses the
existing machinery verbatim — the PR 1 process-parallel node replay
and the PR 5 ledger-driven incremental ingest both run *inside* a
shard — and ``shard_workers > 1`` additionally fans whole shards out
over a process pool (each shard is a disjoint file set with fully
seeded RNG streams, so the fan-out is deterministic and
embarrassingly parallel).

Byte-identity invariant: a one-cluster federation executes exactly the
calls ``repro-simulate`` makes for a plain warehouse — same config,
same seed, same ingest knobs — so the shard file's rows are identical
to the legacy single-warehouse output
(``test_single_cluster_federation_matches_legacy_path``).
"""

from __future__ import annotations

import dataclasses
from contextlib import closing
from dataclasses import dataclass

from repro.config import FacilityConfig
from repro.facility import Facility
from repro.federation.layout import FederationLayout, ShardSpec
from repro.ingest.warehouse import Warehouse
from repro.telemetry.metrics import get_registry
from repro.util.timeutil import DAY

__all__ = ["ClusterPlan", "FederatedFacility"]


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


def _run_shard(cluster: str, config: FacilityConfig, seed: int,
               warehouse_path: str, archive_dir: str | None,
               knobs: dict) -> dict:
    """Simulate + ingest one shard (module-level: runs in pool workers).

    Mirrors the ``repro-simulate`` main-path calls exactly, which is
    what the single-cluster byte-identity invariant rests on.
    """
    # What is not a run_with_files argument under its own name; the
    # rest forward as they are, so a default lives in one signature.
    knobs = dict(knobs)
    append = knobs.pop("append", False)
    through_day = knobs.pop("through_day", None)
    with_syslog = knobs.pop("with_syslog", True)
    fast_writes = knobs.pop("fast_writes", False)
    facility = Facility(config, seed=seed)
    with closing(Warehouse(warehouse_path,
                           fast_writes=fast_writes)) as warehouse:
        if config.name in warehouse.systems() and not append:
            raise ValueError(
                f"system {config.name!r} already present in shard "
                f"{warehouse_path}; use append=True to extend it")
        if archive_dir is not None:
            run = facility.run_with_files(
                archive_dir, warehouse=warehouse,
                ingest_mode="append" if append else "full",
                ingest_through_day=through_day, **knobs)
        else:
            run = facility.run(warehouse=warehouse, with_syslog=with_syslog)
        q = run.query()
        report = run.ingest_report
        return {
            "cluster": cluster,
            "system": config.name,
            "warehouse": warehouse_path,
            "jobs": len(run.records),
            "summarized": len(q),
            "node_hours": q.node_hours,
            "efficiency": 1.0 - q.weighted_mean("cpu_idle"),
            "mode": report.mode if report is not None else "fast",
            "delta": (str(report.delta)
                      if report is not None and report.delta is not None
                      else None),
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

    def run(self, archive: bool = False, shard_workers: int = 1,
            **knobs) -> dict[str, dict]:
        """Run every shard; returns ``{cluster: summary dict}``.

        *archive* selects the slow path (per-cluster stats archive +
        ledger ingest, required for later ``append=True`` runs).
        ``shard_workers > 1`` fans shards over a process pool; the
        remaining *knobs* (``workers``, ``ingest_workers``,
        ``batch_size``, ``error_policy``, ``max_retries``, ``append``,
        ``through_day``, ``archive_format``, ``synthesis``,
        ``fast_writes``, ``with_syslog``) forward to each shard's run
        exactly as ``repro-simulate`` would pass them; on the slow path
        a name ``run_with_files`` does not take is a ``TypeError``."""
        if shard_workers < 1:
            raise ValueError("shard_workers must be >= 1")
        if knobs.get("append") and not archive:
            raise ValueError("append=True needs archive=True (the ledger "
                             "lives with the archive path)")
        jobs = []
        for cluster in self.layout.clusters:
            plan = self.plans[cluster]
            jobs.append((
                cluster,
                plan.effective_config(),
                plan.seed,
                self.layout.warehouse_path(cluster),
                self.layout.archive_path(cluster) if archive else None,
                knobs,
            ))

        registry = get_registry()
        registry.counter("federation.ingest.shards").inc(len(jobs))
        if shard_workers == 1 or len(jobs) == 1:
            results = [_run_shard(*job) for job in jobs]
        else:
            import multiprocessing

            with multiprocessing.Pool(min(shard_workers, len(jobs))) as pool:
                results = pool.starmap(_run_shard, jobs)
        out = {}
        for summary in results:
            registry.counter(
                f"federation.ingest.{summary['cluster']}.jobs").inc(
                summary["jobs"])
            out[summary["cluster"]] = summary
        return out
