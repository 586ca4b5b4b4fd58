"""Per-stakeholder report generators (paper §4.3).

One class per stakeholder, each producing (a) structured data and (b) a
rendered plain-text report built from the shared analytics:

* :class:`UserReport` — own usage profile vs facility average, anomalous
  patterns, failure profile (§4.3.1);
* :class:`DeveloperReport` — an application's comparative profile and
  per-system variability (§4.3.2, Figure 3);
* :class:`SupportStaffReport` — wasted node-hours, the circled outlier
  and its profile (§4.3.3, Figures 4/5);
* :class:`AdminReport` — workload characterization, failure diagnostics,
  persistence forecast (§4.3.4, Table 1);
* :class:`ResourceManagerReport` — system-level resource-use reports
  (§4.3.5, Figures 7-12);
* :class:`FundingAgencyReport` — by-science-field accountability rollups
  (§4.3.6).

All reports on one warehouse share the columnar
:class:`~repro.xdmod.snapshot.WarehouseSnapshot` (one warehouse scan
for the whole bouquet) and memoize their rendered text on it, keyed by
``(report kind, system, target)``; an ingest commit moves the
warehouse's generation stamp and retires every cached report at once.
"""

from __future__ import annotations


import numpy as np

from repro.ingest.warehouse import Warehouse
from repro.telemetry.trace import span
from repro.util.tables import render_kv, render_table
from repro.util.textchart import radar_text, scatter_text, series_text
from repro.xdmod.characterization import WorkloadCharacterization
from repro.xdmod.efficiency import EfficiencyAnalysis
from repro.xdmod.persistence import PersistenceAnalysis
from repro.xdmod.profiles import Profile, UsageProfiler
from repro.xdmod.query import JobQuery
from repro.xdmod.scheduling import SchedulingAnalysis
from repro.xdmod.snapshot import WarehouseSnapshot
from repro.xdmod.timeseries import SystemTimeseries

__all__ = [
    "UserReport",
    "DeveloperReport",
    "SupportStaffReport",
    "AdminReport",
    "ResourceManagerReport",
    "FundingAgencyReport",
    "REPORT_KINDS",
    "NEEDS_TARGET",
]


def _profile_block(profile: Profile, title: str) -> str:
    return f"{title}\n{radar_text(profile.values)}"


class _BaseReport:
    def __init__(self, warehouse: Warehouse, system: str,
                 snapshot: WarehouseSnapshot | None = None):
        self.warehouse = warehouse
        self.system = system
        # Passing an explicit snapshot pins the whole report (and every
        # sub-query) to one frozen view; the service layer does this so
        # a report never straddles a mid-request refresh.
        self._snapshot = (snapshot if snapshot is not None
                          else WarehouseSnapshot.for_warehouse(warehouse))
        self.query = JobQuery(warehouse, system, snapshot=self._snapshot)
        self.profiler = UsageProfiler(self.query)

    def render(self, *target: str) -> str:
        """The rendered report, memoized per (kind, system, target) on
        the warehouse snapshot."""
        key = ("report", type(self).__name__, self.system, target)

        def compute() -> str:
            # Only a cache miss opens a span: a memo hit costs nothing
            # and would drown the trace tree in no-op entries.
            with span("report.render", kind=type(self).__name__,
                      system=self.system):
                return self._render(*target)

        return self._snapshot.cached(key, compute)


class UserReport(_BaseReport):
    """§4.3.1: resource-use profile, anomalies and failures for one user."""

    def generate(self, user: str) -> dict:
        profile = self.profiler.profile("user", user)
        sub = self.query.filter(user=user)
        exits = sub.group_by("exit_status", metrics=())
        failure_profile = {g.key: g.job_count for g in exits}
        completed = failure_profile.get("completed", 0)
        total = sum(failure_profile.values())
        return {
            "user": user,
            "profile": profile,
            "job_count": len(sub),
            "node_hours": sub.node_hours,
            "anomalous_metrics": profile.anomalous(),
            "failure_profile": failure_profile,
            "completion_rate": completed / total if total else float("nan"),
        }

    def _render(self, user: str) -> str:
        d = self.generate(user)
        parts = [
            render_kv(
                {
                    "user": user,
                    "jobs": d["job_count"],
                    "node hours": f"{d['node_hours']:.1f}",
                    "completion rate": f"{d['completion_rate']:.1%}",
                },
                title=f"USER REPORT — {user} on {self.system}",
            ),
            _profile_block(d["profile"],
                           "usage vs facility average (1.0 = typical):"),
        ]
        if d["anomalous_metrics"]:
            parts.append(
                "ANOMALOUS (>=3x facility average): "
                + ", ".join(
                    f"{m} ({v:.1f}x)"
                    for m, v in d["anomalous_metrics"].items()
                )
            )
        return "\n\n".join(parts)


class DeveloperReport(_BaseReport):
    """§4.3.2: an application's comparative profile (Figure 3's data)."""

    def generate(self, app: str) -> dict:
        profile = self.profiler.profile("app", app)
        sub = self.query.filter(app=app)
        idle = sub.column("cpu_idle")
        return {
            "app": app,
            "profile": profile,
            "job_count": len(sub),
            "node_hours": sub.node_hours,
            "users": len(np.unique(sub.column("user"))),
            "cpu_idle_mean": float(idle.mean()),
            "cpu_idle_std": float(idle.std()),
            "abnormal_rate": float(
                (sub.column("exit_status") != "completed").mean()
            ),
        }

    def _render(self, app: str) -> str:
        d = self.generate(app)
        return "\n\n".join([
            render_kv(
                {
                    "application": app,
                    "jobs": d["job_count"],
                    "distinct users": d["users"],
                    "node hours": f"{d['node_hours']:.1f}",
                    "cpu idle": f"{d['cpu_idle_mean']:.1%} "
                                f"(± {d['cpu_idle_std']:.1%})",
                    "abnormal exits": f"{d['abnormal_rate']:.1%}",
                },
                title=f"DEVELOPER REPORT — {app} on {self.system}",
            ),
            _profile_block(d["profile"],
                           "usage vs facility average (1.0 = typical):"),
        ])

    def compare_systems(self, app: str,
                        other: "DeveloperReport") -> dict[str, Profile]:
        """Figure 3: the same code's profile on two systems."""
        return {
            self.system: self.generate(app)["profile"],
            other.system: other.generate(app)["profile"],
        }


class SupportStaffReport(_BaseReport):
    """§4.3.3: Figure 4's scatter plus the circled user's Figure 5 profile."""

    def generate(self) -> dict:
        eff = EfficiencyAnalysis(self.query)
        worst = eff.worst_heavy_user()
        return {
            "efficiency": eff,
            "facility_efficiency": eff.facility_efficiency,
            "worst_user": worst,
            "worst_profile": self.profiler.profile("user", worst.user),
            "users_above_line": eff.users_above_line(),
        }

    def _render(self) -> str:
        d = self.generate()
        eff: EfficiencyAnalysis = d["efficiency"]
        x, y, _ = eff.scatter()
        worst = d["worst_user"]
        parts = [
            render_kv(
                {
                    "facility efficiency": f"{d['facility_efficiency']:.1%}",
                    "users above line": len(d["users_above_line"]),
                    "circled user": worst.user,
                    "circled idle fraction": f"{worst.idle_fraction:.1%}",
                    "circled node hours": f"{worst.node_hours:.0f}",
                },
                title=f"SUPPORT STAFF REPORT — {self.system}",
            ),
            "wasted vs total node-hours per user (log-log; O = circled):\n"
            + scatter_text(
                x, y, logx=True, logy=True,
                overlay={(worst.node_hours, worst.wasted_node_hours): "O"},
            ),
            _profile_block(d["worst_profile"],
                           f"circled user {worst.user} profile:"),
        ]
        return "\n\n".join(parts)


class AdminReport(_BaseReport):
    """§4.3.4: workload characterization, failures, scheduling
    effectiveness, persistence forecast."""

    def generate(self) -> dict:
        exits = self.query.group_by("exit_status", metrics=())
        queues = self.query.group_by("queue", metrics=("cpu_idle",))
        persistence = PersistenceAnalysis(self.warehouse, self.system,
                                          snapshot=self._snapshot)
        characterization = WorkloadCharacterization(self.query)
        return {
            "exit_profile": {g.key: g.job_count for g in exits},
            "queues": queues,
            "persistence_table": persistence.table(),
            "combined_fit": persistence.combined_fit(),
            "size_spectrum": characterization.size_spectrum(),
            "concentration": characterization.concentration(),
            "scheduling": SchedulingAnalysis(self.query).by_size(),
        }

    def _render(self) -> str:
        d = self.generate()
        rows = []
        for row in d["persistence_table"]:
            r = {"metric": row.metric}
            r.update({
                f"{off}min": f"{ratio:.3f}"
                for off, ratio in zip(row.offsets_min, row.ratios)
            })
            r["fit R^2"] = f"{row.fit_r_squared:.3f}"
            rows.append(r)
        cols = ["metric"] + [f"{o}min" for o in d["persistence_table"][0].offsets_min] + ["fit R^2"]
        size_rows = [
            {"nodes": b.label, "jobs": b.job_count,
             "node-hour share": f"{b.node_hour_share:.1%}"}
            for b in d["size_spectrum"]
        ]
        sched_rows = [
            {"class": c.key, "jobs": c.job_count,
             "median wait (h)": f"{c.median_wait_h:.2f}",
             "bounded slowdown": f"{c.mean_bounded_slowdown:.1f}"}
            for c in d["scheduling"]
        ]
        conc = d["concentration"]
        return "\n\n".join([
            render_kv(
                {
                    "exit profile": ", ".join(
                        f"{k}={v}" for k, v in sorted(d["exit_profile"].items())
                    ),
                    "combined persistence fit": d["combined_fit"].summary(),
                    "usage concentration": (
                        f"top 5% of users hold "
                        f"{conc['top_5pct_share']:.0%} of node-hours "
                        f"(Gini {conc['gini']:.2f})"
                    ),
                },
                title=f"SYSTEMS ADMIN REPORT — {self.system}",
            ),
            render_table(rows, cols, title="Persistence (Table 1)"),
            render_table(size_rows, ["nodes", "jobs", "node-hour share"],
                         title="Job-size spectrum"),
            render_table(sched_rows,
                         ["class", "jobs", "median wait (h)",
                          "bounded slowdown"],
                         title="Scheduling effectiveness by size class"),
        ])


class ResourceManagerReport(_BaseReport):
    """§4.3.5: system-level resource-use reports (Figures 7-12 data)."""

    def generate(self) -> dict:
        ts = SystemTimeseries(self.warehouse, self.system,
                              snapshot=self._snapshot)
        by_field = self.query.group_by(
            "science_field", metrics=("mem_used", "cpu_idle")
        )
        info = self.warehouse.system_info(self.system)
        return {
            "timeseries": ts,
            "by_field": by_field,
            "mem_per_core_by_field": {
                g.key: g.mean("mem_used") / info["cores_per_node"]
                for g in by_field
            },
            "flops_fraction_of_peak": ts.flops_fraction_of_peak(),
            "memory_fraction": ts.memory_fraction_of_capacity(),
        }

    def _render(self) -> str:
        d = self.generate()
        ts: SystemTimeseries = d["timeseries"]
        active = ts.active_nodes()
        flops = ts.flops()
        mem = ts.memory_per_node()
        field_rows = [
            {"science field": g.key,
             "node hours": f"{g.node_hours:.0f}",
             "mem/core GB": f"{d['mem_per_core_by_field'][g.key]:.2f}"}
            for g in d["by_field"][:8]
        ]
        return "\n\n".join([
            render_kv(
                {
                    "mean FLOPS": f"{flops.mean:.1f} TF "
                                  f"({d['flops_fraction_of_peak']:.1%} of peak)",
                    "mean memory/node": f"{mem.mean:.1f} GB "
                                        f"({d['memory_fraction']:.1%} of capacity)",
                    "active nodes (mean)": f"{active.mean:.0f}",
                },
                title=f"RESOURCE MANAGER REPORT — {self.system}",
            ),
            series_text(active.times, active.values, label="active nodes",
                        fmt=".0f"),
            series_text(flops.times, flops.values, label="system TF"),
            series_text(mem.times, mem.values, label="GB/node"),
            render_table(field_rows,
                         ["science field", "node hours", "mem/core GB"],
                         title="Memory per core by parent science (Fig 7a)"),
        ])


class FundingAgencyReport(_BaseReport):
    """§4.3.6: accountability rollups by discipline and application."""

    def generate(self) -> dict:
        by_field = self.query.group_by("science_field",
                                       metrics=("cpu_idle",))
        by_app = self.query.group_by("app", metrics=("cpu_idle",))
        total_nh = self.query.node_hours
        effective = sum(
            g.node_hours * (1 - g.mean("cpu_idle")) for g in by_field
        )
        return {
            "by_field": by_field,
            "by_app": by_app[:10],
            "total_node_hours": total_nh,
            "effective_fraction": effective / total_nh if total_nh else 0.0,
        }

    def _render(self) -> str:
        d = self.generate()
        field_rows = [
            {"science field": g.key,
             "node hours": f"{g.node_hours:.0f}",
             "share": f"{g.node_hours / d['total_node_hours']:.1%}",
             "efficiency": f"{1 - g.mean('cpu_idle'):.1%}"}
            for g in d["by_field"]
        ]
        return "\n\n".join([
            render_kv(
                {
                    "total node hours": f"{d['total_node_hours']:.0f}",
                    "effectively applied": f"{d['effective_fraction']:.1%}",
                },
                title=f"FUNDING AGENCY REPORT — {self.system}",
            ),
            render_table(
                field_rows,
                ["science field", "node hours", "share", "efficiency"],
                title="Resource use by discipline",
            ),
        ])


#: report realm -> generator class: the one vocabulary of
#: ``repro-report`` and ``GET /api/v1/report/{kind}``.
REPORT_KINDS = {
    "user": UserReport,
    "developer": DeveloperReport,
    "support": SupportStaffReport,
    "admin": AdminReport,
    "manager": ResourceManagerReport,
    "funding": FundingAgencyReport,
}

#: report realms whose render needs a target argument.
NEEDS_TARGET = {"user": "a username", "developer": "an application tag"}
