"""Failure/event generator: emits raw syslog lines driven by job behaviour.

The point of the rationalized log in the paper's tool chain is correlating
faults with resource anomalies (ANCOR [26]).  For that linkage to be
reproducible, failures here are *caused by* behaviour, not sprinkled
uniformly: jobs near memory capacity draw OOM kills, heavy Lustre writers
draw client timeouts/evictions, high-idle (stuck) jobs draw soft lockups,
and every job gets prolog/epilog bookends.  A thin layer of random
hardware noise (MCE, IB link flaps) lands on arbitrary nodes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import node_hostname
from repro.scheduler.job import ExitStatus, JobRecord
from repro.syslogr.catalog import MESSAGE_CATALOG, MessageKind, RawMessage

__all__ = ["SyslogGenerator"]


class SyslogGenerator:
    """Generate the raw message stream for a finished simulation."""

    #: Memory fraction above which OOM risk turns on.
    OOM_THRESHOLD = 0.92
    #: Scratch write rate (MB/s/node) above which Lustre timeouts appear.
    LUSTRE_STRESS_MB = 12.0

    def __init__(self, rng: np.random.Generator, system_name: str):
        self._rng = rng
        self._system = system_name

    def generate_for_job(
        self,
        record: JobRecord,
        mem_frac_max: float,
        scratch_write_mb: float,
        cpu_idle_frac: float,
    ) -> list[RawMessage]:
        """Raw messages attributable to one job's run."""
        rng = self._rng
        out: list[RawMessage] = []
        req = record.request
        hosts = [node_hostname(i, self._system)
                 for i in record.node_indices]
        head = hosts[0]

        out.append(RawMessage(
            record.start_time, head, "sge",
            MESSAGE_CATALOG[MessageKind.JOB_PROLOG].render(
                jobid=req.jobid, user=req.user),
        ))

        mid = 0.5 * (record.start_time + record.end_time)
        span = max(record.end_time - record.start_time, 1.0)

        if mem_frac_max > self.OOM_THRESHOLD and rng.random() < 0.6:
            t = record.start_time + span * rng.uniform(0.5, 0.98)
            out.append(RawMessage(
                t, hosts[int(rng.integers(len(hosts)))], "kernel",
                MESSAGE_CATALOG[MessageKind.OOM_KILL].render(
                    pid=int(rng.integers(2000, 30000)),
                    comm=f"{req.app}.x"[:15],
                    vm_kb=int(mem_frac_max * 32 * 1024 * 1024),
                    rss_kb=int(mem_frac_max * 30 * 1024 * 1024),
                ),
            ))

        if scratch_write_mb > self.LUSTRE_STRESS_MB:
            n_timeouts = rng.poisson(
                0.8 * scratch_write_mb / self.LUSTRE_STRESS_MB
            )
            for _ in range(int(n_timeouts)):
                t = record.start_time + span * rng.uniform(0.05, 0.95)
                out.append(RawMessage(
                    t, hosts[int(rng.integers(len(hosts)))], "kernel",
                    MESSAGE_CATALOG[MessageKind.LUSTRE_TIMEOUT].render(
                        rpc=int(rng.integers(1000, 99999)),
                        target="scratch-OST0007",
                        sent=int(t),
                        addr=f"{int(rng.integers(2**31)):x}",
                    ),
                ))
            if n_timeouts > 2 and rng.random() < 0.3:
                out.append(RawMessage(
                    mid, hosts[0], "kernel",
                    MESSAGE_CATALOG[MessageKind.LUSTRE_EVICTION].render(
                        target="scratch-MDT0000", server="mds1"),
                ))

        if cpu_idle_frac > 0.85 and span > 3600 and rng.random() < 0.15:
            out.append(RawMessage(
                mid, head, "kernel",
                MESSAGE_CATALOG[MessageKind.SOFT_LOCKUP].render(
                    cpu=int(rng.integers(16)), secs=int(rng.integers(10, 60)),
                    comm=f"{req.app}.x"[:15], pid=int(rng.integers(2000, 30000)),
                ),
            ))

        if record.exit_status is ExitStatus.FAILED and rng.random() < 0.5:
            out.append(RawMessage(
                record.end_time - 1, head, "kernel",
                MESSAGE_CATALOG[MessageKind.SEGFAULT].render(
                    comm=f"{req.app}.x"[:15],
                    pid=int(rng.integers(2000, 30000)),
                    addr=f"{int(rng.integers(2**32)):x}",
                    ip=f"{int(rng.integers(2**32)):x}",
                    sp=f"{int(rng.integers(2**32)):x}",
                    err=6,
                ),
            ))

        out.append(RawMessage(
            record.end_time, head, "sge",
            MESSAGE_CATALOG[MessageKind.JOB_EPILOG].render(
                jobid=req.jobid,
                status=record.exit_status.value),
        ))
        return out

    def generate_background(self, num_nodes: int, horizon: float,
                            rate_per_node_month: float = 0.05) -> list[RawMessage]:
        """Random hardware noise uncorrelated with any job."""
        rng = self._rng
        expected = rate_per_node_month * num_nodes * horizon / (30 * 86400.0)
        out: list[RawMessage] = []
        for _ in range(int(rng.poisson(expected))):
            t = rng.uniform(0, horizon)
            node = int(rng.integers(num_nodes))
            if rng.random() < 0.5:
                text = MESSAGE_CATALOG[MessageKind.MCE].render(
                    cpu=int(rng.integers(16)), bank="K8", nbank=4,
                    status="corrected")
            else:
                text = MESSAGE_CATALOG[MessageKind.IB_LINK_DOWN].render(
                    port=1, state="INIT")
            out.append(RawMessage(t, node_hostname(node, self._system),
                                  "kernel", text))
        return out
