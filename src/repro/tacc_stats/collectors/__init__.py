"""TACC_Stats collectors, one module per record type (as in the original
tool's ``st_*.c`` sources).

:func:`build_collectors` assembles the per-architecture suite: all common
collectors plus ``amd64_pmc`` (Opteron) or ``intel_pmc`` (Nehalem/Westmere)
for the hardware performance counters.

Noise streams are keyed per collector: passing a *stream factory*
(``name -> Generator``) gives every collector its own named RNG stream,
which is what lets the vectorized ``sample_block`` kernels batch a whole
block's draws per collector without perturbing any other collector's
sequence.  Passing a plain :class:`numpy.random.Generator`
shares one cursor across the suite (the legacy behaviour, still used by
unit tests that drive a single collector directly).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cluster.node import Node
from repro.tacc_stats.collectors.amd64_pmc import Amd64PmcCollector
from repro.tacc_stats.collectors.base import Collector, SampleContext
from repro.tacc_stats.collectors.block import BlockCollector
from repro.tacc_stats.collectors.cpu import CpuCollector
from repro.tacc_stats.collectors.ib import IbCollector
from repro.tacc_stats.collectors.intel_pmc import IntelPmcCollector
from repro.tacc_stats.collectors.irq import IrqCollector
from repro.tacc_stats.collectors.llite import LliteCollector
from repro.tacc_stats.collectors.lnet import LnetCollector
from repro.tacc_stats.collectors.mem import MemCollector
from repro.tacc_stats.collectors.net import NetCollector
from repro.tacc_stats.collectors.nfs import NfsCollector
from repro.tacc_stats.collectors.numa import NumaCollector
from repro.tacc_stats.collectors.ps import PsCollector
from repro.tacc_stats.collectors.sysv_shm import SysvShmCollector
from repro.tacc_stats.collectors.tmpfs import TmpfsCollector
from repro.tacc_stats.collectors.vfs import VfsCollector
from repro.tacc_stats.collectors.vm import VmCollector

__all__ = [
    "Collector",
    "SampleContext",
    "build_collectors",
    "CpuCollector",
    "MemCollector",
    "NumaCollector",
    "VmCollector",
    "TmpfsCollector",
    "NetCollector",
    "IbCollector",
    "LliteCollector",
    "LnetCollector",
    "NfsCollector",
    "BlockCollector",
    "PsCollector",
    "SysvShmCollector",
    "IrqCollector",
    "VfsCollector",
    "Amd64PmcCollector",
    "IntelPmcCollector",
]

_COMMON = (
    ("cpu", CpuCollector),
    ("mem", MemCollector),
    ("numa", NumaCollector),
    ("vm", VmCollector),
    ("tmpfs", TmpfsCollector),
    ("net", NetCollector),
    ("ib", IbCollector),
    ("llite", LliteCollector),
    ("lnet", LnetCollector),
    ("block", BlockCollector),
    ("ps", PsCollector),
    ("sysv_shm", SysvShmCollector),
    ("irq", IrqCollector),
    ("vfs", VfsCollector),
)

def build_collectors(
    node: Node,
    rng: np.random.Generator | Callable[[str], np.random.Generator],
    lustre_mounts: tuple[str, ...] = ("scratch", "work", "share"),
    nfs_mounts: tuple[str, ...] = (),
) -> list[Collector]:
    """The full collector suite for one node: the common set, an ``nfs``
    collector when the system has NFS mounts (Lonestar4's home), and the
    PMC collector chosen by architecture.

    *rng* is either a shared :class:`numpy.random.Generator` or a stream
    factory ``name -> Generator``; the factory form keys every
    collector's noise stream by its type name, making each collector's
    draw sequence independent of its siblings (the determinism contract
    the vectorized kernels rely on).
    """
    stream: Callable[[str], np.random.Generator]
    if callable(rng):
        stream = rng
    else:
        def stream(_name: str, _gen=rng) -> np.random.Generator:
            return _gen
    collectors: list[Collector] = [
        cls(node, stream(name), lustre_mounts) if cls is LliteCollector
        else cls(node, stream(name))
        for name, cls in _COMMON
    ]
    if nfs_mounts:
        collectors.append(NfsCollector(node, stream("nfs"), nfs_mounts))
    arch = node.hardware.processor.arch
    if arch == "amd64":
        collectors.append(Amd64PmcCollector(node, stream("amd64_pmc")))
    elif arch == "intel":
        collectors.append(IntelPmcCollector(node, stream("intel_pmc")))
    else:  # pragma: no cover - ProcessorSpec already validates
        raise ValueError(f"no PMC collector for arch {arch!r}")
    return collectors
