"""Each collector's scalar path, driven through the one synthesis engine.

:class:`~repro.tacc_stats.synth.NodeSynth` hands every collector whole
blocks of invocations, and each collector answers with its batched
``sample_block`` kernel.  The kernels' reference is the collector's
scalar ``advance()``: :func:`scalar_collectors` swaps every concrete
collector's kernel for the base :meth:`Collector.sample_block`, which
loops over ``sample()`` / ``advance()`` one row at a time — wrapped by
``_by_begin_segment`` where the class overrides ``on_job_begin``, so the
counters are reprogrammed at each ``%begin`` row exactly where the
paper's per-invocation sampler would.  The same engine, the same events
and the same RNG streams then write the reference archive, and a test
compares it with the kernels' byte for byte.

Enter it in-process only (``workers=1``): a worker process started from
a fresh interpreter would not see the swap.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Iterator

from repro.tacc_stats.collectors.base import Collector, _by_begin_segment

__all__ = ["scalar_collectors"]


def _concrete(base: type) -> list[type]:
    """Every concrete subclass of *base*, at any depth."""
    out = []
    for cls in base.__subclasses__():
        if not inspect.isabstract(cls):
            out.append(cls)
        out.extend(_concrete(cls))
    return out


@contextmanager
def scalar_collectors() -> Iterator[None]:
    """Run every collector's scalar loop in place of its kernel until
    the block exits; the kernels are restored on the way out."""
    loop = Collector.sample_block
    by_begin = _by_begin_segment(loop)
    saved = {cls: cls.__dict__.get("sample_block")
             for cls in _concrete(Collector)}
    try:
        for cls in saved:
            cls.sample_block = (
                by_begin if cls.on_job_begin is not Collector.on_job_begin
                else loop)
        yield
    finally:
        for cls, kernel in saved.items():
            if kernel is None:
                del cls.sample_block
            else:
                cls.sample_block = kernel
