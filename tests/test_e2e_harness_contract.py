"""The names the end-to-end harness patches (``benchmarks/e2e``) belong
to the classes and modules it patches them on."""

from __future__ import annotations

import re

from benchmarks.e2e import harness
from repro.ingest.pipeline import IngestPipeline
from tests.conftest import ROOT


def test_names_the_e2e_harness_patches_belong_to_their_owners():
    """``benchmarks/e2e/harness.py`` (``_wrap_targets``, ``entry_times``)
    replaces these by ``owner.__dict__[name]``: each must be defined on
    the class or module itself.  A refactor that moves one into a base
    class, or renames it, fails here — in tier-1, not only in the
    out-of-testpaths ``e2e-harness`` job.  The list is the harness's
    own, so a target added there is checked here without an edit."""
    workloads = (ROOT / "benchmarks/e2e/workloads.py").read_text()
    assert re.findall(r'entry_times\((\w+),\s*"(\w+)"\)', workloads) == \
        [("IngestPipeline", "ingest")]
    contract = [(owner, name)
                for owner, name, _span in harness._wrap_targets()]
    contract.append((IngestPipeline, "ingest"))
    missing = [f"{owner.__name__}.{name}" for owner, name in contract
               if not callable(vars(owner).get(name))]
    assert missing == []
