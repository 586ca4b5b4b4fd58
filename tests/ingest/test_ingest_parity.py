"""One planner decides what every ingest reads: what a full ingest, a
windowed seed and every kind of append leave in the warehouse is what
the three separate code paths before it left, row for row.

The flows, the hashed view and the capture script live in
``ingest_parity.py``; ``ingest_parity_digests.json`` holds what the
commit before the planner was unified left behind.
"""

from __future__ import annotations

import json

from tests.ingest import ingest_parity as ip

EXPECTED = json.loads(ip.DIGESTS.read_text())


def test_every_flow_leaves_what_the_parent_left(tmp_path):
    outcomes = ip.outcomes(tmp_path)
    assert len(outcomes) == len(ip.FORMATS) * len(ip.POLICIES) * len(ip.FLOWS)
    assert set(outcomes) == set(EXPECTED)
    differs = [label for label, text in outcomes.items()
               if ip.sha(text) != EXPECTED[label]]
    assert differs == []
