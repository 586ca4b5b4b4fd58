"""One synthesis engine writes what two wrote: every archive tree, and
every offline row's warehouse, equals what the commit that still had a
second, per-sample driver wrote — where both were asserted equal.

The rows, the hashed view and the capture script live in
``synthesis_parity.py``; ``synthesis_parity_digests.json`` holds the
digests captured at that commit.
"""

from __future__ import annotations

import json

from tests import synthesis_parity as sp

EXPECTED = json.loads(sp.DIGESTS.read_text())


def test_every_row_writes_what_the_parent_wrote(tmp_path):
    # The fleet row runs, with its counters, in test_synthesis.py.
    outcomes = sp.outcomes(tmp_path, skip={sp.FLEET})
    assert len(outcomes) == 2 * len(sp.SYSTEMS) * len(sp.FORMATS) * 2 + 1
    assert set(outcomes) == set(EXPECTED) - {sp.FLEET}
    differs = [label for label, digests in outcomes.items()
               if digests != EXPECTED[label]]
    assert differs == []
