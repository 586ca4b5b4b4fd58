"""``python -m tests.parity``: recapture every family's digests into
``tests/parity/digests.json``."""

from tests.parity import capture

capture()
