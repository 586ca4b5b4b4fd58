"""Single-flight coalescing: identical in-flight queries compute once.

The deterministic proof rides on two design choices: followers count
themselves in ``service.coalesced`` *before* blocking (so a test can
wait until exactly K-1 followers are enqueued), and the leader's
compute is gated on an event the test controls — no sleeps, no racy
"hope they overlap" scheduling.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service.coalesce import SingleFlight
from repro.service.state import REPORT_KINDS
from repro.telemetry.metrics import get_registry
from tests.service.conftest import SYSTEM


def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


def test_single_flight_computes_once_per_concurrent_set():
    flight = SingleFlight()
    release = threading.Event()
    computes = []
    results = []
    coalesced_before = get_registry().counter("service.coalesced").value

    def compute():
        computes.append(1)
        release.wait(10)
        return "answer"

    def call():
        value, _ = flight.do("key", compute)
        results.append(value)

    threads = [threading.Thread(target=call) for _ in range(8)]
    for t in threads:
        t.start()
    # All 7 followers are provably enqueued before the leader finishes.
    _wait_until(lambda: get_registry().counter(
        "service.coalesced").value - coalesced_before == 7)
    assert flight.in_flight() == 1
    release.set()
    for t in threads:
        t.join(10)
    assert computes == [1]  # the compute-once assertion
    assert results == ["answer"] * 8
    assert flight.in_flight() == 0


def test_distinct_keys_do_not_coalesce():
    flight = SingleFlight()
    before = get_registry().counter("service.coalesced").value
    seen = []
    for key in ("a", "b", "a"):
        value, coalesced = flight.do(key, lambda k=key: k.upper())
        seen.append((value, coalesced))
    # Sequential calls never coalesce — nothing is in flight.
    assert seen == [("A", False), ("B", False), ("A", False)]
    assert get_registry().counter("service.coalesced").value == before


def test_leader_failure_fans_out_and_clears_flight():
    flight = SingleFlight()
    release = threading.Event()
    errors = []

    def explode():
        release.wait(10)
        raise RuntimeError("boom")

    def call():
        try:
            flight.do("k", explode)
        except RuntimeError as exc:
            errors.append(str(exc))

    before = get_registry().counter("service.coalesced").value
    threads = [threading.Thread(target=call) for _ in range(3)]
    for t in threads:
        t.start()
    _wait_until(lambda: get_registry().counter(
        "service.coalesced").value - before == 2)
    release.set()
    for t in threads:
        t.join(10)
    assert errors == ["boom"] * 3
    # The failed flight is gone: a retry computes fresh.
    assert flight.do("k", lambda: 42) == (42, False)


def test_concurrent_identical_reports_coalesce_end_to_end(
        fresh_state, monkeypatch):
    """Through the full ServiceState path: K identical report requests
    arriving while the first is computing produce exactly one compute,
    K-1 ``service.coalesced`` increments, and identical payloads."""
    release = threading.Event()
    computes = []

    class GatedReport:
        """Stands in for a report class; render blocks until released."""

        def __init__(self, warehouse, system, snapshot=None):
            self.system = system

        def render(self):
            computes.append(1)
            release.wait(10)
            return f"GATED {self.system}"

    monkeypatch.setitem(REPORT_KINDS, "support", GatedReport)
    registry = get_registry()
    before = registry.counter("service.coalesced").value
    results = []
    lock = threading.Lock()

    def request():
        body = fresh_state.report("support", SYSTEM)
        with lock:
            results.append(body["report"])

    threads = [threading.Thread(target=request) for _ in range(6)]
    for t in threads:
        t.start()
    _wait_until(lambda: registry.counter(
        "service.coalesced").value - before == 5)
    release.set()
    for t in threads:
        t.join(10)
    assert computes == [1]
    assert results == [f"GATED {SYSTEM}"] * 6


def test_coalesced_flag_reported_in_body(fresh_state, monkeypatch):
    """Follower responses carry ``coalesced: true``."""
    release = threading.Event()
    started = threading.Event()

    class GatedReport:
        """Gated stand-in report (leader blocks until released)."""

        def __init__(self, warehouse, system, snapshot=None):
            pass

        def render(self):
            started.set()
            release.wait(10)
            return "X"

    monkeypatch.setitem(REPORT_KINDS, "support", GatedReport)
    bodies = []
    lock = threading.Lock()

    def request():
        body = fresh_state.report("support", SYSTEM)
        with lock:
            bodies.append(body)

    leader = threading.Thread(target=request)
    leader.start()
    assert started.wait(10)
    registry = get_registry()
    before = registry.counter("service.coalesced").value
    follower = threading.Thread(target=request)
    follower.start()
    _wait_until(lambda: registry.counter(
        "service.coalesced").value - before == 1)
    release.set()
    leader.join(10)
    follower.join(10)
    flags = sorted(b["coalesced"] for b in bodies)
    assert flags == [False, True]


def test_an_l1_hit_encodes_nothing(fresh_state):
    """A computed payload is encoded once; the L1 entry keeps the
    encoding, so a hit sends it without encoding again."""
    encodes = get_registry().counter("service.payload_encodes")
    before = encodes.value
    cold = fresh_state.report("support", SYSTEM)
    assert encodes.value - before == 1
    warm = fresh_state.report("support", SYSTEM)
    assert warm["cached"] is True
    assert encodes.value - before == 1
    assert warm.encoded is cold.encoded


def test_coalesced_followers_share_one_encode(fresh_state, monkeypatch):
    """16 followers riding one in-flight compute get the leader's
    encoding: one ``service.payload_encodes`` for 17 bodies."""
    release = threading.Event()

    class GatedReport:
        """Gated stand-in report (leader blocks until released)."""

        def __init__(self, warehouse, system, snapshot=None):
            pass

        def render(self):
            release.wait(10)
            return "G"

    monkeypatch.setitem(REPORT_KINDS, "support", GatedReport)
    registry = get_registry()
    coalesced = registry.counter("service.coalesced").value
    encodes = registry.counter("service.payload_encodes").value
    bodies = []
    lock = threading.Lock()

    def request():
        body = fresh_state.report("support", SYSTEM)
        with lock:
            bodies.append(body)

    threads = [threading.Thread(target=request) for _ in range(17)]
    for t in threads:
        t.start()
    _wait_until(lambda: registry.counter(
        "service.coalesced").value - coalesced == 16)
    release.set()
    for t in threads:
        t.join(10)
    assert registry.counter("service.payload_encodes").value - encodes == 1
    assert sorted(b["coalesced"] for b in bodies) == [False] + [True] * 16
    assert len({id(b.encoded) for b in bodies}) == 1


@pytest.mark.parametrize("capacity", [-1, 0])
def test_cache_capacity_validated(capacity):
    from repro.service.cache import TenantReportCache
    with pytest.raises(ValueError):
        TenantReportCache(capacity)
