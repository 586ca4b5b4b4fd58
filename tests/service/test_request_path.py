"""What a request costs the server, by count, and the request-head rules.

A cached answer is an L1 lookup and one socket write: over N cached
requests of every L1-served kind the server runs no SQLite statement
(a trace callback on every shard connection), makes one write per
response, and never constructs the stdlib's RFC 5322 header parser.
The clients here speak HTTP over raw sockets, so the only header
parsing in the process is the server's.

The head rules are the stdlib's, checked over raw sockets: HTTP/1.1
keep-alive, ``Connection``, HTTP/1.0, headers in any case (the first
occurrence wins), 100 header lines and 65 536-byte lines at most; a
refused head answers the JSON error envelope with a status line, a
registered code, and a count in ``service.errors``.
"""

from __future__ import annotations

import email.feedparser
import functools
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LONESTAR4, RANGER
from repro.federation import ClusterPlan, FederatedFacility
from repro.ingest.warehouse import Warehouse
from repro.service.protocol import ERROR_STATUS
from repro.service.server import MAX_HEADERS, MAX_LINE, RequestHandler, make_server
from repro.service.state import ServiceState
from repro.telemetry.metrics import get_registry

#: Cached requests per kind.
N = 50


class RawClient:
    """One keep-alive connection; reads a response by its
    ``Content-Length``."""

    def __init__(self, server):
        self.sock = socket.create_connection(server.server_address[:2],
                                             timeout=30)
        self.file = self.sock.makefile("rb")

    def close(self) -> None:
        """Half-close, then read up to the server's close: its handler
        is done with, and has counted, every request sent here, so none
        is counted during a later test."""
        try:
            self.sock.shutdown(socket.SHUT_WR)
            self.file.read()
        except OSError:
            pass  # reset by a server already done with the connection
        self.file.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def get(self, path: str, head: str = "", version: str = "HTTP/1.1"):
        self.send(f"GET {path} {version}\r\nHost: t\r\n{head}\r\n".encode())
        return self.response()

    def response(self) -> tuple[int, dict[str, str], bytes]:
        """``(status, headers by lower-cased name, body)``."""
        status_line = self.file.readline()
        assert status_line.startswith(b"HTTP/1.1 "), status_line
        headers = {}
        for line in iter(self.file.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        body = self.file.read(int(headers["content-length"]))
        return int(status_line.split()[1]), headers, body

    def closed(self) -> bool:
        """Did the server close the connection after its response?"""
        return self.file.read(1) == b""


@pytest.fixture
def raw(server):
    client = RawClient(server)
    yield client
    client.close()


class CountingHandler(RequestHandler):
    """The server's handler, its response writes counted."""

    writes: list[int] = []

    def setup(self) -> None:
        super().setup()
        write = self.wfile.write

        def counted(data):
            CountingHandler.writes.append(len(data))
            return write(data)

        self.wfile.write = counted


@pytest.fixture(scope="module")
def fed_server(tmp_path_factory):
    """A served two-cluster federation, its handler counting writes."""
    root = str(tmp_path_factory.mktemp("request_path") / "fed")
    FederatedFacility.plan(root, [
        ClusterPlan(cluster="ranger", seed=7, config=RANGER.scaled(
            num_nodes=8, horizon_days=2, n_users=8)),
        ClusterPlan(cluster="lonestar4", seed=21, config=LONESTAR4.scaled(
            num_nodes=6, horizon_days=2, n_users=6)),
    ]).run()
    state = ServiceState(federation_root=root)
    srv = make_server(state)
    srv.RequestHandlerClass = CountingHandler
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    state.close()
    thread.join(timeout=5)


def _cached_paths(state: ServiceState) -> dict[str, str]:
    (user,) = state.store.shard("ranger")._conn.execute(
        "SELECT user FROM jobs WHERE system='ranger' ORDER BY jobid LIMIT 1"
    ).fetchone()
    return {
        "report": "/api/v1/report/support?system=ranger",
        "report_target": f"/api/v1/report/user?system=ranger&target={user}",
        "group_by": "/api/v1/query/group_by?system=lonestar4&dimension=app"
                    "&metrics=cpu_idle",
        "timeseries": "/api/v1/timeseries/active_nodes?system=ranger",
        "fed_group_by": "/api/v1/query/group_by?system=all"
                        "&dimension=cluster,app&metrics=cpu_idle",
        "fed_timeseries": "/api/v1/timeseries/active_nodes?system=all",
    }


@pytest.mark.parametrize("kind", ["report", "report_target", "group_by",
                                  "timeseries", "fed_group_by",
                                  "fed_timeseries"])
def test_a_cached_request_is_no_sql_one_write_and_no_email_parser(
        fed_server, kind, monkeypatch):
    path = _cached_paths(fed_server.state)[kind]
    client = RawClient(fed_server)
    statements: list[str] = []
    parsers: list[object] = []
    init = email.feedparser.FeedParser.__init__

    def counted_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    shards = fed_server.state.store.shards.values()
    try:
        status, _, _ = client.get(path)  # fill L1
        assert status == 200
        monkeypatch.setattr(email.feedparser.FeedParser, "__init__",
                            counted_init)
        for shard in shards:
            shard._conn.set_trace_callback(statements.append)
        CountingHandler.writes.clear()
        for _ in range(N):
            status, _, body = client.get(path)
            assert status == 200
            assert json.loads(body)["cached"] is True
    finally:
        for shard in shards:
            shard._conn.set_trace_callback(None)
        client.close()
    # SQLite statements, response writes, header parsers.
    assert (len(statements), len(CountingHandler.writes), len(parsers)) \
        == (0, N, 0), statements[:3]


# -- the head rules -------------------------------------------------------

HEALTH = "/api/v1/health"
REFRESH = "/api/v1/refresh"


@pytest.mark.parametrize("version, head, closes", [
    ("HTTP/1.1", "", False),
    ("HTTP/1.1", "Connection: close\r\n", True),
    ("HTTP/1.0", "", True),
    ("HTTP/1.0", "coNNection: Keep-Alive\r\n", False),
])
def test_keep_alive_follows_the_version_and_connection(
        raw, version, head, closes):
    status, headers, _ = raw.get(HEALTH, head, version)
    assert status == 200
    assert "connection" not in headers
    if closes:
        assert raw.closed()
    else:
        assert raw.get(HEALTH, head, version)[0] == 200


def _padding(count: int) -> str:
    return "".join(f"X-Pad-{i}: {i}\r\n" for i in range(count))


def _header_line(length: int) -> str:
    """An ``X-Pad`` header line of *length* bytes with its CRLF."""
    return "X-Pad: " + "p" * (length - len("X-Pad: \r\n")) + "\r\n"


def _request_line(length: int) -> str:
    """A request line for ``health`` of *length* bytes with its CRLF."""
    head, tail = f"GET {HEALTH}?pad=", " HTTP/1.1\r\n"
    return head + "p" * (length - len(head) - len(tail)) + tail


@pytest.mark.parametrize("request_head", [
    f"GET /{HEALTH} HTTP/1.1\r\nHost: t\r\n\r\n",  # "//" collapses
    f"GET {HEALTH} HTTP/1.1\r\nHost: t\r\n{_padding(MAX_HEADERS - 1)}\r\n",
    f"GET {HEALTH} HTTP/1.1\r\n{_header_line(MAX_LINE)}\r\n",
    f"{_request_line(MAX_LINE)}Host: t\r\n\r\n",
], ids=["double_slash", "100_headers", "65536_byte_header_line",
        "65536_byte_request_line"])
def test_a_head_at_the_limits_is_served(raw, request_head):
    raw.send(request_head.encode())
    status, _, body = raw.response()
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def _tenant_status(raw, head: str) -> int:
    return raw.get("/api/v1/report/support?system=ranger", head)[0]


def test_x_tenant_is_read_in_any_case_and_its_first_value_wins(raw):
    bad = "t" * 200  # longer than a tenant name may be
    for name in ("X-Tenant", "x-tenant", "X-TENANT", "x-TeNaNt"):
        assert _tenant_status(raw, f"{name}: {bad}\r\n") == 400
    assert _tenant_status(raw, "x-tenant: fine\r\n") == 200
    assert _tenant_status(
        raw, f"X-Tenant: first\r\nX-Tenant: {bad}\r\n") == 200
    assert _tenant_status(
        raw, f"X-Tenant: {bad}\r\nx-tenant: second\r\n") == 400


@pytest.mark.parametrize("request_head, status, code", [
    (f"GET {HEALTH} HTTP/1.1\r\nHost: t\r\n{_padding(MAX_HEADERS)}\r\n",
     431, "header_too_large"),
    (f"GET {HEALTH} HTTP/1.1\r\n{_header_line(MAX_LINE + 1)}\r\n",
     431, "header_too_large"),
    (f"{_request_line(MAX_LINE + 1)}\r\n", 414, "uri_too_long"),
    (f"PUT {HEALTH} HTTP/1.1\r\n\r\n", 405, "method_not_allowed"),
    (f"GET {HEALTH} HTTP/2.0\r\n\r\n", 505, "unsupported_version"),
    (f"GET {HEALTH} HTTP/1.x\r\n\r\n", 400, "bad_request"),
    ("garbage\r\n\r\n", 400, "bad_request"),
    (f"GET {HEALTH}\r\n\r\n", 400, "bad_request"),
    (f"GET {HEALTH} HTTP/1.1\r\nHost: t\r\n folded\r\n\r\n",
     400, "bad_request"),
    (f"POST {REFRESH} HTTP/1.1\r\nContent-Length: {MAX_LINE + 1}\r\n\r\n",
     413, "body_too_large"),
    (f"POST {REFRESH} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
     413, "body_too_large"),
    (f"POST {REFRESH} HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
     400, "bad_request"),
], ids=["101_headers", "long_header_line", "long_request_line", "put",
        "http2", "bad_version", "garbage", "http09", "folded_header",
        "long_body", "chunked_body", "bad_content_length"])
def test_a_refused_head_answers_json(raw, request_head, status, code):
    """A status line, the JSON envelope with a registered code, counted
    once in ``service.errors``, and the connection closes."""
    errors = get_registry().counter("service.errors")
    before = errors.value
    raw.send(request_head.encode())
    got, headers, body = raw.response()
    assert (got, ERROR_STATUS[code]) == (status, status)
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert json.loads(body)["error"]["code"] == code
    assert raw.closed()
    assert errors.value == before + 1


# -- bodies and pipelining --------------------------------------------------


@pytest.mark.parametrize("body", [b"hello", b"b" * MAX_LINE],
                         ids=["hello", "65536_bytes"])
def test_a_body_no_route_reads_is_dropped_in_step(raw, body):
    """The body is read and dropped: the next request on the connection
    is the one the client sent next, not the body's bytes."""
    raw.send(f"POST {REFRESH} HTTP/1.1\r\nContent-Length: {len(body)}"
             f"\r\n\r\n".encode() + body)
    assert raw.response()[0] == 200
    status, _, reply = raw.get(HEALTH)
    assert status == 200
    assert json.loads(reply)["status"] == "ok"


#: (request bytes, does the server close after answering it).  Every
#: request is read to its end, so no unread byte turns the close into a
#: reset.
_REQUESTS = [
    (b"GET /api/v1/systems HTTP/1.1\r\nHost: t\r\n\r\n", False),
    (b"GET /api/v1/nope HTTP/1.1\r\n\r\n", False),
    (b"GET /api/v1/refresh HTTP/1.1\r\n\r\n", False),
    (b"GET /api/v1/systems HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
     False),
    *((f"POST {REFRESH} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
       .encode() + body, False)
      for body in (b"", b"hello", b"GET / HTTP/1.1\r\n\r\n")),
    (b"GET /api/v1/systems HTTP/1.0\r\n\r\n", True),
    (b"GET /api/v1/systems HTTP/1.1\r\nConnection: close\r\n\r\n", True),
    (b"PUT /api/v1/systems HTTP/1.1\r\n\r\n", True),
    (b"garbage\r\n", True),
    (f"POST {REFRESH} HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
     .encode(), True),
]


def _without_date(client: RawClient) -> bytes:
    status, headers, body = client.response()
    headers.pop("date")
    return repr((status, headers)).encode() + body


@pytest.fixture(scope="module")
def alone(server):
    """The response a fresh connection gets for a request, Date aside
    (asked once per request)."""

    @functools.cache
    def response(request: bytes) -> bytes:
        client = RawClient(server)
        try:
            client.send(request)
            return _without_date(client)
        finally:
            client.close()

    return response


@settings(max_examples=100, deadline=None)
@given(picks=st.lists(st.sampled_from(_REQUESTS), min_size=1, max_size=6),
       data=st.data())
def test_pipelined_requests_answer_as_if_each_were_alone(
        server, alone, picks, data):
    """Requests sent back to back, cut at random byte boundaries, get
    their responses in order, each what the request gets alone, up to
    the first one that closes the connection."""
    closing = next((i for i, (_, close) in enumerate(picks) if close), None)
    picks = picks[:len(picks) if closing is None else closing + 1]
    stream = b"".join(request for request, _ in picks)
    cuts = sorted(data.draw(st.sets(
        st.integers(1, len(stream) - 1), max_size=8)))
    client = RawClient(server)
    try:
        client.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
            client.send(stream[lo:hi])
        for request, _ in picks:
            assert _without_date(client) == alone(request)
        if closing is not None:
            assert client.closed()
    finally:
        client.close()


def test_health_and_systems_run_no_sql_on_unchanged_shards(fed_server):
    """The system list comes from the store's routing map: ten of each
    over unchanged shards run no SQLite statement."""
    client = RawClient(fed_server)
    shards = fed_server.state.store.shards.values()
    statements: list[str] = []
    try:
        for path in ("/api/v1/health", "/api/v1/systems"):
            assert client.get(path)[0] == 200  # warm
        for shard in shards:
            shard._conn.set_trace_callback(statements.append)
        for _ in range(10):
            for path in ("/api/v1/health", "/api/v1/systems"):
                status, _, body = client.get(path)
                assert status == 200
                assert "lonestar4" in json.loads(body)["systems"]
    finally:
        for shard in shards:
            shard._conn.set_trace_callback(None)
        client.close()
    assert statements == []


def test_an_external_system_is_listed_after_refresh(tmp_path):
    from repro.federation.federated import FederatedWarehouse

    path = str(tmp_path / "ranger.sqlite")
    Warehouse(path).close()
    store = FederatedWarehouse.open_file(path)
    assert store.all_systems() == []
    other = Warehouse(path)
    other.add_system("ranger", num_nodes=2, cores_per_node=16,
                     mem_gb_per_node=32.0, peak_tflops=1.0,
                     sample_interval=600.0)
    other.close()
    assert store.all_systems() == []  # another process's commit
    store.refresh()
    assert store.all_systems() == ["ranger"]
    store.close()
