"""The HTTP front end: stdlib ``ThreadingHTTPServer`` + URL routing.

No framework, no new dependencies: a
:class:`http.server.BaseHTTPRequestHandler` subclass reads the request
head itself (:meth:`RequestHandler.parse_request`, the stdlib's limits
and keep-alive rules into a plain dict, no RFC 5322 parser), routes the
URL into :class:`~repro.service.state.ServiceState` and answers in one
write.  HTTP/1.1 keep-alive is on (``Content-Length`` is always set),
so a dashboard session reuses one TCP connection across its whole query
burst.  The routes are the table in docs/SERVICE.md ("Endpoints").

The live endpoints bypass the per-tenant L1 cache (their responses are
a function of the calling client's previous poll — see
:meth:`~repro.service.state.ServiceState.live_top`); ``/metrics``
refreshes the ``service.snapshot.age_seconds`` staleness gauge on
every scrape.  Tenancy: the ``X-Tenant`` header (or ``tenant`` query
parameter) keys the per-tenant L1 cache; unset means ``public``.

Every JSON body goes through one encoder, :func:`json_body`, which
writes ``json.dumps(body) + "\n"`` and takes the text of a payload the
service state already encoded (:class:`~repro.service.state.Answer`)
instead of encoding it again.

Telemetry per request: ``service.requests`` plus
``service.requests.{endpoint}`` counters, the
``service.latency.seconds`` histogram and one
``service.latency.{endpoint}.seconds`` per endpoint,
``service.errors`` on any non-2xx and on every refused request head.
Scrape them at ``/metrics``.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii
from urllib.parse import parse_qs, urlsplit

from repro.service.protocol import (
    ERROR_STATUS,
    ServiceError,
    csv_tuple,
    error_body,
    one_param,
    valid_tenant,
)
from repro.service.state import DEFAULT_TENANT, ServiceState
from repro.telemetry.export import to_prometheus
from repro.telemetry.metrics import get_registry

__all__ = ["ReproServer", "RequestHandler", "make_server", "json_body",
           "SERVICE_LATENCY_BUCKETS"]

#: Latency buckets tuned for an in-memory dashboard service: the p99
#: acceptance gate is 10 ms, so resolution concentrates below it.
SERVICE_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 0.5, 2.5,
)


#: JSON literals, looked up only for a bool or ``None`` (``True == 1``).
_LITERALS = {True: b"true", False: b"false", None: b"null"}


@functools.lru_cache(maxsize=256)
def _key_prefix(key: str) -> bytes:
    """``json.dumps(key) + ": "``, encoded once per key."""
    return json.dumps(key).encode() + b": "


def json_body(body: dict) -> bytes:
    """``(json.dumps(body) + "\n").encode()``, for a body whose
    top-level keys are strings: every JSON response's one encoder.

    The top-level items are joined in the dict's order; a value the
    body carries pre-encoded (:attr:`~repro.service.state.Answer.encoded`,
    still the same object as the dict's) is joined as that text, a
    literal or a ``str`` is written as ``json.dumps`` would, every other
    value is encoded here."""
    encoded = getattr(body, "encoded", {})
    items = []
    for key, value in body.items():
        pair = encoded.get(key)
        if pair is not None and pair[0] is value:
            text = pair[1]
        elif value is None or type(value) is bool:
            text = _LITERALS[value]
        elif type(value) is str:
            text = encode_basestring_ascii(value).encode()
        else:
            text = json.dumps(value).encode()
        items.append(_key_prefix(key) + text)
    return b"{" + b", ".join(items) + b"}\n"


#: The stdlib's head limits: a line of at most 65 536 bytes with its
#: line ending, at most 100 header lines.
MAX_LINE, MAX_HEADERS = 65536, 100

#: The status a request head is refused with -> its error code (an
#: unknown method, 501 to the stdlib, answers 405 like a wrong one).
HEAD_ERRORS = {400: "bad_request", 413: "body_too_large",
               414: "uri_too_long", 431: "header_too_large",
               501: "method_not_allowed", 505: "unsupported_version"}


#: Endpoints a supervisor polls before any user arrives; they touch no
#: frame, so they do not count as the first request.
_PROBE_ENDPOINTS = frozenset({"metrics", "health"})


class ReproServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ServiceState`."""

    daemon_threads = True  # handler threads die with the process
    #: A dashboard burst opens its sessions all at once; the
    #: socketserver default backlog of 5 would drop the SYN flood and
    #: cost every dropped client a full retransmission timeout.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], state: ServiceState):
        super().__init__(address, RequestHandler)
        self.state = state
        # In-flight accounting for a clean shutdown: handler threads
        # are daemons (an idle keep-alive connection parked on a
        # blocking read must not pin the process), so ``server_close``
        # never joins them — :meth:`drain` is what keeps the warehouse
        # connection open until every *dispatched* request finished.
        self._inflight = 0
        self._draining = False
        self._idle = threading.Condition()
        #: Taken (never released) by the first data request: it alone
        #: publishes ``service.first_request.seconds``.
        self.first_request = threading.Lock()

    def request_started(self) -> bool:
        """Count a request in; ``False`` once draining (the handler
        answers 503 without touching the service state)."""
        with self._idle:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def request_finished(self) -> None:
        """Count a request out, waking :meth:`drain` at zero."""
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    def drain(self, timeout: float = 5.0) -> bool:
        """Stop admitting requests and wait (up to *timeout* seconds)
        for the in-flight ones to finish.

        Call after ``serve_forever`` returns and before closing the
        shared warehouse connection; requests arriving on still-open
        keep-alive connections afterwards get a structured 503 instead
        of a ``sqlite3.ProgrammingError``-driven 500.  Returns whether
        the server went idle within the timeout.
        """
        with self._idle:
            self._draining = True
            return self._idle.wait_for(
                lambda: self._inflight <= 0, timeout)


class RequestHandler(BaseHTTPRequestHandler):
    """Routes one request into the service state; always answers JSON
    (or Prometheus text for ``/metrics``), never an HTML traceback."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: A response is one write, but a keep-alive client sends its next
    #: request while its ACK of the last one may be delayed; Nagle
    #: would hold the write behind it — a flat ~40 ms tax on every warm
    #: request.
    disable_nagle_algorithm = True
    #: Toggled by the CLI; the default stays quiet so handler threads
    #: never contend on stderr during benchmarks.
    log_requests = False
    #: ``(second, Date header)``, formatted once per second.
    _date = (0, "")

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        """Per-request stderr lines, off unless :attr:`log_requests`."""
        if self.log_requests:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """The request line, and the head into :attr:`headers` (the
        lower-cased name -> its first value), by the stdlib's rules:
        :data:`MAX_LINE`, :data:`MAX_HEADERS`, keep-alive from HTTP/1.1
        or ``Connection``, no version from 2 up, ``//`` collapsed.  No
        route reads a body, so a ``Content-Length`` body of at most
        :data:`MAX_LINE` bytes is read and dropped, keeping the next
        request on the connection in step; a longer one, or any
        ``Transfer-Encoding``, is refused.  A refused head goes to
        :meth:`send_error`."""
        self.command, self.close_connection = None, True
        self.requestline = line = str(
            self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"bad request line {line!r}")
            return False
        command, path, version = words
        major, _, minor = version[5:].partition(".")
        if not (version[:5] == "HTTP/" and major.isdecimal()
                and minor.isdecimal() and max(len(major), len(minor)) <= 10):
            self.send_error(400, f"bad request version {version!r}")
            return False
        if int(major) >= 2:
            self.send_error(505, f"unsupported HTTP version {version!r}")
            return False
        self.close_connection = (int(major), int(minor)) < (1, 1)
        self.command, self.request_version = command, version
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        self.headers = headers = {}
        for count in range(MAX_HEADERS + 1):
            raw = self.rfile.readline(MAX_LINE + 1)
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_LINE or count == MAX_HEADERS:
                self.send_error(431, "header line too long"
                                if len(raw) > MAX_LINE else "too many headers")
                return False
            name, colon, value = str(raw, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                self.send_error(400, f"bad header line {raw[:64]!r}")
                return False
            headers.setdefault(name.lower(), value.strip(" \t\r\n"))
        connection = headers.get("connection", "").lower()
        if connection in ("close", "keep-alive"):
            self.close_connection = connection == "close"
        if "transfer-encoding" in headers:
            self.send_error(413, "a Transfer-Encoding body is not "
                                 "accepted; send Content-Length")
            return False
        length = headers.get("content-length", "0")
        if length != "0":
            if not length.isdecimal():
                self.send_error(400, f"bad Content-Length {length[:64]!r}")
                return False
            if len(length.lstrip("0")) > len(str(MAX_LINE)) \
                    or int(length) > MAX_LINE:
                self.send_error(413, f"request body over {MAX_LINE} bytes")
                return False
            self.rfile.read(int(length))
        return True

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Refuse a request head: the JSON error envelope under the code
        :data:`HEAD_ERRORS` names (never the stdlib's HTML page),
        counted in ``service.errors``; the connection closes."""
        error, message = HEAD_ERRORS[code], message or self.responses[code][0]
        self.log_error("code %d, message %s", code, message)
        get_registry().counter("service.errors").inc()
        self.close_connection = True
        self._send(ERROR_STATUS[error], json_body(error_body(error, message)),
                   close=True)

    def _send(self, status: int, payload: bytes,
              content_type: str = "application/json",
              close: bool = False) -> None:
        """One response, one write: status line, headers, body."""
        self.log_request(status)
        now = int(time.time())
        if RequestHandler._date[0] != now:
            RequestHandler._date = (now, self.date_time_string(now))
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {RequestHandler._date[1]}\r\n"
                + ("Connection: close\r\n" if close else "")
                + f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        self.wfile.write(head.encode("latin-1") + payload)

    def _send_json(self, status: int, body: dict) -> None:
        self._send(status, json_body(body))

    def _tenant(self, params: dict[str, list[str]]) -> str:
        header = self.headers.get("x-tenant")
        if header:
            return valid_tenant(header)
        name = one_param(params, "tenant", DEFAULT_TENANT)
        return name if name == DEFAULT_TENANT else valid_tenant(name)

    # -- routing -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Answer a GET or POST (``do_GET``/``do_POST``, the stdlib's
        names); any other method the stdlib refuses as unsupported."""
        if not self.server.request_started():
            # Shutdown drain in progress: the service state is about to
            # close, so answer without touching it.
            try:
                self._send_json(503, error_body(
                    "shutting_down", "server is shutting down"))
            except OSError:
                pass
            self.close_connection = True
            return
        try:
            self._handle_counted(self.command)
        finally:
            self.server.request_finished()

    do_GET = do_POST = _dispatch  # noqa: N815 (http.server API)

    def _handle_counted(self, method: str) -> None:
        url = urlsplit(self.path)
        parts = [p for p in url.path.split("/") if p]
        endpoint = self._endpoint_name(parts)
        registry = get_registry()
        registry.counter("service.requests").inc()
        registry.counter(f"service.requests.{endpoint}").inc()
        start = time.perf_counter()
        status = 500
        try:
            status, body, content_type = self._route(
                method, parts, parse_qs(url.query))
            self._send(status, body, content_type)
        except ServiceError as exc:
            status = exc.status
            self._send_json(status, error_body(exc.code, exc.message,
                                               exc.detail))
        except BrokenPipeError:
            status = 0  # client went away; nothing to answer
        except Exception as exc:  # never an HTML traceback
            status = 500
            self._send_json(status, error_body(
                "internal", f"{type(exc).__name__}: {exc}"))
        finally:
            elapsed = time.perf_counter() - start
            registry.histogram("service.latency.seconds",
                               SERVICE_LATENCY_BUCKETS).observe(elapsed)
            registry.histogram(f"service.latency.{endpoint}.seconds",
                               SERVICE_LATENCY_BUCKETS).observe(elapsed)
            if status >= 400:
                registry.counter("service.errors").inc()
            elif (endpoint not in _PROBE_ENDPOINTS
                  and self.server.first_request.acquire(blocking=False)):
                # What the cold snapshot frame cost the request that
                # built it; every later request shares the frame.
                registry.gauge("service.first_request.seconds").set(
                    elapsed)

    @staticmethod
    def _endpoint_name(parts: list[str]) -> str:
        """The telemetry label for a path: the route family, never the
        raw path (no label-cardinality explosion from bad URLs)."""
        if parts == ["metrics"]:
            return "metrics"
        if len(parts) >= 3 and parts[:2] == ["api", "v1"]:
            name = parts[2]
            if name in ("health", "systems", "clusters", "report",
                        "query", "timeseries", "refresh", "federation",
                        "live"):
                return name
        return "unknown"

    def _route(self, method: str, parts: list[str],
               params: dict[str, list[str]]) -> tuple[int, bytes, str]:
        state: ServiceState = self.server.state
        if parts == ["metrics"]:
            if method != "GET":
                raise ServiceError("method_not_allowed",
                                   "/metrics is GET-only")
            state.snapshot_age_seconds()  # freshen the staleness gauge
            text = to_prometheus(get_registry().snapshot())
            return 200, text.encode(), "text/plain; version=0.0.4"

        if len(parts) < 3 or parts[:2] != ["api", "v1"]:
            raise ServiceError("unknown_endpoint",
                               f"no such endpoint {self.path!r}")
        head, tail = parts[2], parts[3:]

        if head == "refresh" and not tail:
            if method != "POST":
                raise ServiceError("method_not_allowed",
                                   "refresh is POST-only")
            return self._json_ok(state.refresh())

        if method != "GET":
            raise ServiceError("method_not_allowed",
                               f"{head} is GET-only")
        if head == "health" and not tail:
            return self._json_ok(state.health())
        if head == "systems" and not tail:
            return self._json_ok(state.systems())
        if head == "clusters" and not tail:
            return self._json_ok(state.clusters(
                cluster=one_param(params, "cluster")))
        if head == "federation" and tail == ["overview"]:
            return self._json_ok(state.federation_overview(
                tenant=self._tenant(params)))
        if head == "report" and len(tail) == 1:
            return self._json_ok(state.report(
                kind=tail[0],
                system=one_param(params, "system"),
                target=one_param(params, "target"),
                tenant=self._tenant(params)))
        if head == "query" and tail == ["group_by"]:
            return self._json_ok(state.group_by(
                system=one_param(params, "system"),
                dimension=one_param(params, "dimension"),
                metrics=csv_tuple(one_param(params, "metrics")),
                tenant=self._tenant(params)))
        if head == "timeseries" and len(tail) == 1:
            return self._json_ok(state.timeseries(
                system=one_param(params, "system"),
                series=tail[0],
                tenant=self._tenant(params)))
        if head == "live" and tail == ["top"]:
            return self._json_ok(state.live_top(
                system=one_param(params, "system"),
                n=self._int_param(params, "n", 5),
                order_by=one_param(params, "metric", "flops_gf"),
                user=one_param(params, "user"),
                app=one_param(params, "app"),
                client=self._tenant(params)))
        if head == "live" and tail == ["watch"]:
            since = one_param(params, "since")
            return self._json_ok(state.live_watch(
                system=one_param(params, "system"),
                since=self._float_param(params, "since")
                if since is not None else None,
                timeout=self._float_param(params, "timeout", 15.0)))
        raise ServiceError("unknown_endpoint",
                           f"no such endpoint {self.path!r}")

    @staticmethod
    def _int_param(params: dict[str, list[str]], name: str,
                   default: int) -> int:
        raw = one_param(params, name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ServiceError(
                "bad_request",
                f"{name} must be an integer, got {raw!r}") from None

    @staticmethod
    def _float_param(params: dict[str, list[str]], name: str,
                     default: float = 0.0) -> float:
        raw = one_param(params, name)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ServiceError(
                "bad_request",
                f"{name} must be a finite number, got {raw!r}")
        return value

    @staticmethod
    def _json_ok(body: dict) -> tuple[int, bytes, str]:
        return 200, json_body(body), "application/json"


def make_server(state: ServiceState, host: str = "127.0.0.1",
                port: int = 0) -> ReproServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port
    (tests and the latency bench bind this way)."""
    return ReproServer((host, port), state)
