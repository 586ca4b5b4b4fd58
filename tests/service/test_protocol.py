"""Protocol conformance: every failure is structured JSON.

The dashboard contract is that a client can branch on a stable
``error.code`` for any failure — bad parameters, unknown names, wrong
methods — and that no response body ever carries an HTML error page or
a Python traceback.
"""

from __future__ import annotations

import pytest

from repro.service.protocol import ERROR_STATUS, ServiceError
from tests.service.conftest import SYSTEM


def assert_error(status, body, code):
    """One structured-error response: right code, right status, no
    traceback leakage."""
    assert status == ERROR_STATUS[code]
    assert body["error"]["code"] == code
    assert body["error"]["message"]
    assert "Traceback" not in str(body)


def test_unknown_realm_rejected(client):
    status, body = client.get(f"/api/v1/report/wizard?system={SYSTEM}")
    assert_error(status, body, "unknown_realm")
    assert "support" in body["error"]["detail"]["known"]


def test_unknown_metric_rejected(client):
    status, body = client.get(
        f"/api/v1/query/group_by?system={SYSTEM}"
        f"&dimension=user&metrics=flops2")
    assert_error(status, body, "unknown_metric")
    assert "cpu_idle" in body["error"]["detail"]["known"]


def test_unknown_dimension_rejected(client):
    status, body = client.get(
        f"/api/v1/query/group_by?system={SYSTEM}&dimension=favourite")
    assert_error(status, body, "unknown_dimension")


def test_unknown_system_rejected(client):
    status, body = client.get("/api/v1/report/support?system=bluewaters")
    assert_error(status, body, "unknown_system")
    assert body["error"]["detail"]["known"] == [SYSTEM]


def test_unknown_series_rejected(client):
    status, body = client.get(f"/api/v1/timeseries/nosuch?system={SYSTEM}")
    assert_error(status, body, "unknown_series")


def test_missing_target_rejected(client):
    status, body = client.get(f"/api/v1/report/user?system={SYSTEM}")
    assert_error(status, body, "missing_target")


def test_unexpected_target_rejected(client):
    status, body = client.get(
        f"/api/v1/report/support?system={SYSTEM}&target=user0001")
    assert_error(status, body, "unexpected_target")


def test_missing_system_rejected(client):
    status, body = client.get("/api/v1/report/support")
    assert_error(status, body, "missing_param")


def test_unknown_target_is_bad_request_not_500(client):
    """A nonexistent user inside a valid realm is a client error with
    the underlying message, never an internal error."""
    status, body = client.get(
        f"/api/v1/report/user?system={SYSTEM}&target=nobody9999")
    assert_error(status, body, "bad_request")


def test_unknown_endpoint_rejected(client):
    for path in ("/", "/api", "/api/v1/nope", "/api/v2/health"):
        status, body = client.get(path)
        assert_error(status, body, "unknown_endpoint")


def test_method_not_allowed(client):
    status, body = client.post(f"/api/v1/report/support?system={SYSTEM}")
    assert_error(status, body, "method_not_allowed")
    status, body = client.get("/api/v1/refresh")
    assert_error(status, body, "method_not_allowed")


def test_repeated_parameter_rejected(client):
    status, body = client.get(
        f"/api/v1/report/support?system={SYSTEM}&system={SYSTEM}")
    assert_error(status, body, "bad_request")


@pytest.mark.parametrize("query", [
    "since=nan&timeout=0", "since=inf&timeout=0", "since=-inf&timeout=0",
    "since=0&timeout=nan", "timeout=inf", "since=x&timeout=0",
])
def test_watch_rejects_a_non_finite_number(client, query):
    """``nan`` / ``inf`` parse as floats, but a watcher asking from
    such a ``since`` would never wake: every one is a bad request."""
    status, body = client.get(f"/api/v1/live/watch?system={SYSTEM}&{query}")
    assert_error(status, body, "bad_request")


def test_service_error_requires_registered_code():
    with pytest.raises(ValueError):
        ServiceError("made_up_code", "nope")


def test_error_statuses_are_http_errors():
    assert all(400 <= s < 600 for s in ERROR_STATUS.values())


def test_overlong_tenant_rejected(client):
    status, body = client.get(
        f"/api/v1/report/support?system={SYSTEM}",
        headers={"X-Tenant": "t" * 200})
    assert_error(status, body, "bad_request")
    status, body = client.get(
        f"/api/v1/report/support?system={SYSTEM}&tenant={'t' * 200}")
    assert_error(status, body, "bad_request")


def test_valid_tenant_rules():
    from repro.service.protocol import MAX_TENANT_LEN, valid_tenant

    assert valid_tenant("acct-team") == "acct-team"
    assert valid_tenant("t" * MAX_TENANT_LEN) == "t" * MAX_TENANT_LEN
    for bad in ("", "t" * (MAX_TENANT_LEN + 1), "a\x00b", "a\nb"):
        with pytest.raises(ServiceError) as err:
            valid_tenant(bad)
        assert err.value.code == "bad_request"
