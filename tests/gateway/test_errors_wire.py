"""The error taxonomy survives the trip through structured responses.

Satellite guarantee: a remote client can re-raise exactly the exception
the gateway caught -- type, message and structured fields included.
"""

import pytest

from repro.errors import (
    BrowseError,
    EstimatorFailedError,
    InvalidRegionError,
    OverloadedError,
    SummaryCorruptError,
    TenantQuotaExceededError,
)
from repro.gateway.gateway import decode_error, encode_error

ROUND_TRIPS = [
    BrowseError("something structured"),
    InvalidRegionError("bad region"),
    EstimatorFailedError("estimator down"),
    SummaryCorruptError("checksum mismatch"),
    OverloadedError("shed", retry_after_s=0.25),
    OverloadedError("shutdown shed", retry_after_s=None),
    TenantQuotaExceededError("quota", retry_after_s=0.1, tenant="acme"),
]


@pytest.mark.parametrize("exc", ROUND_TRIPS, ids=lambda e: type(e).__name__)
def test_encode_decode_round_trip(exc):
    doc = encode_error(exc)
    rebuilt = decode_error(doc)
    assert type(rebuilt) is type(exc)
    assert str(rebuilt) == str(exc)


def test_structured_fields_survive():
    shed = decode_error(encode_error(OverloadedError("shed", retry_after_s=1.5)))
    assert shed.retry_after_s == 1.5

    quota = decode_error(
        encode_error(TenantQuotaExceededError("q", retry_after_s=0.2, tenant="beta"))
    )
    assert quota.tenant == "beta"
    assert quota.retry_after_s == 0.2


def test_subclass_encodes_as_its_own_code_not_the_parents():
    assert encode_error(TenantQuotaExceededError("q"))["code"] == "tenant_quota_exceeded"
    assert encode_error(OverloadedError("o"))["code"] == "overloaded"
    assert encode_error(InvalidRegionError("i"))["code"] == "invalid_region"


def test_decoded_errors_keep_taxonomy_relationships():
    quota = decode_error({"code": "tenant_quota_exceeded", "message": "q"})
    # One except clause for both backpressure kinds -- the wire trip
    # must not break the inheritance contract.
    assert isinstance(quota, OverloadedError)
    assert isinstance(quota, BrowseError)
    invalid = decode_error({"code": "invalid_region", "message": "i"})
    assert isinstance(invalid, ValueError)


def test_unknown_code_degrades_to_base_browse_error():
    exc = decode_error({"code": "???", "message": "m"})
    assert type(exc) is BrowseError
    assert str(exc) == "m"
