"""Request validation: a request that cannot be served fails on creation,
naming its rid and what is wrong with it."""

import math

import pytest

from repro.core.request import ByteRequest

BYTE = dict(rid=7, src="A", dst="B", demand=2.0, arrival=0, start=1,
            deadline=3, value=1.5)


@pytest.mark.parametrize("change, says", [
    (dict(demand=math.nan), "demand must be finite"),
    (dict(demand=math.inf), "demand must be finite"),
    (dict(demand=-math.inf), "demand must be finite"),
    (dict(value=math.nan), "value must be finite"),
    (dict(value=math.inf), "value must be finite"),
    (dict(dst="A"), "src == dst"),
    (dict(demand=0.0), "demand must be positive"),
    (dict(value=-1.0), "negative value"),
    (dict(deadline=0), "before start"),
    (dict(arrival=2), "starts before arrival"),
    (dict(arrival=-3, start=-2, deadline=2), "negative arrival -3"),
    (dict(arrival=-1, start=0), "negative arrival -1"),
])
def test_byte_request_rejects(change, says):
    with pytest.raises(ValueError, match=f"request 7: .*{says}"):
        ByteRequest(**{**BYTE, **change})


def test_valid_requests_are_accepted():
    assert ByteRequest(**BYTE).window == range(1, 4)
    assert ByteRequest(**{**BYTE, "value": 0.0}).total_value == 0.0
    edge = ByteRequest(**{**BYTE, "start": 0, "deadline": 0})
    assert edge.window == range(0, 1)


@pytest.mark.parametrize("change, says", [
    (dict(demand=math.nan, dst="A"), "demand must be finite"),
    (dict(dst="A", demand=0.0), "src == dst"),
    (dict(demand=-1.0, value=-1.0), "demand must be positive"),
    (dict(value=-1.0, deadline=0), "negative value"),
    (dict(deadline=0, arrival=2), "before start"),
    (dict(arrival=-2, start=-3), "starts before arrival"),
])
def test_byte_request_names_the_first_check_it_fails(change, says):
    with pytest.raises(ValueError, match=f"request 7: .*{says}"):
        ByteRequest(**{**BYTE, **change})
