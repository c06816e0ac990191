"""Tests for customer behaviour models (§5)."""

import pytest

from repro.core import (AllOrNothingUser, BestResponseUser, ByteRequest,
                        MenuSegment, PriceMenu, UserModel)
from repro.network import Path
from tests.builders import line_network


def menu_of(specs, best_effort=True):
    topo = line_network(2, capacity=100.0)
    path = Path((topo.link_between("n0", "n1"),))
    return PriceMenu([MenuSegment(q, p, path, t) for q, p, t in specs],
                     best_effort=best_effort)


def request(value, demand=10.0):
    return ByteRequest(1, "a", "b", demand, 0, 0, 3, value)


def test_best_response_matches_menu():
    user = BestResponseUser()
    menu = menu_of([(4.0, 1.0, 0), (4.0, 3.0, 1)])
    assert user.choose(request(2.0), menu) == 4.0
    assert user.choose(request(5.0), menu) == 10.0
    assert user.choose(request(0.5), menu) == 0.0


def test_all_or_nothing_accepts_good_deal():
    user = AllOrNothingUser()
    menu = menu_of([(10.0, 1.0, 0)])
    assert user.choose(request(2.0, demand=10.0), menu) == 10.0


def test_all_or_nothing_rejects_costly_deal():
    user = AllOrNothingUser()
    menu = menu_of([(10.0, 3.0, 0)])
    assert user.choose(request(2.0, demand=10.0), menu) == 0.0


def test_all_or_nothing_rejects_partial_guarantee():
    user = AllOrNothingUser()
    menu = menu_of([(6.0, 0.1, 0)])  # cheap but only 6 < 10 guaranteed
    assert user.choose(request(2.0, demand=10.0), menu) == 0.0


def test_all_or_nothing_accepts_mixed_price_if_worth_it():
    user = AllOrNothingUser()
    menu = menu_of([(5.0, 1.0, 0), (5.0, 2.0, 1)])
    # total price 15 for 10 units, value 2/unit -> utility +5
    assert user.choose(request(2.0, demand=10.0), menu) == 10.0


def test_utility_helper():
    menu = menu_of([(4.0, 1.0, 0)])
    req = request(3.0, demand=4.0)
    assert UserModel.utility(req, menu, 4.0) == pytest.approx(12.0 - 4.0)
    assert UserModel.utility(req, menu, 4.0, delivered=2.0) == \
        pytest.approx(6.0 - 2.0)
    # delivery beyond the choice doesn't add utility
    assert UserModel.utility(req, menu, 4.0, delivered=9.0) == \
        pytest.approx(8.0)
