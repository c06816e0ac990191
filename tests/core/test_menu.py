"""Tests for price menus: convexity, marginals, best response (Thm 5.2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MenuSegment, PriceMenu
from repro.network import Path
from tests.builders import line_network


def _path():
    topo = line_network(2, capacity=100.0)
    return Path((topo.link_between("n0", "n1"),))


def make_menu(specs, best_effort=True):
    path = _path()
    segments = [MenuSegment(q, p, path, t) for q, p, t in specs]
    return PriceMenu(segments, best_effort=best_effort)


def test_empty_menu():
    menu = PriceMenu([])
    assert not menu.segments
    assert menu.max_guaranteed == 0.0
    assert menu.price(0.0) == 0.0
    assert menu.price(1.0) == math.inf
    assert menu.marginal(0.0) == math.inf
    assert menu.best_response(10.0, 5.0) == 0.0


def test_price_accumulates_segments():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    assert menu.price(0) == 0.0
    assert menu.price(1) == 1.0
    assert menu.price(2) == 2.0
    assert menu.price(3) == 4.0
    assert menu.price(5) == 8.0


def test_price_beyond_guarantee_uses_best_effort_rate():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    assert menu.max_guaranteed == 5.0
    assert menu.best_effort_price == 2.0
    assert menu.price(7.0) == pytest.approx(8.0 + 2 * 2.0)


def test_price_beyond_guarantee_infinite_without_best_effort():
    menu = make_menu([(2.0, 1.0, 0)], best_effort=False)
    assert menu.price(3.0) == math.inf
    assert menu.marginal(2.5) == math.inf


def test_marginal_steps():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    assert menu.marginal(0.0) == 1.0
    assert menu.marginal(1.999) == 1.0
    assert menu.marginal(2.0) == 2.0
    assert menu.marginal(4.999) == 2.0
    assert menu.marginal(5.0) == 2.0  # best-effort extends at last price


def test_segments_must_be_sorted():
    with pytest.raises(ValueError):
        make_menu([(1.0, 3.0, 0), (1.0, 1.0, 1)])


def test_segment_validation():
    path = _path()
    with pytest.raises(ValueError):
        MenuSegment(0.0, 1.0, path, 0)
    with pytest.raises(ValueError):
        MenuSegment(1.0, -1.0, path, 0)


def test_negative_volume_rejected():
    menu = make_menu([(1.0, 1.0, 0)])
    with pytest.raises(ValueError):
        menu.price(-1.0)
    with pytest.raises(ValueError):
        menu.marginal(-0.1)
    with pytest.raises(ValueError):
        menu.guaranteed_prefix(-2.0)


def test_best_response_theorem_5_2():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    # value below the cheapest price: buy nothing
    assert menu.best_response(0.5, 10.0) == 0.0
    # value covers only the first segment
    assert menu.best_response(1.5, 10.0) == 2.0
    # value covers everything incl. best-effort: buy full demand
    assert menu.best_response(2.5, 10.0) == 10.0
    # demand binds first
    assert menu.best_response(2.5, 1.5) == 1.5
    assert menu.best_response(2.5, 0.0) == 0.0


def test_best_response_no_best_effort_caps_at_guarantee():
    menu = make_menu([(2.0, 1.0, 0)], best_effort=False)
    assert menu.best_response(5.0, 10.0) == 2.0


def test_guaranteed_prefix():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    prefix = menu.guaranteed_prefix(3.5)
    assert len(prefix) == 2
    assert prefix[0][1] == 2.0
    assert prefix[1][1] == 1.5
    assert sum(v for _, v in prefix) == pytest.approx(3.5)
    # beyond the guarantee: prefix covers only x-bar
    prefix = menu.guaranteed_prefix(99.0)
    assert sum(v for _, v in prefix) == pytest.approx(5.0)


def test_breakpoints():
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1)])
    assert menu.breakpoints() == [(2.0, 1.0), (5.0, 2.0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.1, max_value=10.0),
                          st.floats(min_value=0.0, max_value=5.0)),
                min_size=1, max_size=6))
def test_menu_convexity_property(raw):
    """p is non-decreasing and convex; lambda is non-decreasing."""
    specs = [(q, p, i) for i, (q, p) in
             enumerate(sorted(raw, key=lambda s: s[1]))]
    menu = make_menu(specs)
    xs = [0.0]
    for q, _, _ in specs:
        xs.append(xs[-1] + q / 2)
        xs.append(xs[-1] + q / 2)
    prices = [menu.price(x) for x in xs]
    marginals = [menu.marginal(x) for x in xs]
    for a, b in zip(prices, prices[1:]):
        assert b >= a - 1e-9
    for a, b in zip(marginals, marginals[1:]):
        assert b >= a - 1e-9
    # convexity: marginal cost of [x, x+h] non-decreasing in x
    h = 0.05
    increments = [menu.price(x + h) - menu.price(x) for x in xs]
    for a, b in zip(increments, increments[1:]):
        assert b >= a - 1e-9


@settings(max_examples=60, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=6.0),
       demand=st.floats(min_value=0.1, max_value=12.0))
def test_best_response_maximises_utility_property(value, demand):
    """The Thm 5.2 choice is utility-optimal over a dense grid."""
    menu = make_menu([(2.0, 1.0, 0), (3.0, 2.0, 1), (1.0, 4.0, 2)])
    chosen = menu.best_response(value, demand)
    best_utility = value * chosen - menu.price(chosen)
    for i in range(101):
        x = demand * i / 100
        utility = value * x - menu.price(x)
        assert best_utility >= utility - 1e-6
