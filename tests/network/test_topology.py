"""Unit tests for the topology model."""

import pytest

from repro.network import Link, Topology


def build_triangle() -> Topology:
    t = Topology(name="tri")
    t.add_link("a", "b", 10.0)
    t.add_link("b", "c", 5.0, metered=True, cost_per_unit=2.0)
    t.add_link("c", "a", 7.0)
    return t


def test_add_link_registers_nodes():
    t = build_triangle()
    assert set(t.nodes) == {"a", "b", "c"}
    assert t.num_nodes == 3
    assert t.num_links == 3


def test_link_lookup():
    t = build_triangle()
    link = t.link_between("b", "c")
    assert link.capacity == 5.0
    assert link.metered
    assert link.cost_per_unit == 2.0
    assert t.link(link.index) is link
    assert t.has_link("a", "b")
    assert not t.has_link("b", "a")


def test_link_key_and_repr():
    t = build_triangle()
    link = t.link_between("a", "b")
    assert link.key == ("a", "b")
    assert "a->b" in repr(link)
    assert "metered" in repr(t.link_between("b", "c"))


def test_duplicate_link_rejected():
    t = build_triangle()
    with pytest.raises(ValueError):
        t.add_link("a", "b", 1.0)


def test_self_loop_rejected():
    t = Topology()
    with pytest.raises(ValueError):
        t.add_link("a", "a", 1.0)


def test_bad_capacity_rejected():
    t = Topology()
    with pytest.raises(ValueError):
        t.add_link("a", "b", 0.0)
    with pytest.raises(ValueError):
        t.add_link("a", "b", -1.0)


def test_negative_cost_rejected():
    with pytest.raises(ValueError):
        Link(0, "a", "b", 1.0, True, -0.5)


def test_duplex_link():
    t = Topology()
    fwd, rev = t.add_duplex_link("x", "y", 8.0, metered=True,
                                 cost_per_unit=1.5)
    assert fwd.key == ("x", "y")
    assert rev.key == ("y", "x")
    assert rev.metered and rev.cost_per_unit == 1.5


def test_metered_links():
    t = build_triangle()
    assert [l.key for l in t.metered_links()] == [("b", "c")]


def test_regions():
    t = Topology()
    t.add_node("a", region="us")
    t.add_node("b", region="eu")
    t.add_node("c")
    assert t.region_of("a") == "us"
    assert t.region_of("c") is None
    assert t.regions() == {"a": "us", "b": "eu"}


def test_contains_and_iter():
    t = build_triangle()
    assert "a" in t
    assert "z" not in t
    assert len(list(t)) == 3


def test_to_networkx_preserves_attributes():
    t = build_triangle()
    g = t.to_networkx()
    assert g.number_of_nodes() == 3
    assert g.edges["b", "c"]["metered"] is True
    assert g.edges["b", "c"]["capacity"] == 5.0


def test_strong_connectivity():
    t = build_triangle()
    assert t.is_strongly_connected()
    t2 = Topology()
    t2.add_link("a", "b", 1.0)
    assert not t2.is_strongly_connected()
    assert Topology().is_strongly_connected()


def test_scaled_costs():
    t = build_triangle()
    t2 = t.scaled_costs(2.0)
    assert t2.link_between("b", "c").cost_per_unit == 4.0
    assert t2.link_between("a", "b").cost_per_unit == 0.0
    assert t2.num_links == t.num_links
    # original untouched
    assert t.link_between("b", "c").cost_per_unit == 2.0
    with pytest.raises(ValueError):
        t.scaled_costs(-1.0)
