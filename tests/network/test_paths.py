"""Unit tests for path computation and the route cache."""

import pickle

import pytest

from repro.network import (Path, PathCache, Topology, k_shortest_paths,
                           line_network, parallel_paths_network)


def test_path_construction_and_nodes():
    t = line_network(4)
    links = (t.link_between("n0", "n1"), t.link_between("n1", "n2"))
    p = Path(links)
    assert p.nodes == ("n0", "n1", "n2")
    assert p.src == "n0"
    assert p.dst == "n2"
    assert p.hop_count == 2
    assert len(p) == 2
    assert p.link_indices() == (links[0].index, links[1].index)


def test_path_rejects_broken_chain():
    t = parallel_paths_network()
    with pytest.raises(ValueError):
        Path((t.link_between("S", "M1"), t.link_between("M2", "T")))
    with pytest.raises(ValueError):
        Path(())


def test_path_equality_and_hash():
    t = line_network(3)
    links = (t.link_between("n0", "n1"), t.link_between("n1", "n2"))
    assert Path(links) == Path(links)
    assert len({Path(links), Path(links)}) == 1


def test_k_shortest_on_parallel_paths():
    t = parallel_paths_network()
    paths = k_shortest_paths(t, "S", "T", k=5)
    assert len(paths) == 2
    assert all(p.hop_count == 2 for p in paths)
    middles = {p.nodes[1] for p in paths}
    assert middles == {"M1", "M2"}


def test_k_shortest_respects_k():
    t = parallel_paths_network()
    assert len(k_shortest_paths(t, "S", "T", k=1)) == 1


def test_k_shortest_orders_by_hops():
    t = parallel_paths_network()
    # add a longer detour S->X->M1 making a 3-hop path
    t.add_link("S", "X", 5.0)
    t.add_link("X", "M1", 5.0)
    paths = k_shortest_paths(t, "S", "T", k=3)
    assert [p.hop_count for p in paths] == [2, 2, 3]


def test_k_shortest_no_path():
    t = Topology()
    t.add_node("a")
    t.add_node("b")
    t.add_link("b", "a", 1.0)
    assert k_shortest_paths(t, "a", "b", k=2) == []


def test_k_shortest_validates_input():
    t = line_network(3)
    with pytest.raises(KeyError):
        k_shortest_paths(t, "n0", "zz", k=1)
    with pytest.raises(ValueError):
        k_shortest_paths(t, "n0", "n0", k=1)
    with pytest.raises(ValueError):
        k_shortest_paths(t, "n0", "n1", k=0)


def test_path_cache_memoises():
    t = parallel_paths_network()
    cache = PathCache(t, k=2)
    first = cache.routes("S", "T")
    second = cache.routes("S", "T")
    assert first == second
    assert len(cache) == 1


def test_path_cache_returns_copies():
    t = parallel_paths_network()
    cache = PathCache(t, k=2)
    routes = cache.routes("S", "T")
    routes.clear()
    assert len(cache.routes("S", "T")) == 2


def test_path_cache_warm():
    t = parallel_paths_network()
    cache = PathCache(t, k=1)
    cache.warm([("S", "T"), ("S", "M1")])
    assert len(cache) == 2


def test_path_cache_validates_k():
    with pytest.raises(ValueError):
        PathCache(parallel_paths_network(), k=0)


def test_path_memoises_link_indices_and_survives_pickling():
    """Sweep workers receive paths pickled; the memo rides along (or is
    rebuilt) and identity is still the link-index tuple."""
    t = line_network(4)
    p = k_shortest_paths(t, "n0", "n3", k=1)[0]
    for path in (p, pickle.loads(pickle.dumps(p))):  # memo unset, then set
        clone = pickle.loads(pickle.dumps(path))
        assert clone == p and hash(clone) == hash(p)
        assert clone.link_indices() == (0, 1, 2)
        assert clone.link_indices() is clone.link_indices()
    assert p.link_indices() is p.link_indices()


def test_shape_is_compiled_once_per_route_set_and_dropped_by_refresh():
    cache = PathCache(parallel_paths_network(), k=2, policy="flowlet")
    both = cache.routes("S", "T")
    shape = cache.shape(both)
    assert shape.links.tolist() == [0, 1, 2, 3]
    assert not shape.links.flags.writeable
    assert shape.cols == ((0, 1), (2, 3))
    assert shape.touches == ((0,), (1,))  # disjoint routes
    assert cache.shape(cache.routes("S", "T")) is shape
    # Flowlets pinned to the same candidate share one entry.
    pinned = {id(cache.shape(cache.routes("S", "T", rid=rid)))
              for rid in range(20)}
    assert len(pinned) == 2
    cache.refresh(dead=[("S", "M1")])
    assert cache.shape(cache.routes("S", "T")) is not shape
    assert cache.shape(cache.routes("S", "T")).links.tolist() == [2, 3]


def test_shape_touches_lists_routes_sharing_a_link():
    t = Topology(name="shared-tail")
    for src, dst in (("A", "B"), ("A", "C"), ("C", "B"), ("B", "D")):
        t.add_link(src, dst, 10.0)
    cache = PathCache(t, k=2)
    direct, detour = cache.routes("A", "D")
    assert (direct.hop_count, detour.hop_count) == (2, 3)
    shape = cache.shape([direct, detour])
    assert shape.cols == ((0, 3), (1, 2, 3))
    assert shape.touches == ((0, 1), (0, 1))
