"""``route_incidence`` read off a route shape's compiled template equals
the per-route build it replaced (``tests/reference/lp_builders.py``), in
value and dtype, for every step layout the LP builders hand it:
contiguous spans (SAM, PC, offline), masked spans (PeakOracle's allowed
steps) and empty ones.  A link kill under a dynamic routing policy must
never leave a template of the old route set in use.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NetworkState, PretiumConfig
from repro.lp.grouping import route_incidence
from repro.network import parallel_paths_network
from repro.network.paths import RouteShape
from tests.reference.lp_builders import route_incidence as reference


def _route(indices):
    """Just what both builders read of a path: its link ids."""
    indices = tuple(indices)
    return SimpleNamespace(link_indices=lambda: indices)


def assert_same_arrays(got, want):
    for mine, theirs in zip(got, want, strict=True):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)


route_sets = st.lists(
    st.lists(st.integers(0, 15), min_size=1, max_size=6, unique=True),
    min_size=1, max_size=3)


@st.composite
def step_layouts(draw):
    first = draw(st.integers(0, 20))
    steps = np.arange(first, first + draw(st.integers(0, 12)))
    layout = draw(st.sampled_from(["contiguous", "masked", "empty"]))
    if layout == "masked":
        allowed = draw(st.sets(st.integers(0, 32)))
        steps = steps[[t in allowed for t in steps.tolist()]]
    elif layout == "empty":
        steps = steps[:0]
    return steps


@settings(max_examples=200, deadline=None)
@given(key=route_sets, steps=step_layouts(), again=step_layouts())
def test_template_incidence_equals_per_route_build(key, steps, again):
    routes = [_route(indices) for indices in key]
    shape = RouteShape(tuple(tuple(indices) for indices in key))
    for span in (steps, again, steps):  # the third call is a memo hit
        got = route_incidence(shape, span)
        assert_same_arrays(got, reference(routes, span))
        links, _steps, variables = got
        assert not links.flags.writeable and not variables.flags.writeable
    template = shape.incidence(steps.size)
    assert shape.incidence(steps.size) is template
    assert not any(array.flags.writeable for array in template)


@pytest.mark.parametrize("policy", ["ecmp", "flowlet"])
def test_fail_link_never_serves_a_stale_template(policy):
    topology = parallel_paths_network(10.0, 10.0)
    state = NetworkState(topology, 6, PretiumConfig(routing=policy))
    steps = np.arange(1, 5)
    rids = range(8)
    for rid in rids:  # compile every shape and template once
        route_incidence(state.paths.shape(
            state.paths.routes("S", "T", rid=rid)), steps)
    dead = topology.link_between("S", "M1").index
    state.fail_link("S", "M1", 0)
    for rid in rids:
        routes = state.paths.routes("S", "T", rid=rid)
        got = route_incidence(state.paths.shape(routes), steps)
        assert_same_arrays(got, reference(routes, steps))
        assert dead not in got[0]
