"""Route shapes are compiled once per topology, not once per run.

Every :class:`~repro.network.paths.RouteShape` and incidence template
lives in the topology's route table, so a second run over the same
scenario compiles none, and hands HiGHS byte-identical LPs.
"""

import pytest

import repro
from repro.experiments.scenarios import quick_scenario
from repro.network.paths import RouteShape
from tests.tools.lp_digest import digest


@pytest.mark.parametrize("routing, kill", [("kpaths", False),
                                           ("flowlet", True)])
def test_a_second_run_compiles_no_shape_and_solves_the_same_lps(
        routing, kill, monkeypatch):
    scenario = quick_scenario(seed=0)
    link = scenario.topology.links[0]
    options = repro.RunOptions(
        routing=routing,
        link_kills=f"{link.src}>{link.dst}@2" if kill else None)

    def run():
        repro.run("Pretium", scenario, options=options)

    solves, first = digest(run)
    assert solves > 0
    shapes = dict(scenario.topology.route_table[3])
    assert shapes

    built = []
    compile_shape, compile_template = RouteShape.__init__, \
        RouteShape.incidence

    def counting_init(self, key):
        built.append(("shape", key))
        compile_shape(self, key)

    def counting_incidence(self, n):
        if n not in self._incidence:
            built.append(("template", n))
        return compile_template(self, n)

    monkeypatch.setattr(RouteShape, "__init__", counting_init)
    monkeypatch.setattr(RouteShape, "incidence", counting_incidence)
    assert digest(run) == (solves, first)
    assert built == []
    assert scenario.topology.route_table[3] == shapes
