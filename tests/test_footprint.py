"""What a run loads: numpy, scipy's HiGHS extension and the stdlib;
and what a scenario build leaves behind.

Each import check runs in a fresh interpreter, because this test process
has imported everything already.  ``scipy.optimize`` (with the
``scipy.sparse`` and ``scipy.linalg`` its init pulls in), networkx and
``http.server`` are what ``import repro`` used to cost every batch run,
service and sweep worker.  An all-pairs route table or a dict per
request is what a production-scale build used to leave in memory for
the rest of the process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.request import ByteRequest
from repro.network import production_wan
from repro.traffic import calibrate_tm, synthesize_tm_series

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules no run needs.
UNUSED = ("scipy.optimize", "scipy.sparse", "networkx", "http.server")


def python(code: str):
    """Run ``code`` with ``repro`` importable; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_a_run_loads_no_module_it_does_not_use():
    loaded = python("""
        import json, sys
        import repro
        repro.run("Pretium", "tiny")
        repro.run("OPT", "tiny")
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [name for name in UNUSED if name in loaded] == []


def test_a_service_loads_no_event_loop():
    """The service is one owner thread behind a queue: serving a run
    loads neither asyncio nor the ssl and selectors it would bring."""
    loaded = python("""
        import json, sys
        import repro.service
        from repro.service import generate_load
        with repro.serve("Pretium", "tiny") as svc:
            requests = sorted(svc.scenario.workload.requests,
                              key=lambda r: (r.arrival, r.rid))
            report = generate_load(svc.service, requests, price_checks=1)
            svc.close()
        assert report.errors == 0 and report.answered == len(requests)
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [name for name in ("asyncio", "ssl", "selectors")
            if name in loaded] == []


@pytest.mark.parametrize("scipy_first", [True, False],
                         ids=["scipy-first", "repro-first"])
def test_scipy_optimize_shares_the_highs_bindings(scipy_first):
    """One copy of the pybind11 extension, whichever side loads first,
    and both ``linprog`` and ``repro.lp`` solve beside it."""
    imports = ["import scipy.optimize", "import repro.lp.solver"]
    if not scipy_first:
        imports.reverse()
    shared = python("\n".join(imports) + """
import json
import repro
from repro.lp import LE, Model
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
theirs = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                 method="highs")
model = Model(sense="max", name="m")
x = model.add_variables_array(2, "x", ub=1.0)
model.add_constraints_coo([0, 0], x.indices, [1.0, 1.0], LE, [1.5])
model.set_objective_coo(x.indices, [1.0, 2.0])
print(json.dumps({"same": _core is repro.lp.solver._core,
                  "linprog": [theirs.status, theirs.fun],
                  "repro": model.solve().objective}))
""")
    assert shared == {"same": True, "linprog": [0, 1.0], "repro": 2.5}


def test_calibration_stores_no_route_per_pair():
    topology = production_wan(seed=0)
    calibrate_tm(topology, synthesize_tm_series(topology, 4, 4, seed=0))
    table = topology.route_table
    assert table is None or (table[1] == {} and table[2] == set())


def test_a_request_carries_no_instance_dict():
    request = ByteRequest(0, "a", "b", 1.0, 0, 0, 0, 1.0)
    assert not hasattr(request, "__dict__")
