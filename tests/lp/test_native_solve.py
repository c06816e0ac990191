"""The array-native HiGHS lane against the ``linprog`` route it replaced.

The contract is byte identity, not objective equality: the schedule LPs
are degenerate, so anything that reorders a row or perturbs a
coefficient can move HiGHS to another optimal vertex — another plan,
other duals, other prices.  Four layers:

- every LP a real run solves reaches HiGHS as the same bytes the
  reference route (``tests/reference/lp.py``: the parent's ``_assemble``
  + ``scipy.optimize.linprog``) handed it, and comes back as the same
  ``x``, duals and objective;
- Hypothesis LPs (free / boxed / fixed variables, all three senses,
  empty blocks, infeasible and unbounded instances) agree with the
  reference in result or in exception class;
- the guards ``linprog`` applied are still applied;
- the batched emitters of :mod:`repro.lp.grouping` build the models the
  parent's per-contract / per-window loops built
  (``tests/reference/lp_builders.py``).
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.optimize._linprog_highs as scipy_highs
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._linprog_util import _check_result

import repro
from repro.api import _as_scenario
from repro.baselines import base as offline
from repro.core import pretium
from repro.core.pretium import PretiumController
from repro.faults import resilience
from repro.lp import (EQ, GE, LE, LPError, Model, ModelError, SolverError,
                      solver)
from repro.options import RunOptions
from repro.registry import SCHEMES
from tests.reference import lp as reference
from tests.reference import lp_builders
from tests.reference.lp import assert_models_identical, same_bytes

ARRAY_NAMES = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub")


# -- harness -----------------------------------------------------------------

@contextmanager
def captured_models():
    """Every model that reaches the solver inside the block."""
    models = []
    real = solver.solve_model

    def capture(model, **budgets):
        models.append(model)
        return real(model, **budgets)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "solve_model", capture)
        patch.setattr(resilience, "solve_model", capture)
        yield models


@contextmanager
def reference_builders():
    """The parent's LP builders in place of the shared emitters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pretium, "ScheduleAdjuster",
                      lp_builders.ReferenceAdjuster)
        patch.setattr(pretium, "PriceComputer",
                      lp_builders.ReferencePriceComputer)
        patch.setattr(offline, "_solve_offline_schedule_coo",
                      lp_builders._solve_offline_schedule_coo)
        yield


def native_solve(model, **budgets):
    """``solve_model`` plus the arrays and options it handed HiGHS."""
    seen = []
    real = solver._run_highs

    def spy(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_run_highs", spy)
        solution = solver.solve_model(model, **budgets)
    (args,) = seen
    return dict(zip(ARRAY_NAMES, args)), args[-1], solution


def reference_solve(model, **budgets):
    """The ``linprog`` route plus what it handed ``_highs_wrapper``."""
    seen = []
    real = scipy_highs._highs_wrapper

    def spy(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scipy_highs, "_highs_wrapper", spy)
        solution = reference.solve_model(model, **budgets)
    (args,) = seen
    assert args[8].size == 0  # no integrality: a pure LP
    return dict(zip(ARRAY_NAMES, args)), args[-1], solution


def options_linprog_set(options: dict):
    """A ``HighsOptions`` holding what ``_highs_wrapper`` would set."""
    expected = solver._core.HighsOptions()
    for key, value in options.items():
        if value is None or key == "sense":
            continue
        if key == "presolve":
            value = "on" if value else "off"
        setattr(expected, key, value)
    return expected


OPTION_NAMES = [name for name in dir(solver._core.HighsOptions)
                if not name.startswith("_")]


def assert_same_lane(model, **budgets):
    """Same bytes in, same bits out, on both routes."""
    new_arrays, new_options, new = native_solve(model, **budgets)
    old_arrays, old_options, old = reference_solve(model, **budgets)
    for name in ARRAY_NAMES:
        assert same_bytes(new_arrays[name], old_arrays[name]), name
    expected = options_linprog_set(old_options)
    for name in OPTION_NAMES:
        assert getattr(new_options, name) == getattr(expected, name), name
    assert same_bytes(new.x, old.x)
    assert same_bytes(new.duals, old.duals)
    assert new.objective == old.objective


def sorting(scheme_name):
    """The scheme with the paper's sorting-network top-k encoding."""
    if scheme_name == "Pretium":
        return PretiumController(
            config_overrides={"topk_encoding": "sorting"})
    return SCHEMES.get(scheme_name).with_kwargs(topk_encoding="sorting")


#: (id, scheme, scenario, options, minimum LPs).  All ten schemes on
#: ``tiny``; the nine affordable ones on ``quick`` (``VCGLike`` there is
#: 480 LPs of OPT's builder); then SAM/PC under every axis that changes
#: what they emit.
RUNS = [(f"{name}-tiny", name, "tiny", None, 0 if name == "Pretium-NoSAM"
         else 1) for name in SCHEMES.names()]
RUNS += [(f"{name}-quick", name, "quick", None,
          0 if name == "Pretium-NoSAM" else 1)
         for name in SCHEMES.names() if name != "VCGLike"]
RUNS += [
    ("qos3", "Pretium", "quick", RunOptions(classes="qos3"), 8),
    ("ecmp", "Pretium", "quick", RunOptions(routing="ecmp"), 8),
    ("flowlet", "Pretium", "quick", RunOptions(routing="flowlet"), 8),
    ("flowlet-kill", "Pretium", "tiny",
     RunOptions(routing="flowlet", link_kills="dc000>dc004@2"), 4),
    ("guarantees-dropped", "Pretium", "quick",
     RunOptions(faults="sam:infeasible@3x1"), 8),
    ("qos3-guarantees-dropped", "Pretium", "quick",
     RunOptions(classes="qos3", faults="sam:infeasible@3x1"), 8),
    ("sorting", sorting("Pretium"), "tiny", None, 6),
    ("sorting-offline", sorting("OPT"), "tiny", None, 1),
]


def run_models(scheme, scenario, options, reference_build=False):
    with captured_models() as models:
        if reference_build:
            with reference_builders():
                repro.run(scheme, scenario, options=options)
        else:
            repro.run(scheme, scenario, options=options)
    return models


@pytest.fixture(scope="module")
def scenarios():
    """Built once per (name, classes): runs never mutate a scenario."""
    built = {}

    def get(name, options):
        key = (name, getattr(options, "classes", None))
        if key not in built:
            built[key] = _as_scenario(name, options)
        return built[key]
    return get


# -- (i) real LPs: same bytes in, same bits out ----------------------------------

@pytest.mark.parametrize("scheme, scenario, options, at_least",
                         [run[1:] for run in RUNS],
                         ids=[run[0] for run in RUNS])
def test_every_lp_of_a_run_matches_the_linprog_route(
        scheme, scenario, options, at_least, scenarios):
    models = run_models(scheme, scenarios(scenario, options), options)
    assert len(models) >= at_least
    for model in models:
        assert_same_lane(model)


# -- (iv) emitters: the models the parent's loops built ------------------------

@pytest.mark.parametrize("scheme, scenario, options, at_least",
                         [run[1:] for run in RUNS],
                         ids=[run[0] for run in RUNS])
def test_emitters_build_the_models_the_per_window_loops_built(
        scheme, scenario, options, at_least, scenarios):
    world = scenarios(scenario, options)
    models = run_models(scheme, world, options)
    oracle = run_models(scheme, world, options, reference_build=True)
    assert len(models) == len(oracle) >= at_least
    for model, expected in zip(models, oracle):
        assert (model.name, model.sense) == (expected.name, expected.sense)
        assert_models_identical(model, expected)


# -- (ii) Hypothesis LPs ---------------------------------------------------------

@st.composite
def small_lps(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=5))
    number = st.integers(min_value=-4, max_value=4).map(float)
    model = Model(sense=draw(st.sampled_from(["max", "min"])), name="hyp")
    lbs, ubs = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "lower", "upper", "boxed",
                                     "fixed"]))
        lo = draw(number)
        hi = lo + draw(st.integers(min_value=0, max_value=5))
        lbs.append({"free": -np.inf, "upper": -np.inf}.get(kind, lo))
        ubs.append({"free": np.inf, "lower": np.inf, "fixed": lo}
                   .get(kind, hi))
    block = model.add_variables_array(n, "x", lb=np.array(lbs),
                                      ub=np.array(ubs))
    # One sense for all rows some of the time: an empty inequality or
    # equality block is a layout edge of its own.
    shared = draw(st.sampled_from([None, LE, GE, EQ]))
    for _ in range(m):
        coeffs = draw(st.lists(number, min_size=n, max_size=n))
        sense = shared or draw(st.sampled_from([LE, GE, EQ]))
        model.add_constraints_coo(np.zeros(n, dtype=np.int64), block.indices,
                                  coeffs, sense, [draw(number)])
    model.set_objective_coo(block.indices,
                            draw(st.lists(number, min_size=n, max_size=n)),
                            constant=draw(number))
    return model


def outcome(solve, model):
    try:
        solution = solve(model)
    except LPError as exc:
        return type(exc)
    return solution.x.tobytes(), solution.duals.tobytes(), solution.objective


@settings(max_examples=300, deadline=None)
@given(model=small_lps())
def test_random_lps_agree_in_result_or_exception_class(model):
    assert outcome(solver.solve_model, model) \
        == outcome(reference.solve_model, model)


def test_budgets_reach_highs_as_linprog_passed_them():
    assert_same_lane(guarded_model(), time_limit=12.5, maxiter=77)
    _arrays, options, _solution = native_solve(guarded_model(),
                                               time_limit=12.5, maxiter=77)
    assert (options.time_limit, options.simplex_iteration_limit,
            options.ipm_iteration_limit) == (12.5, 77, 77)


# -- (iii) the guards linprog applied ------------------------------------------------

def guarded_model(c=1.0, rhs=4.0, lb=0.0, ub=10.0, coeff=1.0):
    model = Model(sense="max", name="guarded")
    x = model.add_variables_array(2, "x", lb=lb, ub=ub)
    model.add_constraints_coo([0, 0], x.indices, [coeff, 1.0], LE, [rhs])
    model.add_constraints_coo([0, 0], x.indices, [1.0, -1.0], EQ, [0.0])
    model.set_objective_coo(x.indices, [c, 1.0])
    return model


@pytest.mark.parametrize("poison", [
    dict(c=np.nan), dict(c=np.inf), dict(rhs=np.nan), dict(rhs=-np.inf),
    dict(lb=np.nan), dict(ub=np.nan), dict(coeff=np.nan),
], ids=lambda poison: "-".join(f"{k}={v}" for k, v in poison.items()))
def test_non_finite_input_raises_before_the_solver_runs(poison, monkeypatch):
    def forbidden(*args):
        raise AssertionError("HiGHS must not see a non-finite LP")
    monkeypatch.setattr(solver, "_run_highs", forbidden)
    with pytest.raises(ModelError):
        guarded_model(**poison).solve()


def test_infinite_bounds_are_not_an_error():
    assert guarded_model(lb=-np.inf, ub=np.inf).solve().objective \
        == pytest.approx(4.0)


def faked(monkeypatch, **tamper):
    """Solve ``guarded_model`` with HiGHS's answer tampered with."""
    real = solver._run_highs

    def lying(*args):
        status, message, iterations, solution = real(*args)
        fields = dict(zip(("x", "row_value", "row_dual", "objective"),
                          solution))
        for name, change in tamper.items():
            fields[name] = change(fields[name])
        return status, message, iterations, tuple(fields.values())

    monkeypatch.setattr(solver, "_run_highs", lying)
    return guarded_model().solve()


def bump(index, by):
    def change(values):
        values = np.array(values, dtype=float)
        values[index] += by
        return values
    return change


@pytest.mark.parametrize("tamper", [
    dict(row_value=bump(0, 1e-3)),    # inequality row (stacked first)
    dict(row_value=bump(1, 1e-3)),    # equality row, above
    dict(row_value=bump(1, -1e-3)),   # equality row, below
    dict(x=bump(0, 10.0)),            # past its upper bound
    dict(x=bump(0, -10.0)),           # past its lower bound
    dict(x=bump(0, np.nan)), dict(row_value=bump(0, np.nan)),
    dict(objective=lambda value: np.nan),
], ids=["row", "eq-above", "eq-below", "ub", "lb", "nan-x", "nan-row",
        "nan-objective"])
def test_an_optimum_that_violates_the_lp_is_a_solver_error(tamper,
                                                           monkeypatch):
    with pytest.raises(SolverError, match="violates"):
        faked(monkeypatch, **tamper)


def test_violations_inside_linprogs_tolerance_are_accepted(monkeypatch):
    # linprog's default tol=1e-9 allowed sqrt(tol) * 10 ~ 3.2e-4; a point
    # HiGHS places 1e-6 outside a row is an optimum there and here.
    assert faked(monkeypatch, row_value=bump(0, 1e-6)).objective \
        == pytest.approx(4.0)


@settings(max_examples=200, deadline=None)
@given(offsets=st.lists(st.sampled_from(
    [0.0, 1e-6, 3.1e-4, -3.1e-4, 3.2e-4, -3.2e-4, 1e-2, -1e-2, np.nan]),
    min_size=4, max_size=4), fun=st.sampled_from([0.0, np.nan]))
def test_feasibility_check_is_linprogs(offsets, fun):
    """``_is_feasible`` and scipy's ``_check_result`` accept the same
    points (two variables in [0, 1]; one ``<=`` row, one ``==`` row)."""
    lp = solver._assemble(guarded_model(ub=1.0))
    x = np.array([0.5 + offsets[0], 1.0 + offsets[1]])
    row_value = lp.rhs + np.array(offsets[2:])
    slack = lp.rhs - row_value
    status, _message = _check_result(
        x, fun, 0, slack[:lp.n_ub], slack[lp.n_ub:],
        np.column_stack([lp.lb, lp.ub]), 1e-9, "", None)
    assert solver._is_feasible(lp, x, row_value, fun) == (status == 0)


def test_status_taxonomy():
    infeasible = guarded_model(rhs=-1.0)
    unbounded = Model(sense="max", name="unbounded")
    x = unbounded.add_variable("x", lb=0.0)
    y = unbounded.add_variable("y", lb=0.0)
    unbounded.add_constraint(x - y <= 1.0)
    unbounded.set_objective(x + y)
    for model in (infeasible, unbounded):
        assert outcome(solver.solve_model, model) \
            == outcome(reference.solve_model, model)
    empty = Model(name="empty")
    empty.set_objective(0.0)
    with pytest.raises(ModelError, match="no variables"):
        empty.solve()


# -- the binding guard --------------------------------------------------------------

#: The binding class behind each local name ``solver.py`` reads
#: attributes off (``lp.col_cost_``, ``highs.run`` ...).
BINDING_OF = {"lp": "HighsLp", "a_matrix_": "HighsSparseMatrix",
              "options": "HighsOptions", "highs": "_Highs",
              "info": "HighsInfo", "point": "HighsSolution"}


def test_every_binding_attribute_the_solver_uses_exists():
    """Every ``_core.<name>`` chain in ``solver.py`` resolves and starts
    with a name the import-time guard checks; every attribute read off a
    binding object exists on its class.  On the scipy floor leg of CI
    this is what notices a binding that drifted."""
    import ast
    import inspect

    def chain(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return (node.id if isinstance(node, ast.Name) else None), parts[::-1]

    core = solver._load_bindings()
    tree = ast.parse(inspect.getsource(solver))
    # Local names mean binding objects only where HiGHS is driven.
    driving = {id(node) for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and function.name in ("_run_highs", "_highs_options")
               for node in ast.walk(function)}
    checked = 0
    for node in ast.walk(tree):
        root, parts = chain(node)
        if root == "_core" and parts:
            assert parts[0] in solver._BINDINGS
            target = core
        elif root in BINDING_OF and id(node) in driving:
            target = getattr(core, BINDING_OF[root])
        else:
            continue
        for part in parts:
            assert hasattr(target, part), f"{root}.{'.'.join(parts)}"
            target = getattr(core, BINDING_OF[part]) \
                if part in BINDING_OF else getattr(target, part)
        checked += 1
    assert checked > 40


def test_missing_binding_is_named_at_import():
    with pytest.raises(ImportError, match=r"scipy>=1\.15.*'HighsNope'"):
        solver._load_bindings(("HighsLp", "HighsNope"))


# -- Model: bounds as arrays, sense codes ---------------------------------------------

def test_bounds_are_float_arrays_with_a_derived_tuple_view():
    model = Model()
    model.add_variable("a", lb=None, ub=2.0)
    model.add_variables_array(3, "b", lb=np.array([0.0, -np.inf, 1.0]),
                              ub=None)
    model.add_variable("c")
    assert model.lb.tolist() == [-np.inf, 0.0, -np.inf, 1.0, 0.0]
    assert model.ub.tolist() == [2.0, np.inf, np.inf, np.inf, np.inf]
    assert model.bounds() == [(None, 2.0), (0.0, None), (None, None),
                              (1.0, None), (0.0, None)]
    for _ in range(200):  # growth keeps what was stored
        model.add_variable("d", lb=-1.0, ub=1.0)
    assert model.lb[:5].tolist() == [-np.inf, 0.0, -np.inf, 1.0, 0.0]
    assert model.lb.size == model.num_variables == 205


def test_crossed_array_bounds_name_the_variable():
    with pytest.raises(ModelError, match=r"x\[1\]"):
        Model().add_variables_array(3, "x", lb=np.array([0.0, 2.0, 0.0]),
                                    ub=np.array([1.0, 1.0, 1.0]))


def test_sense_codes_are_accepted_beside_strings():
    by_code, by_name = Model(sense="min"), Model(sense="min")
    for model, senses in ((by_code, np.array([0, 1, 2], dtype=np.int8)),
                          (by_name, [LE, GE, EQ])):
        x = model.add_variables_array(3, "x", ub=5.0)
        model.add_constraints_coo([0, 1, 2], x.indices, [1.0, 1.0, 1.0],
                                  senses, [4.0, 1.0, 2.0])
        model.set_objective_coo(x.indices, [-1.0, 1.0, 1.0])
    assert_models_identical(by_code, by_name)
    assert by_code.solve().x.tolist() == [4.0, 1.0, 2.0]
    x = by_code.add_variables_array(1, "y")
    with pytest.raises(ModelError, match="sense code"):
        by_code.add_constraints_coo([0], x.indices, [1.0],
                                    np.array([3]), [1.0])
    with pytest.raises(ModelError, match="senses"):
        by_code.add_constraints_coo([0], x.indices, [1.0],
                                    np.array([0, 1]), [1.0])
