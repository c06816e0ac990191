"""Tests for the Figure 2 example reproduction."""

import pytest

from repro.experiments.figure2 import (EXAMPLE_REQUESTS, figure2_table,
                                       no_price_row, per_link_price_row,
                                       per_time_price_row, pretium_row,
                                       fixed_price_row, requests)
from tests.lp.test_native_solve import captured_models
from tests.reference.expr_builders import expr_pretium_row
from tests.reference.lp import assert_models_identical


def test_requests_match_paper_spec():
    reqs = {r.rid: r for r in requests()}
    assert reqs[1].value == 8 and reqs[1].demand == 2
    assert reqs[4].demand == 4 and reqs[4].value == 1
    assert reqs[2].deadline == 1
    assert reqs[3].deadline == 0


def test_no_price_matches_paper_row():
    """The paper's 'No Price' row: units (1, 2, 1, 3), welfare 23."""
    row = no_price_row()
    assert row.units[1] == pytest.approx(1.0)
    assert row.units[2] == pytest.approx(2.0)
    assert row.units[3] == pytest.approx(1.0)
    assert row.units[4] == pytest.approx(3.0)
    assert row.welfare == pytest.approx(23.0)


def test_pretium_achieves_maximum_welfare():
    """Pretium reaches the example's maximum welfare of 34."""
    row = pretium_row()
    assert row.welfare == pytest.approx(34.0)
    assert row.units[1] == pytest.approx(2.0)
    assert row.units[4] == pytest.approx(2.0)


def test_pretium_row_solves_the_expression_oracles_lp():
    with captured_models() as models:
        row = pretium_row()
    with captured_models() as oracle_models:
        oracle = expr_pretium_row()
    (model,), (expected,) = models, oracle_models
    assert_models_identical(model, expected)
    assert row == oracle


def test_welfare_ordering_matches_paper():
    """no-price < fixed <= per-link <= per-time < pretium."""
    table = {row.scheme: row.welfare for row in figure2_table()}
    assert table["no-price"] < table["fixed"]
    assert table["fixed"] <= table["per-link"] + 1e-9
    assert table["per-link"] <= table["per-time"] + 1e-9
    assert table["per-time"] < table["pretium"]
    assert table["pretium"] == pytest.approx(34.0)


def test_fixed_price_excludes_low_value():
    row = fixed_price_row()
    # the optimal fixed price shuts out the value-1 request R4
    assert row.units[4] == pytest.approx(0.0)


def test_per_time_recovers_deferrable_requests():
    """Temporal pricing lets R4 (deferrable, low value) back in."""
    row = per_time_price_row()
    assert row.units[4] > 0.0


def test_capacity_never_exceeded_in_any_row():
    for row in figure2_table():
        # A->B carries R1+R2: at most 2 per step x 2 steps, but R1 is
        # restricted to step 0, so R1 <= 2 and R1+R2 <= 4.
        assert row.units[1] <= 2.0 + 1e-9
        assert row.units[1] + row.units[2] <= 4.0 + 1e-9
        # C->D carries R3+R4 (4 capacity over both steps)
        assert row.units[3] + row.units[4] <= 4.0 + 1e-9
