"""One owner for the schedule-LP layout.

The row and column order of the schedule LP decides which degenerate
vertex HiGHS returns, and so the plans and prices read off it.  SAM, PC,
the offline baselines, VCGLike's spot auction and Figure 2's Pretium row
all build that LP through :func:`repro.lp.grouping.add_schedule`; no
other module of ``repro`` may reach for the pieces it lays out.
"""

import ast
from pathlib import Path

import repro

PIECES = {"add_demand_blocks", "add_percentile_costs", "PairGroups"}
PACKAGE = Path(repro.__file__).resolve().parent
OWNER = PACKAGE / "lp" / "grouping.py"


def _references(path: Path):
    """``(line, name)`` of every mention of a piece in ``path``: a bare
    name, an attribute or an imported name."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in PIECES:
            yield node.lineno, name


def test_only_the_grouping_module_lays_out_a_schedule_lp():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert OWNER in modules
    offenders = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
                 for path in modules if path != OWNER
                 for line, name in _references(path)]
    assert not offenders, "\n".join(offenders)


def test_the_scan_sees_every_kind_of_reference(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from repro.lp.grouping import PairGroups\n"
                     "import repro.lp.grouping as g\n"
                     "g.add_demand_blocks\n"
                     "add_percentile_costs(1)\n")
    assert [name for _, name in _references(probe)] == [
        "PairGroups", "add_demand_blocks", "add_percentile_costs"]
