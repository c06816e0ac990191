"""Tripwire for code that no run reaches.

Every module-level or class-level ``def``/``class`` in ``src/repro``
must be referenced from ``src/`` outside its own body.  Only real
references count: a ``Name`` or ``Attribute`` node, a ``from … import``
outside ``__init__.py``, or an identifier-like string constant outside
``__all__`` (registries name their entries that way).  A docstring, a
comment, ``__all__`` or an ``__init__.py`` re-export reaches nothing.
A definition only tests call is code the program carries for nobody:
delete it with its tests, or move it into the test that used it to
build input.

The few exceptions are public on purpose and used outside ``src/``;
each is listed in :data:`ALLOWED` with the file that uses it, and the
second test checks that file still does.  Dunder methods are exempt.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import repro
from benchmarks.e2e import shims

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parents[1]

#: ``Owner.name`` -> where it is used outside ``src/``: a README code
#: span, a ``shims.TARGETS`` attribute, or a ``benchmarks/*.py`` /
#: ``examples/*.py`` file.
ALLOWED = {
    "Topology.to_networkx": "shims.TARGETS",
    "NetworkState.set_highpri_usage":
        "benchmarks/bench_ext_highpri_robustness.py",
    "Workload.arrivals_at": "benchmarks/bench_ext_highpri_robustness.py",
    "DeviationReport.fraction_benefiting":
        "benchmarks/bench_sec5_incentives.py",
    "DeviationReport.mean_relative_gain": "examples/incentives_study.py",
    "SweepResult.summary_for": "README.md",
    "deviation_study": "benchmarks/bench_sec5_incentives.py",
    "format_series": "benchmarks/bench_fig12_link_cost.py",
    "add_sum_topk_coo": "benchmarks/bench_topk_encodings.py",
    "parallel_paths_network": "examples/fault_recovery.py",
    "InMemoryCollector": "README.md",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """``id``s of the docstring constants of every module, class and
    function in ``tree``."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFS)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _all_strings(tree: ast.Module) -> set[int]:
    """``id``s of the string constants assigned to ``__all__``."""
    return {id(const) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and "__all__" in {target.id for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]) if isinstance(target, ast.Name)}
            for const in ast.walk(node) if isinstance(const, ast.Constant)}


def references(tree: ast.Module, *, init: bool = False) -> list[tuple]:
    """``(name, node)`` for every reference in ``tree``: ``Name`` ids,
    ``Attribute`` attrs, ``from … import`` names unless ``init`` (a
    package's re-exports reach nothing), and identifier-like string
    constants that are neither docstrings nor in ``__all__``."""
    skip = _docstrings(tree) | _all_strings(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node))
        elif isinstance(node, ast.ImportFrom) and not init:
            found += [(alias.name, node) for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            found.append((node.value, node))
    return found


def _definitions(tree: ast.Module):
    """``(qualified name, name, node)`` of every module- and class-level
    definition in ``tree``; dunders are exempt."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub.name, sub)
                        for sub in node.body if isinstance(sub, _DEFS))


def unreached(root: Path) -> list[str]:
    """``"qualified (path:line)"`` of every definition under ``root``
    that nothing under ``root`` references outside its own body."""
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(root.rglob("*.py"))}
    refs = defaultdict(list)  # name -> [(path, node)]
    for path, tree in modules.items():
        for name, node in references(tree, init=path.name == "__init__.py"):
            refs[name].append((path, node))
    # Definitions that share a qualified name in one file (a property
    # and its setter) are one: references inside any of them are own.
    grouped = defaultdict(list)
    for path, tree in modules.items():
        for qualified, name, node in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                grouped[path, qualified, name].append(node)
    found = []
    for (path, qualified, name), nodes in grouped.items():
        own = {id(inner) for node in nodes for inner in ast.walk(node)}
        if all(ref_path == path and id(ref) in own
               for ref_path, ref in refs[name]):
            found.append(f"{qualified} ({path.relative_to(root)}:"
                         f"{nodes[0].lineno})")
    return sorted(found)


def test_every_definition_is_referenced_from_src():
    found = [entry for entry in unreached(SRC)
             if entry.split(" ")[0] not in ALLOWED]
    assert not found, (
        "referenced from no other src/ code (delete it, or list it in "
        "ALLOWED with the file outside src/ that uses it):\n  "
        + "\n  ".join(found))


def _readme_code() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))


def test_every_allowed_name_is_still_unreached_and_used_where_it_says():
    stale = set(ALLOWED) - {entry.split(" ")[0] for entry in unreached(SRC)}
    assert not stale, f"reached from src/ now; drop from ALLOWED: {stale}"
    for qualified, user in ALLOWED.items():
        name = qualified.rsplit(".", 1)[-1]
        if user == "shims.TARGETS":
            assert name in {target[2] for target in shims.TARGETS}, qualified
            continue
        if user == "README.md":
            used = re.search(rf"\b{name}\b", _readme_code())
        else:
            tree = ast.parse((REPO / user).read_text(encoding="utf-8"))
            used = name in {ref for ref, _ in references(tree)}
        assert used, f"{user} no longer uses {qualified}"


def test_only_references_outside_a_definitions_body_count(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .a import reexported\n"
        "__all__ = ['reexported']\n")
    (pkg / "a.py").write_text(
        "def doc_only(): pass\n"
        "def reexported(): pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def called(): pass\n"
        "def registered(): pass\n")
    (pkg / "b.py").write_text(
        '"""Mentions doc_only in a docstring."""\n'
        "from .a import called  # registered, in a comment\n"
        "RESULT = called()\n"
        "REGISTRY = {'key': 'registered'}\n")
    assert unreached(tmp_path) == [
        "doc_only (pkg/a.py:1)",
        "recursive (pkg/a.py:3)",
        "reexported (pkg/a.py:2)",
    ]
