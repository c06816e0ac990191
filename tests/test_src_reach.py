"""Tripwire for code that no run reaches.

Every module-level or class-level ``def``/``class`` in ``src/repro``
must be named by some other ``src/`` line (a call, an import, a
re-export, a docstring cross-reference).  A definition only tests call
is code the program carries for nobody: delete it with its tests, or
inline it into the test that used it to build input.

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
}

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions_and_words():
    """``(qualified name, name, path, line)`` of every module- and
    class-level definition, and word -> the ``(path, line)``s naming it."""
    definitions, words = [], defaultdict(set)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for word in _WORD.findall(line):
                words[word].add((path, lineno))
        for node in ast.parse(text).body:
            if not isinstance(node, _DEFS):
                continue
            definitions.append((node.name, node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                definitions += [(f"{node.name}.{sub.name}", sub.name, path,
                                 sub.lineno)
                                for sub in node.body
                                if isinstance(sub, _DEFS)]
    return definitions, words


def unreached() -> list[str]:
    definitions, words = _definitions_and_words()
    return sorted(
        f"{qualified} ({path.relative_to(SRC)}:{line})"
        for qualified, name, path, line in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not words[name] - {(path, line)})


def test_every_definition_is_named_by_another_src_line():
    found = [entry for entry in unreached()
             if entry.split(" ")[0] not in ALLOWED]
    assert not found, (
        "named by no other src/ line (delete it, or list it in ALLOWED "
        "with the file outside src/ that uses it):\n  " + "\n  ".join(found))


def _readme_code() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return "\n".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))


def test_every_allowed_name_is_still_unreached_and_used_where_it_says():
    stale = set(ALLOWED) - {entry.split(" ")[0] for entry in unreached()}
    assert not stale, f"reached from src/ now; drop from ALLOWED: {stale}"
    for qualified, user in ALLOWED.items():
        name = qualified.rsplit(".", 1)[-1]
        if user == "shims.TARGETS":
            assert name in {target[2] for target in shims.TARGETS}, qualified
            continue
        text = (_readme_code() if user == "README.md" else
                (REPO / user).read_text(encoding="utf-8"))
        assert re.search(rf"\b{name}\b", text), f"{user} no longer uses " \
            f"{qualified}"
