"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures: it runs
the corresponding generator under pytest-benchmark (one round — these are
experiments, not microbenchmarks), prints the rows/series the paper
reports, and saves them as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return str(obj)


@pytest.fixture
def record(request):
    """Save a benchmark's output rows under results/<bench-name>.json."""
    def _save(data: dict) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        name = request.node.name.replace("/", "_")
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, default=_coerce))
    return _save


def run_once(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
