"""Fingerprint every LP a run hands to HiGHS.

Usage, from the repository root::

    PYTHONPATH=src python tests/tools/lp_digest.py [RUN ...]

``RUN`` is one or more of :data:`RUNS` (default: all of them).  For each
run it prints the number of solves and one sha256 over, per solve in
order, every array handed to :func:`repro.lp.solver._run_highs` (cost,
CSC matrix, row bounds, column bounds), then the HiGHS model status, the
primal ``x``, the row values, the row duals and the objective.  Two
checkouts that print the same digest built byte-identical LPs and got
identical answers back, so a refactor of the LP builders that leaves
every digest unchanged cannot have moved a plan or a price.

The benchmark workloads are read from ``benchmarks/e2e/workloads.py``
(imported, never changed), at seed 0.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import repro  # noqa: E402
from repro.lp import solver  # noqa: E402


def _wan106_busy():
    from benchmarks.e2e import workloads
    repro.run("Pretium", workloads.build(0, **workloads.params("wan106-busy")))


def _dense16_bursty():
    from benchmarks.e2e import workloads
    repro.run("Pretium",
              workloads.build(0, **workloads.params("dense16-bursty")))


def _standard_kill():
    repro.run("Pretium", "standard", options=repro.RunOptions(
        routing="flowlet", link_kills="dc000>dc008@5"))


def _quick_all_schemes():
    from repro.registry import SCHEMES
    for name in sorted(SCHEMES.names()):
        repro.run(name, "quick")


def _figure2():
    from repro.experiments.figure2 import figure2_table
    figure2_table()


#: Run name -> what it runs.
RUNS = {
    "wan106-busy": _wan106_busy,
    "dense16-bursty": _dense16_bursty,
    "standard-kill": _standard_kill,
    "quick-all": _quick_all_schemes,
    "figure2": _figure2,
}


def digest(run) -> tuple[int, str]:
    """``(solves, sha256 hex)`` of every HiGHS call ``run()`` makes."""
    sha = hashlib.sha256()
    solves = 0
    original = solver._run_highs

    def recording(c, indptr, indices, data, lhs, rhs, lb, ub, options):
        nonlocal solves
        solves += 1
        for array in (c, indptr, indices, data, lhs, rhs, lb, ub):
            sha.update(np.ascontiguousarray(array).tobytes())
        status, message, iterations, solution = original(
            c, indptr, indices, data, lhs, rhs, lb, ub, options)
        sha.update(str(status).encode())
        if solution is not None:
            x, row_value, row_dual, objective = solution
            for array in (x, row_value, row_dual):
                sha.update(np.ascontiguousarray(array).tobytes())
            sha.update(repr(float(objective)).encode())
        return status, message, iterations, solution

    solver._run_highs = recording
    try:
        run()
    finally:
        solver._run_highs = original
    return solves, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="*", metavar="RUN",
                        help=f"one of {', '.join(RUNS)} (default: all)")
    names = parser.parse_args(argv).runs or list(RUNS)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        parser.error(f"unknown run {unknown[0]!r}")
    for name in names:
        solves, hexdigest = digest(RUNS[name])
        print(f"{name}: {solves} solves {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
