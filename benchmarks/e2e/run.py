"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Runs from a bare checkout: nothing is installed, so the repo root (for
``benchmarks.e2e``) and ``src`` (for ``repro``) go on ``sys.path`` here.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__mp_main__":
    # A sweep pool worker re-importing the main module: the worker
    # rebuilds its cells' scenarios by name, so the name must exist there.
    from benchmarks.e2e.workloads import register_sweep_scenario
    register_sweep_scenario()

if __name__ == "__main__":
    from benchmarks.e2e.cli import main
    sys.exit(main())
