"""``PYTHONPATH=src python -m benchmarks.e2e run|compare|--workload ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
