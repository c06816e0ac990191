"""SAM without its quiet-step fast path: the cold reference the fast
path is proven against (``tests/core/test_sam_incremental.py``).
``src/`` always tries the fast path; this subclass never does, so each
``adjust`` is an exact solve.  (The build itself keeps nothing between
steps, so there is nothing else to forget.)
"""

from contextlib import contextmanager

import pytest

from repro.core import pretium
from repro.core.sam import ScheduleAdjuster


class ColdAdjuster(ScheduleAdjuster):
    """``ScheduleAdjuster`` that re-solves at every step."""

    def adjust(self, contracts, delivered, realized_loads, now,
               arrivals_since=None):
        # Withholding the quiet-step signal ("unknown") disarms: the
        # fast path is not even attempted, so no hit or miss is counted.
        return super().adjust(contracts, delivered, realized_loads, now)


@contextmanager
def cold_sam():
    """Controllers built inside the block get a :class:`ColdAdjuster`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pretium, "ScheduleAdjuster", ColdAdjuster)
        yield
