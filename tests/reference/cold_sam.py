"""SAM without its incremental machinery: the cold reference the
skeleton cache and the quiet-step fast path are proven against
(``tests/core/test_sam_incremental.py``).  ``src/`` always caches and
always tries the fast path; this subclass forgets both before every
step, so each ``adjust`` is a from-scratch build and an exact solve.
"""

from contextlib import contextmanager

import pytest

from repro.core import pretium
from repro.core.sam import ScheduleAdjuster


class ColdAdjuster(ScheduleAdjuster):
    """``ScheduleAdjuster`` that rebuilds and re-solves at every step."""

    def adjust(self, contracts, delivered, realized_loads, now,
               arrivals_since=None):
        self._skeletons.clear()
        # Withholding the quiet-step signal ("unknown") disarms: the
        # fast path is not even attempted, so no hit or miss is counted.
        return super().adjust(contracts, delivered, realized_loads, now)


@contextmanager
def cold_sam():
    """Controllers built inside the block get a :class:`ColdAdjuster`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pretium, "ScheduleAdjuster", ColdAdjuster)
        yield
