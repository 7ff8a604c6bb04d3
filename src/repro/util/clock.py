"""Simulated wall clock.

Library code never reads the host clock.  All timestamps come from a
:class:`SimClock`, which starts — matching the paper's measurement window —
in mid-December 2021 (the "holiday season" that Table 6 controls for) and
advances only when the simulation says so.
"""

from __future__ import annotations

import datetime as _dt
import math

__all__ = ["SimClock", "PAPER_EPOCH", "HOLIDAY_SEASON"]

#: Start of the paper's measurement campaign (before Christmas 2021, §5.1).
PAPER_EPOCH = _dt.datetime(2021, 12, 10, 9, 0, 0, tzinfo=_dt.timezone.utc)

#: The holiday-season window that inflates pre-interaction bids (Table 6).
HOLIDAY_SEASON = (
    _dt.datetime(2021, 12, 1, tzinfo=_dt.timezone.utc),
    _dt.datetime(2022, 1, 2, tzinfo=_dt.timezone.utc),
)


class SimClock:
    """Monotonic simulated clock with datetime rendering.

    The clock is a float of seconds since ``epoch``.  ``advance`` moves it
    forward; moving backwards raises, which catches accidental re-use of a
    stale clock across experiment phases.
    """

    def __init__(self, epoch: _dt.datetime = PAPER_EPOCH) -> None:
        if epoch.tzinfo is None:
            raise ValueError("epoch must be timezone-aware")
        self.epoch = epoch
        self._elapsed = 0.0

    @property
    def now(self) -> float:
        """Seconds elapsed since the epoch."""
        return self._elapsed

    def advance(self, seconds: float) -> float:
        """Advance the clock and return the new ``now``."""
        if not 0 <= seconds < math.inf:
            # One chained compare also rejects NaN, which fails every
            # comparison and would poison every later timestamp.
            raise ValueError(f"clock advance must be finite and non-negative, got {seconds}")
        self._elapsed += seconds
        return self._elapsed

    def datetime(self) -> _dt.datetime:
        """Current simulated time as an aware datetime."""
        return self.epoch + _dt.timedelta(seconds=self._elapsed)

    def is_holiday_season(self) -> bool:
        """Whether the current sim time falls in the holiday window."""
        start, end = HOLIDAY_SEASON
        return start <= self.datetime() < end

    def __repr__(self) -> str:
        return f"SimClock({self.datetime().isoformat()})"
