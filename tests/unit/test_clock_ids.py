"""Tests for the simulated clock and identifier factories."""

import datetime as dt

import pytest

from repro.util.clock import HOLIDAY_SEASON, PAPER_EPOCH, SimClock
from repro.util.ids import IdFactory, stable_hash


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10)
        clock.advance(2.5)
        assert clock.now == 12.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf"), -1e-9])
    def test_advance_non_finite_rejected(self, seconds):
        clock = SimClock()
        clock.advance(1.5)
        with pytest.raises(ValueError):
            clock.advance(seconds)
        assert clock.now == 1.5
        clock.advance(0)
        assert clock.datetime() == PAPER_EPOCH + dt.timedelta(seconds=1.5)

    def test_datetime_tracks_epoch(self):
        clock = SimClock()
        clock.advance(3600)
        assert clock.datetime() == PAPER_EPOCH + dt.timedelta(hours=1)

    def test_default_epoch_in_holiday_season(self):
        assert SimClock().is_holiday_season()

    def test_leaves_holiday_season(self):
        clock = SimClock()
        end = HOLIDAY_SEASON[1]
        clock.advance((end - PAPER_EPOCH).total_seconds() + 1)
        assert not clock.is_holiday_season()

    def test_naive_epoch_rejected(self):
        with pytest.raises(ValueError):
            SimClock(epoch=dt.datetime(2021, 12, 10))


class TestIdFactory:
    def test_sequential_per_namespace(self):
        ids = IdFactory()
        assert ids.next("pkt") == "pkt-000000"
        assert ids.next("pkt") == "pkt-000001"
        assert ids.next("dev") == "dev-000000"

    def test_count(self):
        ids = IdFactory()
        ids.next("a")
        ids.next("a")
        assert ids.count("a") == 2
        assert ids.count("b") == 0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_distinct_inputs(self):
        assert stable_hash("a") != stable_hash("b")

    def test_length_parameter(self):
        assert len(stable_hash("a", length=32)) == 32

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            stable_hash("a", length=0)
        with pytest.raises(ValueError):
            stable_hash("a", length=65)
