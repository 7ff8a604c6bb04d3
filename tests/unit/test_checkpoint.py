"""Unit tests for the atomic publish primitive (repro.core.checkpoint)."""

import os

import pytest

from repro.core.checkpoint import atomic_write_bytes


class TestAtomicWriteBytes:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "payload.bin"
        atomic_write_bytes(target, b"x")
        assert target.read_bytes() == b"x"

    def test_overwrites_previous_content_atomically(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]

    def test_failed_write_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "payload.bin"
        atomic_write_bytes(target, b"original")

        def explode(fd):
            raise OSError("simulated disk failure")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError, match="simulated"):
            atomic_write_bytes(target, b"partial")
        assert target.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]
