"""Atomic file output: whole files or nothing, also when streamed in chunks."""

from __future__ import annotations

import os

import pytest

from daflow._fsio import atomic_write_chunks, atomic_write_text


def _failing_chunks(n_good: int):
    for i in range(n_good):
        yield f"chunk {i}\n"
    raise RuntimeError("producer failed")


def test_chunks_are_concatenated(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_chunks(str(path), (f"{i}," for i in range(5)))
    assert path.read_text() == "0,1,2,3,4,"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_text_is_one_chunk(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "héllo\n")
    assert path.read_bytes() == "héllo\n".encode("utf-8")


def test_failing_producer_leaves_no_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError, match="producer failed"):
        atomic_write_chunks(str(path), _failing_chunks(3))
    assert os.listdir(tmp_path) == []


def test_failing_producer_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="producer failed"):
        atomic_write_chunks(str(path), _failing_chunks(2))
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "previous\n"
