"""Text output: atomic files, whole or nothing, also when streamed in chunks."""

from __future__ import annotations

import json
import os

import pytest

from daflow._fsio import atomic_write_chunks, record_template


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
    atomic_write_chunks(str(path), ["héllo\n"])
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


def test_missing_directory_error_names_the_destination(tmp_path):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError) as info:
        atomic_write_chunks(path, ("text",))
    assert info.value.filename == path and info.value.filename2 is None
    assert os.listdir(tmp_path) == []


def test_failed_rename_names_the_destination_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(OSError) as info:
        atomic_write_chunks(str(path), ("text",))
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert os.listdir(tmp_path) == ["taken"] and os.listdir(path) == []


def test_text_onto_a_directory_names_the_destination_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "taken"
    path.mkdir()
    with pytest.raises(OSError) as info:
        atomic_write_chunks(str(path), ["text"])
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert str(path) in str(info.value)
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
    assert os.listdir(path) == []


def test_producer_that_removes_the_temp_file_raises_its_own_error(tmp_path):
    def chunks():
        yield "text"
        for name in os.listdir(tmp_path):
            os.unlink(tmp_path / name)
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="^producer failed$"):
        atomic_write_chunks(str(tmp_path / "out.txt"), chunks())
    assert os.listdir(tmp_path) == []


RECORD_KEYS = {
    "empty": (),
    "one": ("t",),
    "report": ("name", "t", "n", "lhs", "rhs", "residual_or_slack", "pass", "tolerance", "note"),
    "escaped": ('say "hi"', "back\\slash", "d\u00e9j\u00e0", "\U0001d53c", "tab\t"),
}


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("keys", RECORD_KEYS.values(), ids=RECORD_KEYS.keys())
def test_record_template_is_the_json_dumps_layout_at_depth(keys, depth):
    values = [1.5e-300, None, "inf", -0.0, True, "d\u00e9j\u00e0", 7, [], {}][: len(keys)]
    record = dict(zip(keys, values))
    # the record as the only member of lists nested `depth` deep
    doc = record
    for _ in range(depth):
        doc = [doc]
    lines = json.dumps(doc, indent=1).split("\n")
    expected = "\n".join(lines[depth : len(lines) - depth])
    assert record_template(keys, depth) % tuple(json.dumps(v) for v in values) == expected
