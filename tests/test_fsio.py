"""Text output: atomic files, whole or nothing, also when streamed in chunks,
and the indent-1 JSON writer."""

from __future__ import annotations

import json
import os

import pytest

from daflow._fsio import atomic_write_chunks, atomic_write_text, dumps_indent1


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
        atomic_write_text(str(path), "text")
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


REPORT = {
    "name": "Lemma3", "t": 1, "n": 4, "lhs": "inf", "rhs": 0.25,
    "residual_or_slack": "-inf", "pass": False, "tolerance": 1e-10,
    "note": 'left side "infinite" \\ with finite right side, déjà vu \u2264 \U0001d53c\n',
}


@pytest.mark.parametrize(
    "obj",
    [
        {"reports": [], "summary": {"checks_run": 0, "passes": 0, "failures": 0, "worst_residual_by_lemma": {}}},
        {
            "reports": [REPORT, dict(REPORT, lhs=1.5e-300, residual_or_slack=-0.0, note="")],
            "summary": {"checks_run": 2, "worst_residual_by_lemma": {"Lemma1": "inf", "Lemma3": "-inf"}},
        },
        {"retained_times": list(range(12)), "records": [{"t": 0, "d_step": None}], "nested": [[1, [2, []]], {}]},
        {"nx": 2, "ny": 3, "w": [[0.1, 0.2, 0.3], [0.4, 0.5, 1e-320]]},
        {1: [1], 2.5: {"x": (1, 2)}, None: [], True: "t", "inf": float("inf")},
        [], {}, [[]], [{}], 7, "déjà", None,
    ],
)
def test_writer_matches_json_dumps_indent_1(obj):
    assert dumps_indent1(obj) == json.dumps(obj, indent=1)


def test_writer_rejects_what_json_rejects():
    for obj in ({"a": [object()]}, {(1, 2): [1]}):
        with pytest.raises(TypeError):
            dumps_indent1(obj)
