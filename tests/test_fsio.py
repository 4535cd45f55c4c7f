"""Text output: atomic files, whole or nothing, also when streamed in chunks,
and float text equal to repr's."""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daflow._fsio as _fsio
from conftest import EDGE_FLOATS
from daflow._shortest import shortest_rows
from daflow._fsio import (
    FLOAT_TEXT_MIN,
    FLOAT_TEXT_ROWS,
    FLOAT_TEXT_VALUES,
    atomic_write_chunks,
    float_chunks,
    record_template,
)


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


# --- float text ----------------------------------------------------------------


def kernel_texts(values) -> tuple[list[str], np.ndarray]:
    """The kernel's text of each value and the mask of those it left for
    repr, over a column padded past FLOAT_TEXT_MIN by repeating it."""
    a = np.asarray(values, dtype=np.float64)
    a = np.resize(a, max(len(a), FLOAT_TEXT_MIN))
    texts, late = [], []
    for lo in range(0, len(a), FLOAT_TEXT_VALUES):
        part = a[lo : lo + FLOAT_TEXT_VALUES]
        block = np.zeros((FLOAT_TEXT_ROWS + 1, len(part)), np.uint8)
        late.append(shortest_rows(part, block))
        block[-1] = ord("\n")
        texts += block.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return texts, np.concatenate(late)


def assert_repr(values, most_decided: bool = True) -> None:
    """float_chunks writes repr of each value of the column, and so does the
    kernel on every value it decides, which is every normal float that is
    not a power of two but for a few near ties and edges."""
    a = np.asarray(values, dtype=np.float64)
    assert "".join(float_chunks(a, "\n", 1, "\n", "\n")) == "".join(f"{v!r}\n" for v in a.tolist())
    texts, late = kernel_texts(a)
    padded = np.resize(a, len(texts))
    expected = [repr(v) for v in padded.tolist()]
    assert [t for t, x in zip(texts, late.tolist()) if not x] == [e for e, x in zip(expected, late.tolist()) if not x]
    if most_decided:
        # about 0.1% of random bit patterns put a candidate on an edge
        assert late[decidable(padded)].mean() < 2e-3


def decidable(a: np.ndarray) -> np.ndarray:
    """The values the kernel formats itself unless they lie near a tie or
    an edge: the normal floats that are not powers of two."""
    m, e = np.frexp(np.abs(a))
    return (m > 0.5) & (m < 1.0) & (e >= -1021)


def test_edge_floats_read_as_repr():
    assert_repr(EDGE_FLOATS, most_decided=False)


def test_powers_of_two_and_ten_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for powers in (twos, tens):
        column = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_repr(np.concatenate([column, -column]), most_decided=False)
    # it decides all but a few values with a candidate on an interval's
    # edge, such as 1e23: 10**23 lies exactly half-way between two floats
    # and rounds to the lower one, whose interval it ends
    column = np.concatenate([tens, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf)])
    _, late = kernel_texts(column)
    assert late[decidable(column)].mean() < 0.01


def test_integers_times_powers_of_ten():
    rng = np.random.default_rng(11)
    ints = rng.integers(1, 2**53, size=20_000, endpoint=True).astype(np.float64)
    # products that are exact put an interval's edge on a candidate, which
    # goes to repr
    assert_repr(ints * 10.0 ** rng.integers(-30, 30, size=ints.size), most_decided=False)
    assert_repr(np.arange(1.0, 5_000.0) * 1e10)


def test_short_decimals():
    rng = np.random.default_rng(12)
    u = rng.random(20_000) * 10.0 ** rng.integers(-8, 8, size=20_000)
    assert_repr([round(v, d) for v, d in zip(u.tolist(), rng.integers(1, 17, size=u.size).tolist())])
    assert_repr(np.arange(1, 10_000) / 1000.0)


def test_subnormals_zeros_infinities_and_nan():
    rng = np.random.default_rng(13)
    subnormals = np.ldexp(rng.random(2_000), rng.integers(-1074, -1022, size=2_000))
    column = np.concatenate([subnormals, -subnormals, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]])
    assert_repr(column, most_decided=False)


def test_random_bit_patterns():
    rng = np.random.default_rng(14)
    a = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    assert_repr(a[np.isfinite(a)])
    # magnitudes spread evenly in log, subnormals among them
    assert_repr(rng.standard_normal(100_000) * 10.0 ** rng.uniform(-320, 308, size=100_000))


def test_density_and_report_columns_are_decided_by_the_kernel():
    rng = np.random.default_rng(15)
    for column in (rng.gamma(1.0, size=4_000) / 14_400, rng.standard_normal(4_000) * 10.0 ** rng.integers(-17, 2, 4_000)):
        _, late = kernel_texts(column)
        assert not late.any()
        assert_repr(column)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_any_floats_read_as_repr(values):
    assert_repr(values, most_decided=False)


def test_one_call_at_the_cap_stays_small():
    rng = np.random.default_rng(16)
    a = rng.gamma(1.0, size=FLOAT_TEXT_VALUES) / 90_000
    _fsio._text_block(a, 0)
    tracemalloc.start()
    try:
        _fsio._text_block(a, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # scratch and the text block, about 140 B per value
    assert peak < 160 * FLOAT_TEXT_VALUES


def test_a_long_column_is_formatted_a_call_at_a_time():
    rng = np.random.default_rng(17)
    a = rng.gamma(1.0, size=16 * FLOAT_TEXT_VALUES) / 90_000
    tracemalloc.start()
    try:
        for _ in float_chunks(a, ",", 7, ";", "."):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * FLOAT_TEXT_VALUES


@pytest.mark.parametrize("n", [1, 5, FLOAT_TEXT_MIN, FLOAT_TEXT_VALUES + 3])
@pytest.mark.parametrize("row", [1, 3, 100])
def test_chunks_carry_row_and_end_separators(n, row):
    a = np.random.default_rng(n + row).gamma(1.0, size=n)
    seps = [";" if i == n - 1 else "|\n" if (i + 1) % row == 0 else ", " for i in range(n)]
    expected = "".join(repr(v) + sep for v, sep in zip(a.tolist(), seps))
    assert "".join(float_chunks(a, ", ", row, "|\n", ";")) == expected
