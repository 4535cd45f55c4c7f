"""Text output: atomic file writes, streamed a chunk at a time,
`table_chunks`, the one writer of the trace and verify tables, and
`float_texts` and `float_chunks`, where every exported float gets its text.

JSON documents are ``json.dumps(doc, indent=1)`` byte for byte. The small
ones are that call; a document nested `depth` deep in another is its text
with each newline followed by `depth` more spaces. The large lists (the
trace's and verify's records, and the density's rows in `dist.save_joint`)
are written in chunks in the same layout.

A float column is written as ``repr`` writes each value, the shortest text
that reads back as the same float, which is also what ``json`` and ``%s``
write. Columns of `FLOAT_TEXT_MIN` nonzero values or more take that text
from the NumPy kernel in `_shortest`, `FLOAT_TEXT_VALUES` values at a time,
at about a third of the cost of ``repr`` on 17-digit values; the values it
cannot decide, and other columns, go to ``repr`` itself. The text is the
same either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain

import numpy as np


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to `path` via a temp file in the same
    directory, then rename.

    Readers never observe a partially written file: os.replace is atomic on
    POSIX and Windows when source and destination share a filesystem, which
    placing the temp file next to the destination guarantees. Chunks are
    consumed one at a time, so the text never has to exist whole in memory;
    if producing one raises, the temp file is removed and `path` is left as
    it was. An OSError in creating or renaming the temp file is raised
    naming `path`, not the temp file's random name, so the message is the
    same on every run.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            # releases each chunk before it asks for the next
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as e:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, path) from e
        raise


# the table writer formats at most this many rows at a time (about 300 KB of
# verify JSON), whatever the number of rows
TABLE_ROWS = 1 << 10


def record_template(keys: Iterable[str], depth: int) -> str:
    """A dict of `keys` as ``json.dumps(indent=1)`` writes it as a list
    member `depth` deep, indentation included, with a ``%s`` slot for each
    value."""
    indent = " " * depth
    text = json.dumps(dict.fromkeys(keys, "%s"), indent=1)
    return indent + text.replace("\n", "\n" + indent).replace('"%s"', "%s")


def table_chunks(row: str, sep: str, rows: int, columns: Callable[[int, int], Sequence[Sequence]]) -> Iterator[str]:
    """`rows` rows written with the ``%`` template `row` and joined by `sep`,
    at most `TABLE_ROWS` per chunk: rows lo to hi are one fill of the joined
    template from `columns(lo, hi)`, one list of hi - lo values per slot."""
    for lo in range(0, rows, TABLE_ROWS):
        hi = min(lo + TABLE_ROWS, rows)
        yield sep.join([row] * (hi - lo)) % tuple(chain.from_iterable(zip(*columns(lo, hi))))


# the float kernel formats at most this many values per call; its scratch
# and text block, about 140 B per value, stay within what the streamed
# writers may hold
FLOAT_TEXT_VALUES = 1 << 10
# columns with fewer nonzero values go to repr value by value: the kernel's
# cost per call, about 110 us plus 0.15 us per value, is that of repr on
# about 190 values of 17 digits, while repr writes a zero in 0.05 us (and a
# short decimal four times as fast as 17 digits)
FLOAT_TEXT_MIN = 192
# a value's text in the kernel's byte columns, NUL padded: the sign, "0.000",
# 17 digits with the dot among them, and "e-308" (`_shortest`'s layout)
FLOAT_TEXT_ROWS = 29


def _text_block(a: np.ndarray, extra: int) -> np.ndarray:
    """A block of FLOAT_TEXT_ROWS + `extra` byte rows whose column i starts
    with the NUL padded text of a[i], for at most FLOAT_TEXT_VALUES values."""
    out = np.empty((FLOAT_TEXT_ROWS + extra, len(a)), np.uint8)
    if np.count_nonzero(a) >= FLOAT_TEXT_MIN:
        # the kernel and its tables load on first use, so a process that
        # writes only short columns never compiles or builds them
        from ._shortest import shortest_rows

        late = shortest_rows(a, out)
    else:
        late = np.ones(len(a), bool)
    if late.any():
        rows = np.flatnonzero(late)
        texts = b"".join(repr(v).encode().ljust(FLOAT_TEXT_ROWS, b"\0") for v in a[rows].tolist())
        out[:FLOAT_TEXT_ROWS, rows] = np.frombuffer(texts, np.uint8).reshape(-1, FLOAT_TEXT_ROWS).T
    return out


def float_chunks(a: np.ndarray, sep: str, row: int, row_sep: str, end: str) -> Iterator[str]:
    """The floats of a 1-D array as text, FLOAT_TEXT_VALUES values per
    chunk: each as ``repr`` writes it, followed by `end` if it is the last,
    by `row_sep` if it ends a row of `row` values, else by `sep`. A chunk is
    one block of byte columns, each value's text and separator, read row by
    row with its NUL padding dropped; no block outlives its chunk."""
    a = np.asarray(a, dtype=np.float64)
    width = max(len(sep), len(row_sep), len(end))
    sep, row_sep, end = (np.frombuffer(s.encode().ljust(width, b"\0"), np.uint8)[:, None] for s in (sep, row_sep, end))

    def text(lo: int) -> str:
        block = _text_block(a[lo : lo + FLOAT_TEXT_VALUES], width)
        seps = block[FLOAT_TEXT_ROWS:]
        seps[...] = sep
        seps[:, (row - 1 - lo) % row :: row] = row_sep
        if lo + FLOAT_TEXT_VALUES >= len(a):
            seps[:, -1:] = end
        return block.T.tobytes().translate(None, b"\0").decode("ascii")

    return map(text, range(0, len(a), FLOAT_TEXT_VALUES))


def float_texts(a: np.ndarray) -> list[str]:
    """``[repr(v) for v in a.tolist()]`` for a 1-D float array: the same
    strings, from `float_chunks` for a column of `FLOAT_TEXT_MIN` nonzero
    values or more."""
    if np.count_nonzero(a) < FLOAT_TEXT_MIN:
        return list(map(repr, a.tolist()))
    return "".join(float_chunks(a, "\n", 1, "\n", "\n")).split("\n")[:-1]
