"""Text output: atomic file writes, streamed a chunk at a time,
`table_chunks`, the one writer of the trace and verify tables, and
`float_chunks`, the density file's float writer.

JSON documents are ``json.dumps(doc, indent=1)`` byte for byte. The small
ones are that call; a document nested `depth` deep in another is its text
with each newline followed by `depth` more spaces. The large lists (the
trace's and verify's records, and the density's rows in `dist.save_joint`)
are written in chunks in the same layout.

Both writers build a chunk as one block of bytes in NumPy and read it back
with its NUL bytes dropped: each value's text sits NUL padded in a field of
fixed width, so a whole column is written at once. A float is written as
``repr`` writes it, the shortest text that reads back as the same float,
which is also what ``json`` and ``%s`` write. Columns of `FLOAT_TEXT_MIN`
nonzero values or more take that text from the NumPy kernel in
`_shortest`, one call per chunk, at about a third of the cost of ``repr``
on 17-digit values; the values it cannot decide, and other columns, go to
``repr`` itself. The text is the same either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator, Sequence

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


# `float_chunks` formats at most this many values per chunk, one kernel
# call; the kernel's scratch and text block take about 140 B per value, so
# a density file is written in far less memory than its text (the table
# writer's call per chunk takes up to TABLE_ROWS values per float column)
FLOAT_TEXT_VALUES = 1 << 10
# a call over fewer nonzero values goes to repr value by value: the kernel's
# cost per call, about 110 us plus 0.15 us per value, is that of repr on
# about 190 values of 17 digits, while repr writes a zero in 0.05 us (and a
# short decimal four times as fast as 17 digits)
FLOAT_TEXT_MIN = 192
# a value's text in the kernel's byte columns, NUL padded: the sign, "0.000",
# 17 digits with the dot among them, and "e-308" (`_shortest`'s layout)
FLOAT_TEXT_ROWS = 29


def _padded(texts: Iterable[str], width: int) -> np.ndarray:
    """The ASCII texts, none longer than `width`, as rows of `width` bytes,
    NUL padded."""
    return np.array(list(texts), dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _text_block(a: np.ndarray, extra: int) -> np.ndarray:
    """A block of FLOAT_TEXT_ROWS + `extra` byte rows whose column i starts
    with the NUL padded text of a[i]."""
    out = np.empty((FLOAT_TEXT_ROWS + extra, len(a)), np.uint8)
    if np.count_nonzero(a) < FLOAT_TEXT_MIN:
        out[:FLOAT_TEXT_ROWS] = _padded(map(repr, a.tolist()), FLOAT_TEXT_ROWS).T
        return out
    # the kernel and its tables load on first use, so a process that writes
    # only short columns never compiles or builds them
    from ._shortest import shortest_rows

    late = shortest_rows(a, out)
    if late.any():
        rows = np.flatnonzero(late)
        out[:FLOAT_TEXT_ROWS, rows] = _padded(map(repr, a[rows].tolist()), FLOAT_TEXT_ROWS).T
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


# the table writer formats at most this many rows at a time (about 340 KB of
# verify JSON), whatever the number of rows
TABLE_ROWS = 1 << 10

# how a table's float columns write +inf, -inf and an absent entry (NaN, or
# past the column's end), as NUL padded byte rows: repr's text in CSV,
# `metrics.encode`'s in JSON
CSV_SPECIALS = _padded(("inf", "-inf", ""), FLOAT_TEXT_ROWS)
JSON_SPECIALS = _padded(('"inf"', '"-inf"', "null"), FLOAT_TEXT_ROWS)


def record_template(keys: Iterable[str], depth: int) -> str:
    """A dict of `keys` as ``json.dumps(indent=1)`` writes it as a list
    member `depth` deep, indentation included, with a ``%s`` slot for each
    value."""
    indent = " " * depth
    text = json.dumps(dict.fromkeys(keys, "%s"), indent=1)
    return indent + text.replace("\n", "\n" + indent).replace('"%s"', "%s")


def digit_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Each integer's decimal digits as ASCII, right-aligned in `width` bytes
    behind zero bytes, and a negative value's sign in the first byte, one
    void item of that width per value; `width` holds a sign byte too if any
    value is negative."""
    digits = np.empty((values.size, width), dtype=np.uint8)
    signed = values.size and values.min() < 0
    rest, last = np.divmod(np.abs(values) if signed else values, 10)
    digits[:, -1] = last + ord("0")
    for column in range(width - 2, -1, -1):
        # once a value's digits run out its rest and digit are 0: a zero byte
        written = rest > 0
        rest, digit = np.divmod(rest, 10)
        digits[:, column] = digit + ord("0") * written
    if signed:
        digits[values < 0, 0] = ord("-")
    return digits.view(f"V{width}").ravel()


def table_chunks(
    pieces: Sequence[str],
    columns: Sequence,
    rows: int,
    first: str = "",
    sep: str = "",
    specials: np.ndarray = CSV_SPECIALS,
) -> Iterator[str]:
    """`rows` rows of text, at most `TABLE_ROWS` per chunk: row i is
    pieces[0], column 0's entry i, pieces[1], and so on to pieces[-1],
    preceded by `first` in row 0 and by `sep` in the others. A column is a
    str, written in every row; a float64 array, each entry as ``repr``
    writes it but +inf, -inf and an absent entry (NaN, or past the array's
    end) as the rows of `specials`; an int64 array or a range, each entry's
    digits; or a pair (texts, codes) of ASCII texts and an int array,
    texts[codes[i]] in row i.

    A chunk is one uint8 block of a byte row per table row: the text every
    row shares, and a field per column, its entry's text NUL padded to the
    column's width. All the floats of a chunk take their text from one
    `_text_block` call. Read row by row with its NULs dropped, the block is
    the chunk's text; no block outlives its chunk."""
    if not rows:
        return
    lead = max(len(first), len(sep))
    text = [sep.encode().ljust(lead, b"\0")]
    fields, floats = [], []
    for piece, column in zip(pieces, columns):
        text.append(piece.encode())
        if isinstance(column, str):
            text.append(column.encode())
            continue
        offset = sum(map(len, text))
        if isinstance(column, tuple):
            w = max(map(len, column[0]))
            fields.append((offset, w, (_padded(column[0], w), column[1])))
        elif isinstance(column, range) or column.dtype.kind != "f":
            # a range's ends are its extremes
            ends = sorted((column[0], column[-1])) if isinstance(column, range) else (column.min(), column.max())
            low, high = map(int, ends)
            w = len(str(max(high, -low))) + (low < 0)
            fields.append((offset, w, column))
        else:
            w = FLOAT_TEXT_ROWS
            floats.append((offset, column))
        text.append(bytes(w))
    text.append(pieces[-1].encode())
    template = bytearray(b"".join(text))
    width = len(template)
    for lo in range(0, rows, TABLE_ROWS):
        hi = min(lo + TABLE_ROWS, rows)
        n = hi - lo
        buf = template * n
        if lo == 0:
            buf[:lead] = first.encode().ljust(lead, b"\0")
        block = np.frombuffer(buf, np.uint8).reshape(n, width)
        if floats:
            values = np.full((len(floats), n), np.nan)
            for row, (_, column) in zip(values, floats):
                part = column[lo:hi]
                row[: len(part)] = part
            values = values.ravel()
            texts = _text_block(values, 0)
            odd = np.flatnonzero(~np.isfinite(values))
            if len(odd):
                x = values[odd]
                texts[:, odd] = specials[np.where(np.isnan(x), 2, x < 0)].T
            texts = texts.reshape(FLOAT_TEXT_ROWS, len(floats), n)
            for j, (offset, _) in enumerate(floats):
                block[:, offset : offset + FLOAT_TEXT_ROWS] = texts[:, j].T
        for offset, w, column in fields:
            if isinstance(column, tuple):
                block[:, offset : offset + w] = column[0][column[1][lo:hi]]
            else:
                part = column[lo:hi]
                if isinstance(part, range):
                    part = np.arange(part.start, part.stop, part.step)
                block[:, offset : offset + w] = digit_fields(part, w).view(np.uint8).reshape(n, w)
        yield buf.translate(None, b"\0").decode("ascii")
