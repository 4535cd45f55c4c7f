"""Text output: atomic file writes, the indent-1 JSON writer, and
`table_chunks`, the one writer of the trace and verify tables."""

from __future__ import annotations

import functools
import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain


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
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` atomically (see `atomic_write_chunks`)."""
    atomic_write_chunks(path, (text,))


# members of these exact types are never containers; a container holding
# anything else is walked member by member, which writes the same text
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C-accelerated encoder for containers at `depth`: its item
    separator ends a line and indents the next member."""
    return json.JSONEncoder(separators=(",\n" + " " * (depth + 1), ": "))


def dumps_indent1(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=1)``, byte for byte; at `depth`, the text of
    `obj` as a member nested that deep in such a document.

    With `indent` set, CPython encodes in pure Python. Here a dict, list or
    tuple with no container among its members is written by one call to the
    C encoder, whose item separator already carries the newline and
    indentation, and only the containers that nest others are walked in
    Python.
    """
    parts: list[str] = []
    _dump(obj, depth, parts)
    return "".join(parts)


def _dump(obj, depth: int, parts: list[str]) -> None:
    enc = _encoder(depth)
    is_dict = isinstance(obj, dict)
    members = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else None
    if not members or _SCALARS.issuperset(map(type, members)):
        text = enc.encode(obj)
        if members:
            # "{a,<sep>b}" -> "{<newline, indent>a,<sep>b<newline, outer indent>}"
            text = f"{text[0]}{enc.item_separator[1:]}{text[1:-1]}\n{' ' * depth}{text[-1]}"
        parts.append(text)
        return
    separator = enc.item_separator[1:]
    parts.append("{" if is_dict else "[")
    for key, member in obj.items() if is_dict else enumerate(obj):
        parts.append(separator)
        separator = enc.item_separator
        if is_dict:
            # the key as the encoder writes it, including json's key coercions
            parts.append(enc.encode({key: 0})[1:-2])
        _dump(member, depth + 1, parts)
    parts.append(f"\n{' ' * depth}{'}' if is_dict else ']'}")


# the table writer formats at most this many rows at a time (about 300 KB of
# verify JSON), whatever the number of rows
TABLE_ROWS = 1 << 10


def record_template(keys: Iterable[str], depth: int) -> str:
    """A dict of `keys` as `dumps_indent1` writes it as a list member `depth`
    deep, indentation included, with a ``%s`` slot for each value."""
    return " " * depth + dumps_indent1(dict.fromkeys(keys, "%s"), depth).replace('"%s"', "%s")


def table_chunks(row: str, sep: str, rows: int, columns: Callable[[int, int], Sequence[Sequence]]) -> Iterator[str]:
    """`rows` rows written with the ``%`` template `row` and joined by `sep`,
    at most `TABLE_ROWS` per chunk: rows lo to hi are one fill of the joined
    template from `columns(lo, hi)`, one list of hi - lo values per slot."""
    for lo in range(0, rows, TABLE_ROWS):
        hi = min(lo + TABLE_ROWS, rows)
        yield sep.join([row] * (hi - lo)) % tuple(chain.from_iterable(zip(*columns(lo, hi))))
