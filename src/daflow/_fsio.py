"""Text output: atomic file writes, streamed a chunk at a time, and
`table_chunks`, the one writer of the trace and verify tables.

JSON documents are ``json.dumps(doc, indent=1)`` byte for byte. The small
ones are that call; a document nested `depth` deep in another is its text
with each newline followed by `depth` more spaces. The large lists (the
trace's and verify's records, and the density's rows in `dist.save_joint`)
are written in chunks in the same layout."""

from __future__ import annotations

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
