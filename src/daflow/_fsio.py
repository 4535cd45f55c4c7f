"""Atomic text-file output."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable


def atomic_write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to `path` via a temp file in the same
    directory, then rename.

    Readers never observe a partially written file: os.replace is atomic on
    POSIX and Windows when source and destination share a filesystem, which
    placing the temp file next to the destination guarantees. Chunks are
    consumed one at a time, so the text never has to exist whole in memory;
    if producing one raises, the temp file is removed and `path` is left as
    it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` atomically (see `atomic_write_chunks`)."""
    atomic_write_chunks(path, (text,))
