"""Low-level numeric helpers shared by the distribution and metric modules."""

from __future__ import annotations

import math

import numpy as np

# arrays with fewer entries are summed by math.fsum directly. Binning first
# beats fsum near 512 entries, where its fixed cost of about ten NumPy calls
# is paid back; this is the first measured size where it wins by at least
# 1.7x on both kinds of data in BENCH_6.json (tools/bench_layers.py). A
# single sum of at most 784 entries (grids up to 28x28) stays on fsum; the
# one-step divergences of `run`, stacked over a block of half-steps, are
# binned together by stable_row_sums
BINNED_MIN_ENTRIES = 1024
# rows of a stack with fewer entries are summed by math.fsum one by one: at
# 16 rows, binning them together first wins at 128 entries a row (1.1x) and
# by 1.7x at 192 in BENCH_7.json (tools/bench_layers.py)
ROW_BINNED_MIN_ENTRIES = 128
# the binned pass over a stack's rows takes about this many entries at a
# time, so its temporaries stay bounded whatever the stack's size
ROW_BINNED_PASS_ENTRIES = 1 << 13
# a bin of fewer than 2**26 entries keeps its sums of integer parts (each
# below 2**27) and of remainders (each below 2**26 units) under 2**53
BINNED_MAX_ENTRIES = 1 << 26
# with entries below 2**990 no bin, and no sum of at most 2**26 entries,
# can overflow
BINNED_MAX_MAGNITUDE = 2.0**990


def stable_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of an array: equal to ``math.fsum`` over its
    entries in row-major order, for every input.

    On finite entries the result is the exact sum rounded once, half to
    even, so it does not depend on the order of the entries and repeats bit
    for bit across runs, which keeps regression traces stable.

    Arrays of at least ``BINNED_MIN_ENTRIES`` entries are summed exactly by
    exponent: ``np.frexp`` writes each entry as m * 2**e with 0.5 <= |m| < 1,
    so m * 2**27 splits exactly into an integer part below 2**27 and a
    remainder that is a multiple of 2**-26 below 1. Two ``np.bincount``
    calls sum the parts per exponent e. A bin of fewer than 2**26 entries
    stays below 2**53 units, so every addition is exact. Each bin total,
    scaled back by 2**(e - 27), is an exact double, and one ``math.fsum``
    over those few values rounds the exact total (Shewchuk 1997, with the
    exponent-binned accumulation of Demmel & Hida 2003). Smaller arrays,
    arrays of 2**26 or more entries, and arrays with a non-finite entry or
    one of magnitude 2**990 or more go to ``math.fsum`` over all entries, so
    NaN, infinities, ``ValueError`` and ``OverflowError`` are its own.
    """
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    if (
        a.size < BINNED_MIN_ENTRIES
        or a.size >= BINNED_MAX_ENTRIES
        or not np.abs(a).max() < BINNED_MAX_MAGNITUDE
    ):
        return math.fsum(a.tolist())
    m, e = np.frexp(a)
    m *= 2.0**27
    whole = np.trunc(m)
    m -= whole
    low = int(e.min())
    e -= low
    whole_bins = np.bincount(e, weights=whole)
    scale = np.arange(low - 27, low - 27 + len(whole_bins))
    return math.fsum(
        np.ldexp(whole_bins, scale).tolist() + np.ldexp(np.bincount(e, weights=m), scale).tolist()
    )


def stable_row_sums(a: np.ndarray) -> list[float]:
    """``[stable_sum(row) for row in a]`` for a 2-D array: the same floats and
    the same first exception.

    A single row, and rows too long for two of them to share a pass of
    ``ROW_BINNED_PASS_ENTRIES`` entries, go to ``stable_sum`` one by one.
    Rows shorter than ``ROW_BINNED_MIN_ENTRIES``, and stacks of fewer than
    ``BINNED_MIN_ENTRIES`` entries, take one ``tolist()`` and a ``math.fsum``
    per row. Other stacks are binned a pass at a time, with bins keyed by
    (row, exponent): a bin holds one row's entries only, so each row keeps
    ``stable_sum``'s exactness argument, and one ``math.fsum`` over a row's
    bin totals rounds that row's exact sum. A row with a non-finite
    entry or one of magnitude ``BINNED_MAX_MAGNITUDE`` or more leaves the
    binned pass and gets ``math.fsum``'s own result or exception.
    """
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    per_pass = ROW_BINNED_PASS_ENTRIES // max(n, 1)
    if rows == 1 or per_pass < 2:
        return [stable_sum(row) for row in a]
    if n < ROW_BINNED_MIN_ENTRIES or a.size < BINNED_MIN_ENTRIES:
        return [math.fsum(row) for row in a.tolist()]
    out: list[float] = []
    for lo in range(0, rows, per_pass):
        block = a[lo : lo + per_pass]
        binnable = (block.max(axis=1) < BINNED_MAX_MAGNITUDE) & (block.min(axis=1) > -BINNED_MAX_MAGNITUDE)
        sums = iter(_binned_row_sums(block if binnable.all() else block[binnable]))
        out.extend(next(sums) if ok else math.fsum(row.tolist()) for ok, row in zip(binnable.tolist(), block))
    return out


def _binned_row_sums(a: np.ndarray) -> list[float]:
    """The exact sum of each row of a finite 2-D array with entries below
    ``BINNED_MAX_MAGNITUDE``, rounded once: ``stable_sum``'s binning with one
    set of exponent bins per row."""
    rows = len(a)
    if rows == 0:
        return []
    m, e = np.frexp(a)
    m *= 2.0**27
    whole = np.trunc(m)
    m -= whole
    low = int(e.min())
    span = int(e.max()) - low + 1
    e += np.arange(-low, rows * span - low, span, dtype=e.dtype)[:, None]
    key = e.ravel()
    scale = np.arange(low - 27, low - 27 + span)
    whole_bins, part_bins = (
        np.ldexp(np.bincount(key, weights=x.ravel(), minlength=rows * span).reshape(rows, span), scale).tolist()
        for x in (whole, m)
    )
    return [math.fsum(w + r) for w, r in zip(whole_bins, part_bins)]


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a float64 copy of `a` with the write flag cleared."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out
