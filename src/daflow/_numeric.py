"""Low-level numeric helpers shared by the distribution and metric modules."""

from __future__ import annotations

import math

import numpy as np

# arrays with fewer entries are summed by math.fsum directly. Binning one
# row pays back its fixed cost of about fifteen NumPy calls from about 784
# entries (the crossover in BENCH_8.json, tools/bench_layers.py), and wins
# by at least 1.3x on both kinds of data from 1,024. A single sum of at most
# 784 entries (grids up to 28x28) stays on fsum; the one-step divergences
# of `run`, stacked over a block of half-steps, are binned together by
# stable_row_sums
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

    Arrays of at least ``BINNED_MIN_ENTRIES`` and fewer than
    ``BINNED_MAX_ENTRIES`` entries are summed as the one row of
    ``_binned_row_sums``; others go to ``math.fsum`` over all entries.
    """
    a = np.ascontiguousarray(a, dtype=np.float64).ravel()
    if a.size < BINNED_MIN_ENTRIES or a.size >= BINNED_MAX_ENTRIES:
        return math.fsum(a.tolist())
    return _binned_row_sums(a[None])[0]


def stable_row_sums(a: np.ndarray) -> list[float]:
    """``[stable_sum(row) for row in a]`` for a 2-D array: the same floats and
    the same first exception.

    A single row, and rows too long for two of them to share a pass of
    ``ROW_BINNED_PASS_ENTRIES`` entries, go to ``stable_sum`` one by one.
    Rows shorter than ``ROW_BINNED_MIN_ENTRIES``, and stacks of fewer than
    ``BINNED_MIN_ENTRIES`` entries, take one ``tolist()`` and a ``math.fsum``
    per row. Other stacks go to ``_binned_row_sums`` a pass at a time.
    """
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    per_pass = ROW_BINNED_PASS_ENTRIES // max(n, 1)
    if rows == 1 or per_pass < 2:
        return [stable_sum(row) for row in a]
    if n < ROW_BINNED_MIN_ENTRIES or a.size < BINNED_MIN_ENTRIES:
        return [math.fsum(row) for row in a.tolist()]
    return [s for lo in range(0, rows, per_pass) for s in _binned_row_sums(a[lo : lo + per_pass])]


def _binned_row_sums(a: np.ndarray) -> list[float]:
    """``math.fsum`` over each row of a 2-D float64 array of fewer than
    ``BINNED_MAX_ENTRIES`` columns, binned by exponent.

    A row holding NaN, an infinity, or an entry of magnitude
    ``BINNED_MAX_MAGNITUDE`` or more goes to ``math.fsum`` over its entries,
    so its result or exception is fsum's own. The other rows are summed
    exactly: ``np.frexp`` writes each entry as m * 2**e with 0.5 <= |m| < 1
    (zeros get e = 0), so m * 2**27 splits exactly into an integer part
    below 2**27 and a remainder that is a multiple of 2**-26 below 1. Two
    ``np.bincount`` calls, keyed by (row, e), sum the parts per row and
    exponent; an empty bin holds 0.0, which changes no sum. A bin of fewer
    than 2**26 entries stays below 2**53 units, so every addition is exact.
    Each bin total, scaled back by 2**(e - 27), is an exact double, and one
    ``math.fsum`` over a row's few bin totals rounds that row's exact sum
    (Shewchuk 1997, with the exponent-binned accumulation of Demmel & Hida
    2003).
    """
    top = float(np.abs(a).max())
    if not top < BINNED_MAX_MAGNITUDE:
        binnable = np.abs(a).max(axis=1) < BINNED_MAX_MAGNITUDE
        sums = iter(_binned_row_sums(a[binnable]) if binnable.any() else ())
        return [next(sums) if ok else math.fsum(row.tolist()) for ok, row in zip(binnable.tolist(), a)]
    rows = len(a)
    m, e = np.frexp(a)
    m *= 2.0**27
    whole = np.trunc(m)
    m -= whole
    low = int(e.min())
    if rows == 1:
        # a lone row needs no layout: its bins stop at its highest key
        span = 0
        e -= low
    else:
        # the top exponent is that of the largest magnitude, or the zeros' 0
        span = int(top).bit_length() - low + 1
        e += np.arange(-low, rows * span - low, span, dtype=e.dtype)[:, None]
    key = e.ravel()
    whole_bins, part_bins = (
        np.bincount(key, weights=x.ravel(), minlength=rows * span).reshape(rows, -1) for x in (whole, m)
    )
    scale = np.arange(low - 27, low - 27 + whole_bins.shape[1])
    return [
        math.fsum(w + r)
        for w, r in zip(np.ldexp(whole_bins, scale).tolist(), np.ldexp(part_bins, scale).tolist())
    ]


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a float64 copy of `a` with the write flag cleared."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out
