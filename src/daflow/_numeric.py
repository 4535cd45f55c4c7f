"""Low-level numeric helpers shared by the distribution and metric modules."""

from __future__ import annotations

import math

import numpy as np

# arrays with fewer entries are summed by math.fsum directly. Binning first
# beats fsum near 512 entries, where its fixed cost of about ten NumPy calls
# is paid back; this is the first measured size where it wins by at least
# 1.7x on both kinds of data in BENCH_6.json (tools/bench_layers.py), and it
# keeps on fsum the sums of at most 784 entries (grids up to 28x28) that the
# converge, certify and sample benchmark workloads make
BINNED_MIN_ENTRIES = 1024
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


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a float64 copy of `a` with the write flag cleared."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out
