"""Low-level numeric helpers shared by the distribution and metric modules."""

from __future__ import annotations

import math
from math import frexp, ldexp

import numpy as np

# stacks with fewer entries are summed by math.fsum row by row. Extraction
# costs about twenty NumPy calls, and more passes the wider its entries'
# exponents spread. Below 1,024 entries which is faster depends on the data:
# extraction from about 512 entries on stacks of short rows and on narrow
# draws, fsum on one row of a banded 28 x 28 pmf (32 against 46 us), whose
# entries span 11 decades; at 512 the converge workload's 28 x 28 layers
# ran 5 to 30% slower
BINNED_MIN_ENTRIES = 1024
# the extraction takes a stack's rows about this many entries at a time, so
# its two scratch arrays stay bounded whatever the stack's size
ROW_BINNED_PASS_ENTRIES = 1 << 13
# rows of 2**26 entries or more go to math.fsum; shorter rows keep s <= 27,
# within which the extraction's row totals stay exact, and their entries
# below BINNED_MAX_MAGNITUDE total less than 2**1016, so no sum overflows
BINNED_MAX_ENTRIES = 1 << 26
# rows holding an entry of this magnitude or more, NaN or an infinity go to
# math.fsum and get its result or exception; below it no splitting constant
# 2**(e + s) of the extraction overflows
BINNED_MAX_MAGNITUDE = 2.0**990
# extraction passes before a row still undecided goes to math.fsum over its
# parts and remainders: the masses, divergences and distances of the
# benchmark workloads need at most three passes, while a sum that cancels to
# far below its largest entries can need one per 53 - s bits between them
EXTRACTION_MAX_PASSES = 4


def stable_sum(a: np.ndarray) -> float:
    """Correctly rounded sum of an array: equal to ``math.fsum`` over its
    entries in row-major order, for every input.

    On finite entries the result is the exact sum rounded once, half to
    even, so it does not depend on the order of the entries and repeats bit
    for bit across runs, which keeps regression traces stable. The array is
    summed as the one row of ``stable_row_sums``.
    """
    return stable_row_sums(np.ascontiguousarray(a, dtype=np.float64).reshape(1, -1))[0]


def stable_row_sums(a: np.ndarray) -> list[float]:
    """``[math.fsum(row) for row in a.tolist()]`` for a 2-D array: the same
    floats and the same first exception.

    Stacks of fewer than ``BINNED_MIN_ENTRIES`` entries, and rows of
    ``BINNED_MAX_ENTRIES`` entries or more, take one ``tolist()`` and a
    ``math.fsum`` per row. Other stacks go to ``_extracted_row_sums`` about
    ``ROW_BINNED_PASS_ENTRIES`` entries at a time, and at least one row at a
    time.
    """
    a = np.asarray(a, dtype=np.float64)
    rows, n = a.shape
    if a.size < BINNED_MIN_ENTRIES or n >= BINNED_MAX_ENTRIES:
        return [math.fsum(row) for row in a.tolist()]
    per_pass = max(ROW_BINNED_PASS_ENTRIES // n, 1)
    return [s for lo in range(0, rows, per_pass) for s in _extracted_row_sums(a[lo : lo + per_pass])]


def _extracted_row_sums(a: np.ndarray) -> list[float]:
    """``math.fsum`` over each row of a nonempty 2-D float64 array of fewer
    than ``BINNED_MAX_ENTRIES`` columns, by error-free extraction (Rump,
    Ogita & Oishi 2008, "Accurate floating-point summation part I").

    A row holding NaN, an infinity, or an entry of magnitude
    ``BINNED_MAX_MAGNITUDE`` or more goes to ``math.fsum`` over its entries,
    so its result or exception is fsum's own. The other rows are split
    exactly, a pass at a time: with every remaining |r| below 2**e and
    2**s >= n + 2 for rows of n entries, sigma = 2**(e + s) makes
    ``q = (r + sigma) - sigma`` and ``r - q`` exact, and every q a multiple
    of 2**(e + s - 53) whose row totals stay within sigma, so ``q.sum`` adds
    them exactly in any order: one exact part per row and pass, after which
    every remainder is below 2**(e + s - 53). The passes stop once
    ``_settled`` finds every row's rounding decided by its parts, or after
    ``EXTRACTION_MAX_PASSES``; a row still undecided then gets ``math.fsum``
    over its parts and nonzero remainders. No part is -0.0, so neither is any
    sum, as with fsum.
    """
    q = np.empty_like(a)
    # NaN anywhere makes the largest magnitude NaN
    top = float(np.abs(a, out=q).max())
    if not top < BINNED_MAX_MAGNITUDE:
        ok = q.max(axis=1) < BINNED_MAX_MAGNITUDE
        # the scratch goes before fsum makes a float object of every entry:
        # held, it slows that by about 3% on a row of 250,000
        del q
        sums = iter(_extracted_row_sums(a[ok]) if ok.any() else ())
        return [next(sums) if k else math.fsum(row.tolist()) for k, row in zip(ok.tolist(), a)]
    n = a.shape[1]
    shift = (n + 1).bit_length()
    r = a
    parts = []
    while top > 0.0 and len(parts) < EXTRACTION_MAX_PASSES:
        sigma = ldexp(1.0, frexp(top)[1] + shift)
        np.add(r, sigma, out=q)
        q -= sigma
        # the first pass leaves the caller's array alone
        r = r - q if r is a else np.subtract(r, q, out=r)
        parts.append(q.sum(axis=1))
        # from here q holds the magnitudes of the remainders
        top = float(np.abs(r, out=q).max())
        # one pass never decides a rounding: its remainders can add up to
        # more than the spacing of any sum of its parts
        if top > 0.0 and len(parts) > 1:
            rounded, settled = _settled(parts, n * q.max(axis=1))
            if settled.all():
                break
    else:
        # the remainders ran out, or the passes did, before every row settled
        if not parts:
            return [0.0] * len(a)
        if top == 0.0 and len(parts) <= 2:
            # zeros add exactly, so two nonzero parts round once in any order
            return sum(parts[1:], parts[0]).tolist()
        rounded, settled = _settled(parts, n * q.max(axis=1))
    sums = rounded.tolist()
    for i in np.flatnonzero(~settled).tolist():
        rest = r[i]
        sums[i] = math.fsum([p[i] for p in parts] + rest[rest != 0.0].tolist())
    return sums


def _settled(parts: list[np.ndarray], bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts added in order, and for each row whether that is its exact
    sum rounded once: the sum of its parts and of remainders at most `bound`
    in magnitude.

    Each addition's rounding error is exact (Knuth's TwoSum), so the parts'
    exact sum is the rounded one plus those errors, whose float total is off
    by less than 2**-50 of their magnitudes. With at most two nonzero parts
    and no remainder, the one inexact addition is the rounding. Otherwise
    the rounding is decided where the errors, widened by that margin and by
    the bound, stay within half the gaps from the rounded value to its
    neighbours, the half-way points; comparing after rounding only ever
    widens the interval tested.
    """
    total = parts[0]
    error = np.zeros_like(total)
    spread = np.zeros_like(total)
    for part in parts[1:]:
        added = total + part
        back = added - total
        slip = (total - (added - back)) + (part - back)
        error += slip
        spread += np.abs(slip)
        total = added
    magnitude = np.abs(total)
    outward = error * np.sign(total)
    margin = bound * (1.0 + 2.0**-50) + spread * 2.0**-50
    inside = (outward + margin < np.spacing(magnitude) / 2.0) & (
        outward - margin > (np.nextafter(magnitude, 0.0) - magnitude) / 2.0
    )
    exact = (bound == 0.0) & (sum(part != 0.0 for part in parts) <= 2)
    return total, exact | inside


def readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """`a` as a read-only array of `dtype`: kept as it is if it already is
    one that owns its data, else copied, so an array the caller can still
    write to is never shared."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out
