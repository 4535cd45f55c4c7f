"""The shortest round-trip text of float columns, as ``repr`` writes it,
computed column-wise with NumPy: the kernel of `_fsio.table_chunks` and
`_fsio.float_chunks`, which load it on first use.

`shortest_rows` finds repr's digits as the shortest decimal in each value's
rounding interval (Steele & White 1990; Adams, "Ryu", PLDI 2018). With
|x| = m * 2**e, m in [0.5, 1), it scales x by 10**q to y in [1e16, 1e17)
as an exact product of m and 10**q * 2**-b, a sum of two doubles in
[0.5, 1), times 2**(e + b) (Dekker 1971), so y and the scaled half-gap h
to the neighbouring floats are known to within about 1e-14 whatever the
magnitude. A decision that lies within _MARGIN of a tie or of an interval
edge goes to repr, as does a power of two (whose gap below is half the one
above), a subnormal, infinity and NaN. The tables take about 1 ms to
build, with integer arithmetic and NumPy only.
"""

from __future__ import annotations

import math

import numpy as np

_MARGIN = 2.0**-36
_SPLIT = 2.0**27 + 1.0
# frexp's exponents of the normal floats
_E_LO, _E_HI = -1021, 1024
_EXPONENTS = np.arange(_E_LO, _E_HI + 1)
# floor(log10 |x|) is _K0 or _K0 + 1 for |x| in [2**(e - 1), 2**e)
_K0 = np.floor((_EXPONENTS - 1) * math.log10(2.0)).astype(np.intp)
_K_LO, _K_HI = int(_K0[0]), int(_K0[-1]) + 1
_J_LO, _J_HI = min(_K_LO + 1, 16 - _K_HI), max(_K_HI, 16 - _K_LO)


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10**j for j from _J_LO to _J_HI as (head + tail) * 2**b with head in
    [0.5, 1) correctly rounded and head + tail within 2**-108 of 10**j /
    2**b, relatively."""
    # each power as an integer of 116 bits or more times 2**s: 10**j itself,
    # or for j = -n the quotient 2**s // 5**n with its last bit set, which
    # rounds as 2**s / 5**n does, times 2**-n
    powers, five = [], 1
    for n in range(1, 1 - _J_LO):
        five *= 5
        s = five.bit_length() + 116
        powers.append(((1 << s) // five | 1, -s - n))
    powers.reverse()
    ten = 1
    for _ in range(_J_HI + 1):
        powers.append((ten, 0))
        ten *= 10
    heads, tails, shifts = [], [], []
    for i, s in powers:
        # past 116 bits, a last bit set if any bit cut off is
        cut = max(i.bit_length() - 116, 0)
        i = i >> cut | (i & ((1 << cut) - 1) != 0)
        head, bits = float(i), i.bit_length()
        heads.append(math.ldexp(head, -bits))
        tails.append(math.ldexp(float(i - int(head)), -bits))
        shifts.append(bits + cut + s)
    return np.array(heads), np.array(tails), np.array(shifts)


_HEADS, _TAILS, _SHIFTS = _powers_of_ten()
_HIGH = _HEADS * _SPLIT
_HIGH -= _HIGH - _HEADS
# per power index: the head, the tail, and the head split into two halves of
# 26 bits, whose products with the halves of m are exact; and 2**b less
# frexp's lowest exponent, so that e + b is the shift of y
_TENS = np.stack([_HEADS, _TAILS, _HIGH, _HEADS - _HIGH])
_SHIFT = _SHIFTS + _E_LO
# per binary exponent: the smallest m whose |x| >= 10**(_K0 + 1), and the
# power index of 10**(16 - _K0)
_AT_LEAST = np.where(_TAILS > 0.0, np.nextafter(_HEADS, 2.0), _HEADS)[_K0 + 1 - _J_LO]
_AT_LEAST = np.ldexp(_AT_LEAST, _SHIFTS[_K0 + 1 - _J_LO] - _EXPONENTS)
_POWER = 16 - _J_LO - _K0
# 2**(e + b), by the shift e + b, which lies in 54..58 since y lies in
# [1e16, 1e17) and m times 10**q * 2**-b in [0.25, 1)
_POWERS_OF_TWO = np.ldexp(1.0, np.arange(64))
del _EXPONENTS, _K0, _HEADS, _TAILS, _SHIFTS, _HIGH

# per decimal point position d of the digits, d = floor(log10 |x|) + 1,
# eight bytes placed before the digits and eight after them
_POINTS = np.arange(_K_LO + 1, _K_HI + 3)
_FIXED = (_POINTS >= -3) & (_POINTS <= 16)
_BELOW_ONE = _FIXED & (_POINTS <= 0)
_EXP = ~_FIXED * np.abs(_POINTS - 1)
_LAYOUT = np.zeros((len(_POINTS), 16), np.uint8)
_LAYOUT[:, :14] = np.stack([
    # "0." and up to three zeros, in fixed notation below 1
    _BELOW_ONE * 48, _BELOW_ONE * 46, *(_BELOW_ONE * (_POINTS < -z) * 48 for z in range(3)),
    # the digits before the dot, the fewest digits shown, and the dot
    np.where(_FIXED & (_POINTS > 0), _POINTS, 1) * ~_BELOW_ONE,
    (_FIXED & (_POINTS > 0)) * (_POINTS + 1),
    ~_BELOW_ONE * 46,
    # "e", the exponent's sign and its digits, the hundreds only from 100
    ~_FIXED * 101, ~_FIXED * np.where(_POINTS > 0, 43, 45), (_EXP >= 100) * (_EXP // 100 + 48),
    ~_FIXED * (_EXP // 10 % 10 + 48), ~_FIXED * (_EXP % 10 + 48),
    # the digits the dot needs: two in exponent notation, none in fixed
    ~_FIXED * 2,
]).T
# as two 8-byte words, so two 1-D gathers fetch a value's layout
_LAYOUT = _LAYOUT.view("<u8")
_PREFIX_WORDS, _SUFFIX_WORDS = np.ascontiguousarray(_LAYOUT[:, 0]), np.ascontiguousarray(_LAYOUT[:, 1])
del _LAYOUT, _FIXED, _BELOW_ONE, _EXP

_DIGITS = np.arange(48, 58, dtype="<u4")
# the four ASCII digits of 0 to 9999 as one little-endian word each
_QUADS = (_DIGITS[:, None, None, None] | _DIGITS[:, None, None] << 8 | _DIGITS[:, None] << 16 | _DIGITS << 24).ravel()
_SLOTS = np.arange(18, dtype=np.uint8)[:, None]
_PLACES = _SLOTS + np.uint8(1)
# steps of the candidate multiples, and the ties of the last two
_STEPS = np.array([[100.0], [10.0], [1.0]])
_TIES = np.array([[5.0], [0.5]])


def shortest_rows(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write repr of each value of a nonempty 1-D float64 array into the
    columns of out[:29] (`_fsio.FLOAT_TEXT_ROWS`), NUL padded, and return a
    mask of the values left for repr, whose columns hold no text.

    With |x| = m * 2**e and y = |x| * 10**(16 - k), k = floor(log10 |x|),
    the floats that round to x scale to the interval around y of half-width
    h = 2**(e - 54) * 10**(16 - k), and 0.55 < h < 11.1. An interval that
    narrow holds at most one multiple of 100. repr takes the shortest
    decimal in it, so its 17-digit form c is that multiple of 100 if the
    interval holds one, else the multiple of 10 nearest y if that lies in
    it, else the integer nearest y. The 17 digits of c, with their trailing
    zeros dropped, are laid out in fixed notation for -3 <= k + 1 <= 16 and
    as d.ddde+XX otherwise, repr's rule.
    """
    n = len(a)
    m, e = np.frexp(np.abs(a))
    ok = np.abs(m - 0.75) < 0.25
    ok &= e >= _E_LO
    zeros = None
    if not ok.all():
        # the others go to repr; a zero is written as the digits 0 at the
        # point of 1.5, "0.0"
        m[~ok] = 0.75
        e[~ok] = 1
        zeros = a == 0.0
        ok |= zeros
    e = e.astype(np.intp)
    e -= _E_LO
    power = _POWER[e]
    power -= m >= _AT_LEAST[e]
    # y = p + t to within about 1e-14: m * head is p plus its rounding error,
    # summed exactly from the halves' products, t adds m * tail, and both
    # scale exactly by 2**(e + b)
    head, tail, high, low = np.take(_TENS, power, axis=1)
    e += _SHIFT[power]
    p = m * head
    m_high = m * _SPLIT
    m_low = m_high - m
    m_high -= m_low
    np.subtract(m, m_high, out=m_low)
    t = m_high * high
    t -= p
    m_high *= low
    t += m_high
    high *= m_low
    t += high
    low *= m_low
    t += low
    tail *= m
    t += tail
    scale = _POWERS_OF_TWO[e]
    p *= scale
    t *= scale
    h = head * scale
    h *= 2.0**-54
    del m, e, scale, head, tail, high, low, m_high, m_low
    # p is an integer, so y = base + w with base a multiple of 100 and
    # 100 <= w < 200 up to t
    c = p.astype(np.int64)
    del p
    base = c // 100 * 100 - 100
    c -= base
    w = c + t
    del c, t
    # the multiples of 100, 10 and 1 nearest y, and their distances to it
    r = np.divide(w, _STEPS)
    np.rint(r, out=r)
    r *= _STEPS
    d = np.subtract(r, w)
    del w
    np.abs(d, out=d)
    fits = d[:2] < h
    edge = np.subtract(d[:2], h)
    late = (np.abs(edge, out=edge) < _MARGIN).any(axis=0)
    # a tie between two multiples of 10 matters where they are the shortest
    # in the interval, one between two integers where no multiple of 10 is
    d[1:] -= _TIES
    tie = np.abs(d[1:], out=d[1:]) < _MARGIN
    tie[0] &= fits[1] > fits[0]
    tie[1] &= ~fits[1]
    late |= tie.any(axis=0)
    late |= ~ok
    del edge, d, h, tie
    np.copyto(r[2], r[1], where=fits[1])
    np.copyto(r[2], r[0], where=fits[0])
    c = r[2].astype(np.int64)
    c += base
    del r, fits, base
    top = c == 10**17
    if top.any():
        c[top] = 10**16
        power -= top
    if zeros is not None:
        c[zeros] = 0
    # the digits of c, from three zeros and four digits per word, one row each
    quads = np.empty((5, n), "<u4")
    for i in (4, 3, 2, 1):
        high = c // 10**4
        c -= high * 10**4
        quads[i] = _QUADS[c]
        c = high
    quads[0] = _QUADS[c]
    del c, high
    digits = np.empty((21, n), np.uint8)
    digits[:20].reshape(5, 4, n)[...] = quads.view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1)
    del quads
    digits[2] = 0
    digits[20] = 0
    mask = np.greater(digits[3:], 48)
    work = np.multiply(mask, _PLACES)
    last = work[:17].max(axis=0)
    point = (17 - _J_LO - _K_LO - 1) - power
    del power
    layout = np.stack([_PREFIX_WORDS[point], _SUFFIX_WORDS[point]]).view(np.uint8).reshape(2, n, 8)
    del point
    out[1:6] = layout[0, :, :5].T
    out[24:29] = layout[1, :, :5].T
    before, shown, dot = np.ascontiguousarray(layout[0, :, 5:8].T)
    dot *= last >= layout[1, :, 5]
    shown = np.maximum(last, shown)
    del layout, last
    # slot r holds digit r before the dot, then the dot, then digit r - 1
    block = out[6:24]
    np.less(_SLOTS, before, out=mask)
    np.multiply(digits[3:], mask, out=block)
    np.subtract(_SLOTS, before + 1, out=work)
    np.less(work, shown - before, out=mask)
    block += np.multiply(digits[2:20], mask, out=work)
    np.equal(_SLOTS, before, out=mask)
    block += np.multiply(mask, dot, out=work)
    np.multiply(np.signbit(a).view(np.uint8), 45, out=out[0], casting="unsafe")
    return late
