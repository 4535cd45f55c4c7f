"""Relative entropy, total variation, and the Pinsker gap.

Relative entropy is computed in nats under the conventions
``0 * log(0/q) = 0`` and ``p > 0, q = 0 => +infinity``. Infinities are
carried explicitly through :class:`ExtReal` so downstream code never meets a
NaN: every comparison in the convergence checks is either between two finite
numbers or decided symbolically. A divergence is +infinity exactly when q
vanishes somewhere on the support of p; a subnormal q gives a finite value.

Total variation here is the L1 distance ``sum |p - q|``, which lives in
``[0, 2]``. The matching form of Pinsker's inequality is
``D(p||q) >= V(p, q)^2 / 2`` with D in nats.

All sums are correctly rounded (`_numeric.stable_row_sums`, which equals
`_numeric.stable_sum` row by row), so they do not depend on the order of
their terms and repeated runs on the same inputs are bit-identical. One
pair's divergence or distance, a row of them against stacked densities and
a stack of pairs go through the same helper, with one correctly rounded sum
per pair, so a value does not depend on how many pairs were evaluated with
it.

`encode` fixes how an exported number is written. The trace CSV and JSON,
the verify JSON and `run`'s stdout line all write its text: a single value
goes through it, and a column is written by `_fsio.table_chunks`, which
computes repr's text of its entries column-wise. An infinity is `inf` in
CSV (`_fsio.CSV_SPECIALS`) and the quoted string "inf" in JSON
(`_fsio.JSON_SPECIALS`), so it reads "inf" everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import stable_row_sums, stable_sum
from .errors import DimensionMismatch, DistributionError
from .dist import Axis, JointDensity, MarginalDensity

# Divergence terms summing to a barely negative total are floating residue,
# not a real violation; anything below this is a genuine error.
NEGATIVE_CLIP_TOL = 1e-9


@dataclass(frozen=True)
class ExtReal:
    """An extended real: a finite float or +infinity, never NaN or -infinity.

    Divergences are nonnegative by construction (tiny negative rounding
    residue is clipped to zero); derived quantities such as the Pinsker gap
    may carry small negative finite values. Ordering, addition, and
    subtraction follow the usual extended-real rules. Subtraction of two
    infinities is undefined and raises rather than producing NaN.
    """

    value: float

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise DistributionError("ExtReal cannot hold NaN")
        if self.value == -math.inf:
            raise DistributionError("ExtReal cannot hold -infinity")

    @staticmethod
    def finite(x: float) -> ExtReal:
        if not math.isfinite(x):
            raise DistributionError(f"ExtReal.finite needs a finite value, got {x!r}")
        return ExtReal(float(x))

    @staticmethod
    def pos_infinity() -> ExtReal:
        return ExtReal(math.inf)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def __float__(self) -> float:
        return self.value

    def __add__(self, other: ExtReal) -> ExtReal:
        return ExtReal(self.value + other.value)

    def __sub__(self, other: ExtReal) -> ExtReal:
        if not self.is_finite and not other.is_finite:
            raise DistributionError("infinity minus infinity is undefined")
        return ExtReal(self.value - other.value)

    def __le__(self, other: ExtReal) -> bool:
        return self.value <= other.value

    def __lt__(self, other: ExtReal) -> bool:
        return self.value < other.value

    def __str__(self) -> str:
        return str(encode(self))


def encode(x: ExtReal | float | int | None) -> float | int | str | None:
    """The exported form of a value, shared by the trace, verify and stdout writers.

    None and ints pass through, +-infinity become the strings "inf" and
    "-inf" (strict JSON has no infinity literal), and other reals become
    floats, so ``str`` of the result is the shortest round-trip notation.
    """
    if type(x) is ExtReal:
        x = x.value
    elif x is None or isinstance(x, int):
        return x
    else:
        x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _rel_entropy_array(p: np.ndarray, qs: np.ndarray, what: str = "relative_entropy") -> np.ndarray:
    """D(p||q) as a float64 array, +inf where infinite, for each weight array
    q stacked along the first axis of qs, where p is one weight array
    compared with every q or a stack of them paired with qs row by row.

    The terms ``p * log(p / q)`` are formed for the whole stack in single
    NumPy operations, and each row gets one correctly rounded sum
    (`stable_row_sums`), so a row's value does not depend on the rows stacked
    with it. Cells outside the support of every p are dropped, and terms
    outside one row's support are set to -0.0; neither changes a sum. Where
    q vanishes on a row's support a term is +infinity, and the row is given
    +infinity, the sum of its terms, without summing them. Where q is
    subnormal, p / q can overflow too: a row given +infinity with q > 0 on
    its support is summed again as ``p * (log p - log q)``, which is finite.
    A sum below zero by at most `NEGATIVE_CLIP_TOL` is clipped to 0.0; the
    first row below that raises.
    """
    if qs.shape[1:] != p.shape and qs.shape != p.shape:
        raise DimensionMismatch(f"{what}: shapes {p.shape} and {qs.shape[1:]} differ")
    rows = len(qs)
    ps = p.reshape(rows, -1) if p.ndim == qs.ndim else p.reshape(-1)
    qs = qs.reshape(rows, -1)
    support = ps > 0.0
    if not support.all():
        # cells outside every p's support carry no terms; at a degenerate
        # start they are all but a few cells of the grid
        cells = support if support.ndim == 1 else support.any(axis=0)
        ps, qs, support = (a.compress(cells, axis=-1) for a in (ps, qs, support))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = ps / qs
        np.log(terms, out=terms)
        terms *= ps
    if not support.all():
        np.copyto(terms, -0.0, where=~support)
    # a row holding a +inf term sums to +inf, as q <= 1 keeps every p / q
    # above zero and so no term is -inf; only the other rows are summed, and
    # a stack with no +inf term pays one reduction for the decision
    if terms.max() == math.inf:
        infinite = terms.max(axis=1) == math.inf
        finite = iter(stable_row_sums(terms[~infinite]))
        sums = [math.inf if inf else next(finite) for inf in infinite.tolist()]
        for i in np.flatnonzero(infinite).tolist():
            p_i, on = (ps[i], support[i]) if ps.ndim == 2 else (ps, support)
            if qs[i][on].min() > 0.0:
                sums[i] = stable_sum(p_i[on] * (np.log(p_i[on]) - np.log(qs[i][on])))
    else:
        sums = stable_row_sums(terms)
    if sums and min(sums) < 0.0:
        for total in sums:
            if total < -NEGATIVE_CLIP_TOL:
                raise DistributionError(f"{what}: divergence {total!r} is negative beyond rounding")
        sums = [0.0 if total < 0.0 else total for total in sums]
    return np.array(sums, dtype=np.float64)


def _l1_rows(p: np.ndarray, qs: np.ndarray) -> list[float]:
    """sum |p - q| for each weight array q stacked along the first axis of qs,
    p one weight array or a stack paired with qs row by row; one correctly
    rounded sum per row."""
    diff = p - qs
    np.abs(diff, out=diff)
    return stable_row_sums(diff.reshape(len(qs), -1))


def _rel_entropy_raw(p: np.ndarray, q: np.ndarray, what: str) -> ExtReal:
    """D(p||q) over weight arrays of identical shape."""
    return ExtReal(_rel_entropy_array(p, q[None], what).tolist()[0])


def relative_entropy(p: JointDensity, q: JointDensity) -> ExtReal:
    """D(p||q) in nats between two joints on the same grid."""
    return _rel_entropy_raw(p.w, q.w, "relative_entropy")


def marginal_relative_entropy(p: MarginalDensity, q: MarginalDensity) -> ExtReal:
    """D(p||q) in nats between two marginals on the same axis."""
    if p.axis is not q.axis:
        raise DimensionMismatch(
            f"cannot compare a {p.axis.value}-marginal against a {q.axis.value}-marginal"
        )
    return _rel_entropy_raw(p.v, q.v, "marginal_relative_entropy")


def total_variation(p: JointDensity, q: JointDensity) -> float:
    """L1 distance sum |p - q|, a value in [0, 2]."""
    if p.shape != q.shape:
        raise DimensionMismatch(f"total_variation: shapes {p.shape} and {q.shape} differ")
    return _l1_rows(p.w, q.w[None])[0]


def marginal_total_variation(p: MarginalDensity, q: MarginalDensity) -> float:
    """L1 distance between two marginals on the same axis."""
    if p.axis is not q.axis:
        raise DimensionMismatch(
            f"cannot compare a {p.axis.value}-marginal against a {q.axis.value}-marginal"
        )
    if len(p) != len(q):
        raise DimensionMismatch(f"total_variation: lengths {len(p)} and {len(q)} differ")
    return _l1_rows(p.v, q.v[None])[0]


def pinsker_gap(p: JointDensity, q: JointDensity) -> ExtReal:
    """D(p||q) - V(p, q)^2 / 2, which Pinsker's inequality keeps nonnegative.

    The gap is +infinity when the divergence is. A finite gap may dip a few
    ulps below zero when D and V^2/2 agree to machine precision; callers
    testing the inequality should allow that rounding residue.
    """
    d = relative_entropy(p, q)
    if not d.is_finite:
        return ExtReal.pos_infinity()
    v = total_variation(p, q)
    return ExtReal(d.value - 0.5 * v * v)
