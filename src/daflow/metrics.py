"""Relative entropy, total variation, and the Pinsker gap.

Relative entropy is computed in nats under the conventions
``0 * log(0/q) = 0`` and ``p > 0, q = 0 => +infinity``. Infinities are
carried explicitly through :class:`ExtReal` so downstream code never meets a
NaN: every comparison in the convergence checks is either between two finite
numbers or decided symbolically.

Total variation here is the L1 distance ``sum |p - q|``, which lives in
``[0, 2]``. The matching form of Pinsker's inequality is
``D(p||q) >= V(p, q)^2 / 2`` with D in nats.

All sums are correctly rounded (`_numeric.stable_sum`), so they do not
depend on the order of their terms and repeated runs on the same inputs are
bit-identical. One
pair's divergence or distance and a row of them against stacked densities go
through the same helper, with one correctly rounded sum per pair, so a
value does not depend on how many pairs were evaluated with it.

`encode` fixes how an exported number is written. The trace CSV and JSON,
the verify JSON and `run`'s stdout line all go through it, so an infinity
reads "inf" everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import stable_sum
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


def _rel_entropy_rows(p: np.ndarray, qs: np.ndarray, what: str = "relative_entropy") -> list[ExtReal]:
    """D(p||q) for each weight array q stacked along the first axis of qs.

    The terms ``p * log(p / q)`` on the support of p are formed for the whole
    stack in single NumPy operations, and each row gets one correctly rounded
    sum, so a row's value does not depend on the rows stacked with it. A row
    whose q vanishes somewhere on the support is +infinity.
    """
    if qs.shape[1:] != p.shape:
        raise DimensionMismatch(f"{what}: shapes {p.shape} and {qs.shape[1:]} differ")
    support = (p > 0.0).reshape(-1)
    ps, q_support = p.reshape(-1), qs.reshape(len(qs), -1)
    if not support.all():
        # gathering is the costlier step at the grid sizes a run iterates on,
        # and every iterate after t=0 has full support
        ps, q_support = ps[support], q_support.compress(support, axis=1)
    infinite = (q_support == 0.0).any(axis=1).tolist()
    with np.errstate(divide="ignore"):
        terms = ps / q_support
    np.log(terms, out=terms)
    terms *= ps
    out = []
    for row, row_infinite in zip(terms, infinite):
        if row_infinite:
            out.append(ExtReal.pos_infinity())
            continue
        total = stable_sum(row)
        if total < 0.0:
            if total < -NEGATIVE_CLIP_TOL:
                raise DistributionError(f"{what}: divergence {total!r} is negative beyond rounding")
            total = 0.0
        out.append(ExtReal.finite(total))
    return out


def _l1_rows(p: np.ndarray, qs: np.ndarray) -> list[float]:
    """sum |p - q| for each weight array q stacked along the first axis of qs,
    one correctly rounded sum per row."""
    diff = p - qs
    np.abs(diff, out=diff)
    return [stable_sum(row) for row in diff]


def _rel_entropy_raw(p: np.ndarray, q: np.ndarray, what: str) -> ExtReal:
    """D(p||q) over weight arrays of identical shape."""
    return _rel_entropy_rows(p, q[None], what)[0]


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
