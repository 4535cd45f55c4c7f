"""Finite joint, marginal, and conditional distributions on a grid.

Everything lives on an nx-by-ny grid under counting measure. A joint density
is a dense matrix of cell probabilities, a marginal is a vector on one axis,
and a conditional kernel holds one probability vector per conditioning slice.
Joints, marginals and kernels validate on construction; a Target derives
its other fields from its joint. All are immutable afterwards, so instances
can be shared freely across threads; every operation here is a pure function.

Normalization policy, applied by every constructor:
  - entries must be finite and nonnegative (NaN, inf, and negative mass are
    rejected outright), with a total that does not overflow;
  - a total within 1e-12 of 1 is accepted as normalized;
  - a total off by more than 1e-12 but at most 1e-9 is silently renormalized
    (floating drift from upstream arithmetic);
  - anything further off is rejected.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ._fsio import atomic_write_chunks, float_chunks
from ._numeric import readonly, stable_sum
from .errors import DimensionMismatch, DistributionError, PositivityViolation

SUM_TOL = 1e-12
RENORM_TOL = 1e-9
TARGET_MAX_VARIATES = 1 << 20


class Axis(enum.Enum):
    """The two coordinate axes of the grid."""

    X = "x"
    Y = "y"


class Direction(enum.Enum):
    """Orientation of a conditional kernel."""

    X_GIVEN_Y = "x_given_y"
    Y_GIVEN_X = "y_given_x"

    @property
    def conditioning_axis(self) -> Axis:
        """The axis whose value is held fixed by this kernel."""
        return Axis.Y if self is Direction.X_GIVEN_Y else Axis.X

    @property
    def refreshed_axis(self) -> Axis:
        """The axis the kernel assigns probabilities over."""
        return Axis.X if self is Direction.X_GIVEN_Y else Axis.Y


def _check_entries(a: np.ndarray, what: str) -> None:
    """Refuse weights that are not all finite and nonnegative."""
    if not np.all(np.isfinite(a)):
        raise DistributionError(f"{what} contains NaN or infinite entries")
    if np.any(a < 0.0):
        raise DistributionError(f"{what} contains negative mass")


def _exact_total(a: np.ndarray, what: str) -> float:
    """The correctly rounded total of weights, refusing one too large to
    represent."""
    try:
        return stable_sum(a)
    except OverflowError as e:
        raise DistributionError(f"{what} has a total too large to represent") from e


def _mass_total(a: np.ndarray, what: str) -> float:
    """The correctly rounded total of weights that must be finite and
    nonnegative."""
    _check_entries(a, what)
    return _exact_total(a, what)


def _rescaled_rows(rows: np.ndarray, what: str) -> dict[int, float]:
    """Apply the module normalization policy to each row of a 2-D array of
    weights: refuse entries that are not finite and nonnegative, then the
    first row whose total is too far from 1, and return the rows to rescale,
    each with its correctly rounded total.

    A float sum of k nonnegative entries, in any order, lies within about
    k * 2**-53 of their total, relative (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., section 4.2). So a row whose float sum
    is 2k * 2**-53 inside `SUM_TOL` of 1 has a correctly rounded total within
    `SUM_TOL` of 1 and is kept as it is; only the other rows are summed
    exactly, as every row is from 4,504 entries on."""
    _check_entries(rows, what)
    slack = SUM_TOL - rows.shape[1] * 2.0**-52
    with np.errstate(over="ignore"):
        unsure = np.abs(rows.sum(axis=1) - 1.0) > slack if slack > 0.0 else np.ones(len(rows), dtype=bool)
    rescaled = {}
    for i in np.flatnonzero(unsure).tolist():
        total = _exact_total(rows[i], what)
        if abs(total - 1.0) > RENORM_TOL:
            raise DistributionError(f"{what} sums to {total!r}, too far from 1 to renormalize")
        if abs(total - 1.0) > SUM_TOL:
            rescaled[i] = total
    return rescaled


def _validated_pmf(a: np.ndarray, what: str) -> np.ndarray:
    """Apply the module normalization policy, returning a read-only copy."""
    a = np.asarray(a, dtype=np.float64)
    for total in _rescaled_rows(a.reshape(1, -1), what).values():
        a = a / total
    return readonly(a)


@dataclass(frozen=True, eq=False)
class JointDensity:
    """A probability mass function on an nx-by-ny grid.

    ``w[i, j]`` is the mass of cell ``(i, j)``. Rows index the X axis and
    columns the Y axis.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DistributionError(f"joint weights must be a nonempty 2-D matrix, got shape {w.shape}")
        object.__setattr__(self, "w", _validated_pmf(w, "joint density"))

    @property
    def nx(self) -> int:
        return self.w.shape[0]

    @property
    def ny(self) -> int:
        return self.w.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.w.shape

    @property
    def min_entry(self) -> float:
        return float(self.w.min())

    @property
    def strictly_positive(self) -> bool:
        return bool(self.w.min() > 0.0)


@dataclass(frozen=True, eq=False)
class MarginalDensity:
    """A probability mass function on one axis of the grid."""

    axis: Axis
    v: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 1:
            raise DistributionError(f"marginal weights must be a nonempty vector, got shape {v.shape}")
        object.__setattr__(self, "v", _validated_pmf(v, f"{self.axis.value}-marginal"))

    def __len__(self) -> int:
        return self.v.shape[0]


@dataclass(frozen=True, eq=False)
class ConditionalKernel:
    """A family of conditional pmfs, one per conditioning slice.

    The matrix ``k`` always has the joint's nx-by-ny shape. For
    ``X_GIVEN_Y`` each column is a pmf over x; for ``Y_GIVEN_X`` each row is
    a pmf over y. ``defined_mask[s]`` is False for slices whose conditioning
    event had zero mass in the source joint; those slices carry the uniform
    pmf as a placeholder.
    """

    direction: Direction
    k: np.ndarray
    defined_mask: np.ndarray

    def __post_init__(self) -> None:
        k = np.array(self.k, dtype=np.float64, order="C")
        if k.ndim != 2 or k.shape[0] < 1 or k.shape[1] < 1:
            raise DistributionError(f"kernel must be a nonempty 2-D matrix, got shape {k.shape}")
        # each slice, a column of X_GIVEN_Y or a row of Y_GIVEN_X, under the module policy
        slices = k.T if self.direction is Direction.X_GIVEN_Y else k
        for i, total in _rescaled_rows(slices, "kernel").items():
            slices[i] /= total
        mask = np.asarray(self.defined_mask, dtype=bool)
        if mask.shape != (self.n_slices_for(k.shape),):
            raise DistributionError(
                f"defined_mask has shape {mask.shape}, expected ({self.n_slices_for(k.shape)},)"
            )
        k.setflags(write=False)
        object.__setattr__(self, "k", k)
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "defined_mask", mask)

    def n_slices_for(self, shape: tuple[int, int]) -> int:
        return shape[1] if self.direction is Direction.X_GIVEN_Y else shape[0]

    @property
    def n_slices(self) -> int:
        return self.n_slices_for(self.k.shape)

    @property
    def shape(self) -> tuple[int, int]:
        return self.k.shape

    def slice_pmf(self, index: int) -> np.ndarray:
        """The conditional pmf for one value of the conditioning axis."""
        if self.direction is Direction.X_GIVEN_Y:
            return self.k[:, index]
        return self.k[index, :]


@dataclass(frozen=True, eq=False)
class Target:
    """A joint density with its conditionals and marginals.

    Built from the joint alone: the two conditional kernels, the two
    marginals and the positivity flag are derived from it on construction.
    :func:`make_target` adds the positivity refusal.
    """

    joint: JointDensity
    cond_x_given_y: ConditionalKernel = field(init=False)
    cond_y_given_x: ConditionalKernel = field(init=False)
    marg_x: MarginalDensity = field(init=False)
    marg_y: MarginalDensity = field(init=False)
    strictly_positive: bool = field(init=False)

    def __post_init__(self) -> None:
        p = self.joint
        object.__setattr__(self, "cond_x_given_y", conditional(p, Direction.X_GIVEN_Y))
        object.__setattr__(self, "cond_y_given_x", conditional(p, Direction.Y_GIVEN_X))
        object.__setattr__(self, "marg_x", marginal(p, Axis.X))
        object.__setattr__(self, "marg_y", marginal(p, Axis.Y))
        object.__setattr__(self, "strictly_positive", p.strictly_positive)

    @property
    def nx(self) -> int:
        return self.joint.nx

    @property
    def ny(self) -> int:
        return self.joint.ny

    @property
    def shape(self) -> tuple[int, int]:
        return self.joint.shape


def marginal(p: JointDensity, axis: Axis) -> MarginalDensity:
    """Sum the joint over the other axis."""
    v = p.w.sum(axis=1) if axis is Axis.X else p.w.sum(axis=0)
    return MarginalDensity(axis, v)


def conditional(p: JointDensity, direction: Direction) -> ConditionalKernel:
    """Divide the joint by the conditioning marginal, slice by slice.

    Slices whose conditioning event has zero mass cannot be normalized; they
    are filled with the uniform pmf and flagged False in ``defined_mask``.
    Only target conditionals must be everywhere defined, and targets are
    validated separately, so this is a reporting convention rather than an
    error.
    """
    w = p.w
    if direction is Direction.X_GIVEN_Y:
        mass = w.sum(axis=0)
        defined = mass > 0.0
        k = np.full_like(w, 1.0 / p.nx)
        k[:, defined] = w[:, defined] / mass[defined]
    else:
        mass = w.sum(axis=1)
        defined = mass > 0.0
        k = np.full_like(w, 1.0 / p.ny)
        k[defined, :] = w[defined, :] / mass[defined][:, None]
    return ConditionalKernel(direction, k, defined)


def compose_raw(v: np.ndarray, k: ConditionalKernel, out: np.ndarray | None = None) -> np.ndarray:
    """The weight matrix v * k for v one weight per kernel slice, unchecked,
    not renormalized and not validated, written into `out` when one is given.

    Its total mass is 1 up to a few ulps per entry when v is a pmf.
    """
    return np.multiply(k.k, v[None, :] if k.direction is Direction.X_GIVEN_Y else v[:, None], out=out)


def compose_with_drift(m: MarginalDensity, k: ConditionalKernel) -> tuple[JointDensity, float]:
    """Multiply a marginal into a kernel and renormalize.

    Returns the joint together with the renormalization drift, the absolute
    deviation of the raw product's total mass from 1. The drift is pure
    floating residue (at most a few ulps per entry) but is reported so long
    iterations can record it.
    """
    if m.axis is not k.direction.conditioning_axis:
        raise DimensionMismatch(
            f"cannot compose a {m.axis.value}-marginal with a {k.direction.value} kernel"
        )
    if len(m) != k.n_slices:
        raise DimensionMismatch(
            f"marginal length {len(m)} does not match kernel slice count {k.n_slices}"
        )
    raw = compose_raw(m.v, k)
    total = stable_sum(raw)
    drift = abs(total - 1.0)
    return JointDensity(raw / total), drift


def compose(m: MarginalDensity, k: ConditionalKernel) -> JointDensity:
    """Multiply a marginal into a kernel: joint(x, y) = m * k, renormalized."""
    joint, _ = compose_with_drift(m, k)
    return joint


def make_target(p: JointDensity, require_positive: bool = True) -> Target:
    """The Target of a joint, whose conditionals and marginals it derives.

    With ``require_positive`` (the default), a joint containing a zero cell
    raises :class:`PositivityViolation`: conditional draws from such a target
    are ill-defined somewhere and the uniqueness of the stationary law is no
    longer guaranteed. Pass ``require_positive=False`` to build the Target
    anyway with ``strictly_positive`` set False.
    """
    if require_positive and not p.strictly_positive:
        raise PositivityViolation(
            f"target has a zero cell (min entry {p.min_entry!r}); "
            "strict positivity is required"
        )
    return Target(p)


def random_positive_target(nx: int, ny: int, seed: int, concentration: float = 1.0) -> Target:
    """The Target of `random_positive_joint`'s draw."""
    return make_target(random_positive_joint(nx, ny, seed, concentration), require_positive=True)


def random_positive_joint(nx: int, ny: int, seed: int, concentration: float = 1.0) -> JointDensity:
    """Draw a strictly positive joint density, deterministically from the seed.

    Cells are iid gamma variates with the given shape parameter, normalized
    to total mass 1 (jointly a symmetric Dirichlet draw). Larger
    concentration flattens the target toward uniform; smaller concentration
    spreads the mass unevenly. A draw with a cell that underflows to zero is
    redrawn from the same stream, in batches of doubling size, while the
    variates drawn stay within `TARGET_MAX_VARIATES` (the first draw is
    always made, alone), then refused. The first draw that passes is kept; a
    draw whose total overflows a float is refused.
    """
    if nx < 1 or ny < 1:
        raise DistributionError(f"grid must be at least 1x1, got {nx}x{ny}")
    if not (np.isfinite(concentration) and concentration > 0.0):
        raise DistributionError(f"concentration must be a positive real, got {concentration!r}")
    if seed < 0:
        raise DistributionError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    left, batch = max(1, TARGET_MAX_VARIATES // (nx * ny)), 1
    while left:
        ws = rng.gamma(concentration, size=(batch, nx, ny))
        left, batch = left - batch, min(2 * batch, left - batch)
        # a draw holding a zero cell fails the test below whatever its total
        for i in np.flatnonzero((ws > 0.0).all(axis=(1, 2))).tolist():
            w = ws[i]
            total = _mass_total(w, f"a {nx}x{ny} draw at concentration {concentration!r}")
            if total > 0.0 and np.all(w / total > 0.0):
                return JointDensity(w / total)
    raise DistributionError(
        f"every {nx}x{ny} draw at concentration {concentration!r} in {TARGET_MAX_VARIATES} variates had a zero cell"
    )


def independence_target(px: MarginalDensity, py: MarginalDensity) -> Target:
    """The product target joint(i, j) = px[i] * py[j]."""
    if px.axis is not Axis.X or py.axis is not Axis.Y:
        raise DimensionMismatch("independence_target needs an X marginal and a Y marginal")
    if px.v.min() <= 0.0 or py.v.min() <= 0.0:
        raise PositivityViolation("both marginals must be strictly positive")
    return make_target(JointDensity(np.outer(px.v, py.v)), require_positive=True)


# --- JSON interchange -------------------------------------------------------
#
# Schema: {"nx": int, "ny": int, "w": [[row-major nonnegative reals]]}.
# Weights may arrive unnormalized; they are normalized on load and rejected
# if any entry is not a JSON number, negative or non-finite or the total is
# nonpositive or too large to represent.


def joint_to_json_dict(p: JointDensity) -> dict:
    return {"nx": p.nx, "ny": p.ny, "w": p.w.tolist()}


def joint_from_json_dict(obj: dict) -> JointDensity:
    if not isinstance(obj, dict):
        raise DistributionError("density JSON must be an object")
    for key in ("nx", "ny", "w"):
        if key not in obj:
            raise DistributionError(f"density JSON is missing the {key!r} field")
    nx, ny = obj["nx"], obj["ny"]
    if not (type(nx) is int and type(ny) is int and nx >= 1 and ny >= 1):
        raise DistributionError(f"nx and ny must be positive integers, got {nx!r}, {ny!r}")
    try:
        w = np.asarray(obj["w"], dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise DistributionError("the w field is not a numeric matrix") from e
    except OverflowError as e:
        raise DistributionError("the w field holds a number too large to represent") from e
    if w.shape != (nx, ny):
        raise DistributionError(f"w has shape {w.shape}, expected ({nx}, {ny})")
    # NumPy reads true, false and numeric strings as numbers; JSON does not
    if not {int, float}.issuperset(map(type, chain.from_iterable(obj["w"]))):
        raise DistributionError("the w field holds an entry that is not a JSON number")
    total = _mass_total(w, "w")
    if total <= 0.0:
        raise DistributionError("w has nonpositive total mass")
    # already-normalized weights pass through untouched so that a save/load
    # cycle is bit-stable; anything else is scaled to total mass 1
    if abs(total - 1.0) > SUM_TOL:
        w = w / total
    return JointDensity(w)


def save_joint(path: str, p: JointDensity) -> None:
    """Write a joint density atomically as ``json.dumps(doc, indent=1)``
    and a newline, doc being `joint_to_json_dict` with its keys sorted.

    The weights are written by `_fsio.float_chunks` a chunk at a time, so
    the whole text is never held: each as ``repr`` writes it, as ``json``
    does, followed by indent 1's separator inside a row, the row's closing
    and the next row's opening after its last entry, and the lists' closing
    after the last weight."""
    head = f'{{\n "nx": {p.nx},\n "ny": {p.ny},\n "w": [\n  [\n   '
    weights = float_chunks(p.w.ravel(), ",\n   ", p.ny, "\n  ],\n  [\n   ", "\n  ]\n ]\n}\n")
    atomic_write_chunks(path, chain([head], weights))


def load_joint(path: str) -> JointDensity:
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except RecursionError as e:
            raise DistributionError(f"{path} nests its JSON too deeply to read") from e
    return joint_from_json_dict(obj)
