"""The alternating density recursion and its convergence runner.

One half-step replaces one coordinate's conditional law with the target's:
from an even time t the X coordinate is refreshed,

    p_(t+1)(x, y) = p_t.marginal_Y(y) * target.cond_x_given_y(x | y),

and from an odd time t the Y coordinate is refreshed symmetrically. Time 0
is even, so the first update always refreshes X given Y. Each half-step is
the reverse information projection of the current density onto the set of
joints carrying the target's conditional, which is what makes the divergence
to the target nonincreasing and the chain of certification identities in
`diagnostics` hold.

`run` iterates half-steps from a starting density, recording per-step
divergence and distance to the target, the one-step divergence, the
projection-identity residual, and the renormalization drift, until the
divergence falls to `eps` or the step budget runs out.

Every iterate after t=0 is a target conditional times one marginal, so `run`
carries that one marginal, a plain vector (the Y marginal of p_t for even t,
the X marginal for odd t), from half-step to half-step, renormalized by its
own correctly rounded sum. By the chain rule, D(p_(t+1) || target) and
V(p_(t+1), target) equal the divergence and L1 distance of that marginal to
the target's marginal on the same axis, which costs O(n). Only the one-step
divergence D(p_t || p_(t+1)) is summed over the joints: deriving it from the
marginals would assume the projection identity that `diagnostics` certifies.
The starting density is arbitrary, so t=0 is measured on the joint.

Only the recursion itself runs one half-step at a time: compose, axis sum,
renormalize. Everything that only reads the iterates is evaluated once per
block of half-steps, in stacked NumPy operations: the one-step divergences
over the stacked joints, and the divergences and distances of the stacked
marginals to the target's. Each row still gets its own correctly rounded
sum (`_numeric.stable_row_sums`), so every recorded value equals the one a
single half-step would give. `run` states how far a block looks ahead.

Densities are validated where they enter the recursion, p0 and the target,
and where a retained state leaves it, on lookup. The vectors in between are
pmfs by construction, a pmf times a validated kernel over its positive total.
States are retained according to a :class:`RetainPolicy` so long traces stay
memory-bounded. A retained state after t=0 keeps only its marginal; its joint
is built, from the same product the one-step divergence used, and validated
on the first lookup. `da_half_step` is the joint-based reference half-step.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from ._fsio import dumps_indent1
from ._numeric import stable_sum
from .dist import (
    Axis,
    JointDensity,
    Target,
    compose_raw,
    compose_with_drift,
    marginal,
)
from .errors import DimensionMismatch, DistributionError, StateNotRetained, TargetNotPositive
from .metrics import (
    ExtReal,
    _l1_rows,
    _rel_entropy_rows,
    encode,
    relative_entropy,
    total_variation,
)


class UpdateKind(enum.Enum):
    """Which conditional refresh produced a state."""

    NONE = "None"
    REFRESH_X = "RefreshX"
    REFRESH_Y = "RefreshY"


def _update_at(t: int) -> UpdateKind:
    """The refresh that produces the state at time t >= 0."""
    if t == 0:
        return UpdateKind.NONE
    return UpdateKind.REFRESH_X if t % 2 == 1 else UpdateKind.REFRESH_Y


class StopReason(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    INFINITE_INITIAL_DIVERGENCE = "InfiniteInitialDivergence"


@dataclass(frozen=True, eq=False)
class DAState:
    """One iterate of the recursion: time index, density, and provenance.

    The provenance follows from the parity of t: the initial state is the
    only one with ``last_update = NONE``, odd times carry a fresh X
    conditional and even times t >= 2 a fresh Y conditional.
    """

    t: int
    density: JointDensity
    last_update: UpdateKind = field(init=False)

    def __post_init__(self) -> None:
        if self.t < 0:
            raise DistributionError(f"state time must be nonnegative, got {self.t}")
        object.__setattr__(self, "last_update", _update_at(self.t))


@dataclass(frozen=True)
class TraceRecord:
    """Per-half-step measurements.

    ``d_step`` is the divergence of this state from its successor and
    ``lemma1_residual`` the defect of the projection identity
    ``D(p_t || target) = D(p_t || p_(t+1)) + D(p_(t+1) || target)``; both
    need the successor, so both are None on a trace's final record.
    ``renorm_drift`` is the drift of the composition that produced this
    state (0.0 for the initial state).
    """

    t: int
    d_to_target: ExtReal
    tv_to_target: float
    d_step: ExtReal | None
    lemma1_residual: float | None
    renorm_drift: float


@dataclass(frozen=True)
class RetainPolicy:
    """Which iterate densities a run keeps: all, none, or every k-th.

    The final state is always retained regardless of policy, so a trace can
    report its endpoint and horizon checks have an anchor.
    """

    kind: str
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("all", "none", "thin"):
            raise DistributionError(f"unknown retain policy {self.kind!r}")
        if self.kind == "thin" and self.k < 1:
            raise DistributionError(f"thin stride must be >= 1, got {self.k}")

    @classmethod
    def all(cls) -> RetainPolicy:
        return cls("all")

    @classmethod
    def none(cls) -> RetainPolicy:
        return cls("none")

    @classmethod
    def thin(cls, k: int) -> RetainPolicy:
        return cls("thin", k)

    def keeps(self, t: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "none":
            return False
        return t % self.k == 0


def _composed(target: Target, v: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    """The weights of p_t, t >= 1: the marginal v of p_(t-1) times the
    target conditional refreshed at t, written into `out` when one is given."""
    kernel = target.cond_x_given_y if t % 2 == 1 else target.cond_y_given_x
    return compose_raw(v, kernel, out)


class _RetainedStates(Mapping[int, DAState]):
    """Retained states keyed by time, each stored as what determines it: the
    starting density at t=0, the marginal vector composed into the target's
    conditional after that.

    A lookup builds the state, validating its joint, on first use and caches
    it. Length, iteration and membership build nothing. Two threads racing
    on a first lookup may both build the state; they build equal values.
    """

    def __init__(self, target: Target, sources: dict[int, JointDensity | np.ndarray]) -> None:
        self._target = target
        self._sources = sources
        self._built: dict[int, DAState] = {}

    def __getitem__(self, t: int) -> DAState:
        state = self._built.get(t)
        if state is None:
            src = self._sources[t]
            density = src if t == 0 else JointDensity(_composed(self._target, src, t))
            state = self._built[t] = DAState(t, density)
        return state

    def __contains__(self, t: object) -> bool:
        return t in self._sources

    def __iter__(self) -> Iterator[int]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


@dataclass(frozen=True, eq=False)
class DATrace:
    """A completed run: the target, one record per visited time, retained
    states keyed by time, and why iteration stopped.

    Records are contiguous from t=0; states hold whatever the retain policy
    kept plus the final state. `run` returns a read-only mapping whose
    states are built on first lookup.
    """

    target: Target
    records: tuple[TraceRecord, ...]
    states: Mapping[int, DAState]
    stop_reason: StopReason

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def last_t(self) -> int:
        return self.records[-1].t

    @property
    def retained_times(self) -> list[int]:
        return sorted(self.states)

    def state_at(self, t: int) -> DAState:
        try:
            return self.states[t]
        except KeyError:
            times = self.retained_times
            raise StateNotRetained(
                f"state at t={t} was not retained ({len(times)} retained times in {times[0]}..{times[-1]})"
            ) from None

    def record_at(self, t: int) -> TraceRecord:
        if not 0 <= t <= self.last_t:
            raise StateNotRetained(f"no record at t={t}; trace covers 0..{self.last_t}")
        return self.records[t]


def half_step_with_drift(s: DAState, target: Target) -> tuple[DAState, float]:
    """Advance one half-step, also reporting the renormalization drift."""
    if s.density.shape != target.shape:
        raise DimensionMismatch(
            f"state is {s.density.shape}, target is {target.shape}"
        )
    if not target.strictly_positive:
        raise TargetNotPositive("cannot iterate toward a target with zero cells")
    if s.t % 2 == 0:
        density, drift = compose_with_drift(marginal(s.density, Axis.Y), target.cond_x_given_y)
    else:
        density, drift = compose_with_drift(marginal(s.density, Axis.X), target.cond_y_given_x)
    return DAState(s.t + 1, density), drift


def da_half_step(s: DAState, target: Target) -> DAState:
    """Advance one half-step of the recursion.

    From even t the X coordinate is refreshed (its conditional given Y
    becomes the target's); from odd t the Y coordinate is. Time 0 counts as
    even.
    """
    state, _ = half_step_with_drift(s, target)
    return state


def initial_state(p0: JointDensity) -> DAState:
    return DAState(0, p0)


def _renormalized_marginal(w: np.ndarray, axis: Axis) -> tuple[np.ndarray, float]:
    """The `axis` marginal of the weights w divided by its correctly rounded
    sum, as a new array, and that sum's distance from 1."""
    v = w.sum(axis=1) if axis is Axis.X else w.sum(axis=0)
    total = stable_sum(v)
    return v / total, abs(total - 1.0)


# a block of half-steps stacks at most this many joint values (64 KiB of
# float64) and at most this many half-steps
_BLOCK_VALUES = 1 << 13
_BLOCK_ROWS = 64


def _measured(target: Target, joints: np.ndarray, vs: list[np.ndarray], t: int) -> list[tuple]:
    """(D(p_s || p_(s+1)), D(p_(s+1) || target), V(p_(s+1), target)) for
    the half-steps from s = t on, where joints stacks the weights of p_t,
    ..., p_(t+k) and vs the k marginals composed between them.

    Each quantity is one stacked row evaluation: the one-step divergences
    pair the stacked joints, and the distances to the target pair every
    other marginal, those of one axis, with that axis's target marginal,
    which by the chain rule gives the joints' values.
    """
    d_next, tv_next = [None] * len(vs), [None] * len(vs)
    for first in range(min(2, len(vs))):
        stack = np.array(vs[first::2])
        q = np.broadcast_to((target.marg_y, target.marg_x)[(t + first) % 2].v, stack.shape)
        d_next[first::2] = _rel_entropy_rows(stack, q, "marginal_relative_entropy")
        tv_next[first::2] = _l1_rows(stack, q)
    d_step = _rel_entropy_rows(joints[:-1], joints[1:])
    return list(zip(d_step, d_next, tv_next))


def run(
    p0: JointDensity,
    target: Target,
    max_half_steps: int,
    eps: float,
    retain: RetainPolicy = RetainPolicy.all(),
) -> DATrace:
    """Iterate half-steps from p0 until D(p_t || target) <= eps or the budget
    max_half_steps is spent.

    A starting density with infinite divergence to the target violates the
    convergence hypothesis; the run stops immediately with
    ``InfiniteInitialDivergence`` and a single record carrying the infinity
    explicitly (never NaN). That can only happen when the target has zero
    cells; a strictly positive target keeps every divergence finite.

    Half-steps are computed and measured in blocks that start at one
    half-step and double up to a cap set by the grid size, so the
    half-steps computed past the stop never outnumber those recorded. A
    block that raises is computed again from its start one half-step at a
    time, and the run goes on that way, so it raises only on reaching the
    half-step that raises, as a per-step loop would.
    """
    if max_half_steps < 1:
        raise DistributionError(f"max_half_steps must be >= 1, got {max_half_steps}")
    if not (np.isfinite(eps) and eps > 0.0):
        raise DistributionError(f"eps must be a positive real, got {eps!r}")
    if p0.shape != target.shape:
        raise DimensionMismatch(f"p0 is {p0.shape}, target is {target.shape}")

    d_cur = relative_entropy(p0, target.joint)
    tv_cur = total_variation(p0, target.joint)

    if not d_cur.is_finite:
        record = TraceRecord(0, d_cur, tv_cur, None, None, 0.0)
        return DATrace(target, (record,), _RetainedStates(target, {0: p0}), StopReason.INFINITE_INITIAL_DIVERGENCE)
    if not target.strictly_positive:
        raise TargetNotPositive("cannot iterate toward a target with zero cells")

    rows_cap = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // p0.w.size))
    joints = np.empty((rows_cap + 1, *p0.shape))
    joints[0] = p0.w
    v, _ = _renormalized_marginal(p0.w, Axis.Y)
    records: list[TraceRecord] = []
    sources: dict[int, JointDensity | np.ndarray] = {}
    # p_t is determined by `src` and passes on the marginal v
    t, src, drift_cur, block = 0, p0, 0.0, 1
    while d_cur.value > eps and t < max_half_steps:
        steps = min(block, max_half_steps - t)
        vs, drifts = [v], []
        try:
            for j in range(1, steps + 1):
                _composed(target, vs[-1], t + j, joints[j])
                v_next, drift = _renormalized_marginal(joints[j], Axis.Y if (t + j) % 2 == 0 else Axis.X)
                vs.append(v_next)
                drifts.append(drift)
            rows = _measured(target, joints[: steps + 1], vs[:steps], t)
        except Exception:
            if steps == 1:
                raise
            block = rows_cap = 1
            continue
        for (d_step, d_next, tv_next), src_next, drift_next in zip(rows, vs, drifts):
            residual = abs(d_cur.value - d_step.value - d_next.value)
            records.append(TraceRecord(t, d_cur, tv_cur, d_step, residual, drift_cur))
            if retain.keeps(t):
                sources[t] = src
            t, src, drift_cur = t + 1, src_next, drift_next
            d_cur, tv_cur = d_next, tv_next
            if d_cur.value <= eps:
                break
        joints[0] = joints[steps]
        v, block = vs[-1], min(2 * block, rows_cap)

    stop = StopReason.CONVERGED if d_cur.value <= eps else StopReason.MAX_ITERS
    records.append(TraceRecord(t, d_cur, tv_cur, None, None, drift_cur))
    sources[t] = src
    return DATrace(target, tuple(records), _RetainedStates(target, sources), stop)


def fixed_point_residual(target: Target) -> float:
    """Largest entrywise deviation from the target over two half-steps
    started at the target itself. Stationarity keeps this at rounding level
    (at most about 1e-12 at desk scale)."""
    state = initial_state(target.joint)
    worst = 0.0
    for _ in range(2):
        state = da_half_step(state, target)
        dev = float(abs(state.density.w - target.joint.w).max())
        worst = max(worst, dev)
    return worst


# --- trace export ------------------------------------------------------------

_FIELDS = tuple(f.name for f in fields(TraceRecord))
CSV_HEADER = ",".join(_FIELDS)


def _encoded(r: TraceRecord) -> list[float | int | str | None]:
    return [encode(getattr(r, name)) for name in _FIELDS]


def trace_to_csv(trace: DATrace) -> str:
    """Render records as CSV, one row per half-step.

    Infinity prints as the literal `inf`; the final record's d_step and
    lemma1_residual columns are empty (no successor exists). Floats use
    shortest round-trip notation, so output is bit-stable across runs.
    """
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(",".join("" if v is None else str(v) for v in _encoded(r)))
    return "\n".join(lines) + "\n"


def trace_to_json_dict(trace: DATrace) -> dict:
    """Trace as a JSON-ready dict mirroring the CSV fields.

    Infinity is rendered as the string "inf" (strict JSON has no Infinity
    literal) and absent fields as null.
    """
    return {
        "nx": trace.target.nx,
        "ny": trace.target.ny,
        "stop_reason": trace.stop_reason.value,
        "half_steps": trace.last_t,
        "retained_times": trace.retained_times,
        "records": [dict(zip(_FIELDS, _encoded(r))) for r in trace.records],
    }


def trace_to_json(trace: DATrace) -> str:
    return dumps_indent1(trace_to_json_dict(trace)) + "\n"
