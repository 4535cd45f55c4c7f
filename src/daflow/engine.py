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
divergence falls to `eps` or the step budget runs out. Densities themselves
are retained according to a :class:`RetainPolicy` so long traces stay
memory-bounded.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, fields

from .dist import Axis, JointDensity, Target, compose_with_drift, marginal
from .errors import DimensionMismatch, DistributionError, StateNotRetained, TargetNotPositive
from .metrics import ExtReal, encode, relative_entropy, total_variation


class UpdateKind(enum.Enum):
    """Which conditional refresh produced a state."""

    NONE = "None"
    REFRESH_X = "RefreshX"
    REFRESH_Y = "RefreshY"


class StopReason(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    INFINITE_INITIAL_DIVERGENCE = "InfiniteInitialDivergence"


@dataclass(frozen=True, eq=False)
class DAState:
    """One iterate of the recursion: time index, density, and provenance.

    The parity structure is fixed: the initial state is the only one with
    ``last_update = NONE``, odd times always carry a fresh X conditional and
    even times t >= 2 a fresh Y conditional.
    """

    t: int
    density: JointDensity
    last_update: UpdateKind

    def __post_init__(self) -> None:
        if self.t < 0:
            raise DistributionError(f"state time must be nonnegative, got {self.t}")
        if (self.t == 0) != (self.last_update is UpdateKind.NONE):
            raise DistributionError("last_update must be NONE exactly at t=0")
        if self.t >= 1:
            expected = UpdateKind.REFRESH_X if self.t % 2 == 1 else UpdateKind.REFRESH_Y
            if self.last_update is not expected:
                raise DistributionError(
                    f"t={self.t} requires last_update={expected.value}, got {self.last_update.value}"
                )


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


@dataclass(frozen=True, eq=False)
class DATrace:
    """A completed run: the target, one record per visited time, retained
    states keyed by time, and why iteration stopped.

    Records are contiguous from t=0; states hold whatever the retain policy
    kept plus the final state.
    """

    target: Target
    records: tuple[TraceRecord, ...]
    states: dict[int, DAState]
    stop_reason: StopReason

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def last_t(self) -> int:
        return self.records[-1].t

    @property
    def final_state(self) -> DAState:
        return self.states[self.last_t]

    @property
    def retained_times(self) -> list[int]:
        return sorted(self.states)

    def state_at(self, t: int) -> DAState:
        try:
            return self.states[t]
        except KeyError:
            raise StateNotRetained(
                f"state at t={t} was not retained (have {self.retained_times})"
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
        update = UpdateKind.REFRESH_X
    else:
        density, drift = compose_with_drift(marginal(s.density, Axis.X), target.cond_y_given_x)
        update = UpdateKind.REFRESH_Y
    return DAState(s.t + 1, density, update), drift


def da_half_step(s: DAState, target: Target) -> DAState:
    """Advance one half-step of the recursion.

    From even t the X coordinate is refreshed (its conditional given Y
    becomes the target's); from odd t the Y coordinate is. Time 0 counts as
    even.
    """
    state, _ = half_step_with_drift(s, target)
    return state


def initial_state(p0: JointDensity) -> DAState:
    return DAState(0, p0, UpdateKind.NONE)


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
    """
    if max_half_steps < 1:
        raise DistributionError(f"max_half_steps must be >= 1, got {max_half_steps}")
    if not eps > 0.0:
        raise DistributionError(f"eps must be positive, got {eps!r}")
    if p0.shape != target.shape:
        raise DimensionMismatch(f"p0 is {p0.shape}, target is {target.shape}")

    state = initial_state(p0)
    d_cur = relative_entropy(p0, target.joint)
    tv_cur = total_variation(p0, target.joint)
    drift_cur = 0.0

    if not d_cur.is_finite:
        record = TraceRecord(0, d_cur, tv_cur, None, None, 0.0)
        return DATrace(target, (record,), {0: state}, StopReason.INFINITE_INITIAL_DIVERGENCE)
    if not target.strictly_positive:
        raise TargetNotPositive("cannot iterate toward a target with zero cells")

    records: list[TraceRecord] = []
    states: dict[int, DAState] = {}
    while True:
        if d_cur.value <= eps:
            stop = StopReason.CONVERGED
            break
        if state.t >= max_half_steps:
            stop = StopReason.MAX_ITERS
            break
        nxt, drift_next = half_step_with_drift(state, target)
        d_next = relative_entropy(nxt.density, target.joint)
        tv_next = total_variation(nxt.density, target.joint)
        d_step = relative_entropy(state.density, nxt.density)
        residual = abs(d_cur.value - d_step.value - d_next.value)
        records.append(TraceRecord(state.t, d_cur, tv_cur, d_step, residual, drift_cur))
        if retain.keeps(state.t):
            states[state.t] = state
        state, d_cur, tv_cur, drift_cur = nxt, d_next, tv_next, drift_next

    records.append(TraceRecord(state.t, d_cur, tv_cur, None, None, drift_cur))
    states[state.t] = state
    return DATrace(target, tuple(records), states, stop)


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
    return json.dumps(trace_to_json_dict(trace), indent=1) + "\n"
