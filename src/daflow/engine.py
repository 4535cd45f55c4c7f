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
divergence falls to `eps` or the step budget runs out. The measurements are
kept as float64 columns (:class:`TraceRecords`), one entry per visited time.
A :class:`TraceRecord` is built from them only when one is read; the
certification checks read the columns, and `_fsio.table_chunks`, the verify
JSON's writer too, writes the trace exports from them, a chunk of rows at
a time laid out as byte columns in NumPy.

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
single half-step would give. A block stacks at most `_BLOCK_VALUES` joint
values, 20 half-steps at 28 x 28, and `run` states how far it looks ahead.

Densities are validated where they enter the recursion, p0 and the target,
and where a retained state leaves it. The vectors in between are pmfs by
construction, a pmf times a validated kernel over its positive total.
States are retained according to a :class:`RetainPolicy` so long traces stay
memory-bounded. A retained state after t=0 keeps only its marginal, one row
of an array; `run` copies a block's kept rows from the stacks it measured,
beside the block's measurements. A state's joint, the product the one-step
divergence used, is composed and validated each time `DATrace.joints`
stacks it, which `state_at` calls too. `da_half_step` is the joint-based
reference half-step.
"""

from __future__ import annotations

import enum
import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from ._fsio import JSON_SPECIALS, record_template, table_chunks
from ._numeric import readonly, stable_sum
from .dist import (
    Axis,
    JointDensity,
    Target,
    _rescaled_rows,
    compose_raw,
    compose_with_drift,
    marginal,
)
from .errors import DimensionMismatch, DistributionError, StateNotRetained, TargetNotPositive
from .metrics import (
    ExtReal,
    _l1_rows,
    _rel_entropy_array,
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


_FIELDS = tuple(f.name for f in fields(TraceRecord))


class TraceRecords(Sequence[TraceRecord]):
    """A trace's records, contiguous from t=0, held as read-only float64
    columns named after the record's fields: `d_to_target`, `tv_to_target`
    and `renorm_drift` with one entry per record, `d_step` and
    `lemma1_residual` with one per record but the final one.

    A record is built from the columns on access, its fields Python floats
    and ExtReals; nothing else builds one. Columns whose lengths do not
    agree, among them empty ones, are refused.
    """

    def __init__(self, d_to_target, tv_to_target, d_step, lemma1_residual, renorm_drift) -> None:
        self.d_to_target, self.tv_to_target, self.d_step, self.lemma1_residual, self.renorm_drift = map(
            readonly, (d_to_target, tv_to_target, d_step, lemma1_residual, renorm_drift)
        )
        lengths = [len(getattr(self, name)) for name in _FIELDS[1:]]
        n = lengths[0]
        if lengths != [n, n, n - 1, n - 1, n]:
            names = ", ".join(_FIELDS[1:])
            raise DistributionError(f"trace columns {names} need n, n, n - 1, n - 1 and n >= 1 entries, got {lengths}")

    def __len__(self) -> int:
        return len(self.d_to_target)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[t] for t in range(len(self))[i])
        t = range(len(self))[i]
        step = (ExtReal(float(self.d_step[t])), float(self.lemma1_residual[t])) if t < len(self.d_step) else (None, None)
        return TraceRecord(
            t, ExtReal(float(self.d_to_target[t])), float(self.tv_to_target[t]), *step, float(self.renorm_drift[t])
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceRecords):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


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


class _RetainedStates:
    """Retained states, each stored as what determines it: the starting
    density p0 for t=0, and after that the marginal composed into the
    target's conditional at its time.

    `times` holds the retained times as a sorted int64 array. Row i of
    `rows`, a float64 array as wide as the grid's longer side, starts with
    the marginal composed into the state at times[i]: a Y marginal for odd
    times, an X marginal for even ones; the row of t=0 is not read. Only
    `joints` composes a state, anew on every call; nothing is cached.
    """

    def __init__(self, target: Target, p0: JointDensity, times: np.ndarray, rows: np.ndarray) -> None:
        self._target, self._p0, self.times, self._rows = target, p0, times, rows

    def joints(self, ts: Sequence[int]) -> np.ndarray:
        """The weights of the states at the listed times, stacked along a new
        first axis: p0's, or the product `run` measured of a kept marginal
        and the conditional refreshed at its time, validated as a
        `JointDensity` is. A time not retained raises StateNotRetained."""
        target, times = self._target, self.times
        out = np.empty((len(ts), *target.shape))
        for row, t, i in zip(out, ts, np.searchsorted(times, ts).tolist()):
            if i == len(times) or times[i] != t:
                raise StateNotRetained(
                    f"state at t={t} was not retained ({len(times)} retained times in {times[0]}..{times[-1]})"
                )
            if t:
                _composed(target, self._rows[i, : row.shape[t % 2]], t, row)
            else:
                row[...] = self._p0.w
        rows = out.reshape(len(ts), target.nx * target.ny)
        for i, total in _rescaled_rows(rows, "joint density").items():
            rows[i] /= total
        return out

    def __contains__(self, t: object) -> bool:
        return t in self.times

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class DATrace:
    """A completed run: the target, one record per visited time, retained
    states, and why iteration stopped.

    It takes its records as :class:`TraceRecords`, columns contiguous from
    t=0. States hold whatever the retain policy kept plus the final state;
    `joints` stacks their weights, and `state_at` builds one state from
    that stack, both anew on every call.
    """

    target: Target
    records: TraceRecords
    states: _RetainedStates
    stop_reason: StopReason

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @property
    def last_t(self) -> int:
        return len(self.records) - 1

    @property
    def retained_times(self) -> list[int]:
        return self.states.times.tolist()

    def state_at(self, t: int) -> DAState:
        return DAState(t, JointDensity(self.joints([t])[0]))

    def joints(self, ts: Sequence[int]) -> np.ndarray:
        """The weights of the retained states at the listed times, stacked and
        validated, composed anew on every call (`_RetainedStates.joints`); a
        time not retained raises StateNotRetained."""
        return self.states.joints(ts)

    def record_at(self, t: int) -> TraceRecord:
        self._check_time(t)
        return self.records[t]

    def column(self, name: str, ts: Sequence[int]) -> np.ndarray:
        """The records' float64 column `name` at the listed times, refusing
        a time outside the trace as `record_at` does, and the final time for
        `d_step` and `lemma1_residual`, which need a successor."""
        values = getattr(self.records, name)
        if len(ts):
            self._check_time(min(ts))
            self._check_time(max(ts))
            if max(ts) >= len(values):
                raise StateNotRetained(f"no {name} at t={max(ts)}: the final record has no successor")
        return values[np.asarray(ts, dtype=np.int64)]

    def _check_time(self, t: int) -> None:
        if not 0 <= t <= self.last_t:
            raise StateNotRetained(f"no record at t={t}; trace covers 0..{self.last_t}")


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


# a block of half-steps stacks at most this many joint values (128 KiB of
# float64) and at most this many half-steps; twice as many values would give
# 120 x 120 grids blocks of two half-steps, whose look-ahead costs more there
# than the stacking saves
_BLOCK_VALUES = 1 << 14
_BLOCK_ROWS = 64
# `run` copies its blocks' values to the trace's columns this many blocks at
# a time (at most 1,024 half-steps): a NumPy call per column and copy, where
# a call per column and block cost about 4% of a 120 x 120 run
_PENDING_BLOCKS = 16


def _measured(
    target: Target, joints: np.ndarray, vs: list[np.ndarray], t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The columns D(p_s || p_(s+1)), D(p_(s+1) || target) and
    V(p_(s+1), target) for the half-steps from s = t on, where joints stacks
    the weights of p_t, ..., p_(t+k) and vs the k marginals composed between
    them, and the stacks vs[0::2] and vs[1::2].

    Each column is one stacked row evaluation: the one-step divergences
    pair the stacked joints, and the distances to the target pair every
    other marginal, those of one axis, with that axis's target marginal,
    which by the chain rule gives the joints' values. A NaN divergence is
    refused as an ExtReal refuses it.
    """
    d_next, tv_next = np.empty(len(vs)), np.empty(len(vs))
    stacks = [np.array(vs[first::2]) for first in range(min(2, len(vs)))]
    for first, stack in enumerate(stacks):
        q = np.broadcast_to((target.marg_y, target.marg_x)[(t + first) % 2].v, stack.shape)
        d_next[first::2] = _rel_entropy_array(stack, q, "marginal_relative_entropy")
        tv_next[first::2] = _l1_rows(stack, q)
    d_step = _rel_entropy_array(joints[:-1], joints[1:])
    # divergences are never -inf, so their total is NaN exactly when one is
    if math.isnan(sum(d_step.tolist()) + sum(d_next.tolist())):
        raise DistributionError("ExtReal cannot hold NaN")
    return d_step, d_next, tv_next, stacks


def start_divergence(p0: JointDensity, target: Target, max_half_steps: int, eps: float) -> float:
    """D(p0 || target), after the refusals `run` makes before its first
    half-step, in this order: a budget below one half-step, an eps that is
    not a positive real, a p0 whose shape is not the target's, and a finite
    divergence to a target with a zero cell (TargetNotPositive). An infinite
    divergence is returned, not refused: `run` records it and stops."""
    if max_half_steps < 1:
        raise DistributionError(f"max_half_steps must be >= 1, got {max_half_steps}")
    if not (np.isfinite(eps) and eps > 0.0):
        raise DistributionError(f"eps must be a positive real, got {eps!r}")
    if p0.shape != target.shape:
        raise DimensionMismatch(f"p0 is {p0.shape}, target is {target.shape}")
    d = relative_entropy(p0, target.joint).value
    if d < math.inf and not target.strictly_positive:
        raise TargetNotPositive("cannot iterate toward a target with zero cells")
    return d


def run(
    p0: JointDensity,
    target: Target,
    max_half_steps: int,
    eps: float,
    retain: RetainPolicy = RetainPolicy.all(),
) -> DATrace:
    """Iterate half-steps from p0 until D(p_t || target) <= eps or the budget
    max_half_steps is spent, after the refusals of `start_divergence`.

    A starting density with infinite divergence to the target violates the
    convergence hypothesis; the run stops immediately with
    ``InfiniteInitialDivergence`` and a single record carrying the infinity
    explicitly (never NaN). That can only happen when the target has zero
    cells; a strictly positive target keeps every divergence finite.

    Half-steps are computed and measured in blocks that start at one
    half-step and double up to a cap set by the grid size (`_BLOCK_VALUES`
    joint values, at most `_BLOCK_ROWS` half-steps), so the half-steps
    computed past the stop never outnumber those recorded. A block that
    raises is computed again from its start one half-step at a time, and the
    run goes on that way, so it raises only on reaching the half-step that
    raises, as a per-step loop would.

    A block's measurements stay float64 arrays, appended with the times it
    keeps and their `_kept` rows to columns that grow in place (`_Column`):
    the stop is the first half-step of the block whose divergence reaches
    eps, and the trace's columns and kept rows are those columns, with the
    projection-identity residuals formed from them elementwise. No record
    is built, and no column is ever held twice.
    """
    d_cur = start_divergence(p0, target, max_half_steps, eps)
    tv_cur = total_variation(p0, target.joint)
    rows_cap = max(1, min(_BLOCK_ROWS, _BLOCK_VALUES // p0.w.size))
    joints = np.empty((rows_cap + 1, *p0.shape))
    joints[0] = p0.w
    v, _ = _renormalized_marginal(p0.w, Axis.Y)
    width = max(p0.shape)
    nothing = _kept(0, [], [], width)
    # per block, t=0 first: the one-step divergences; the divergences,
    # distances and drifts of the states it reached; and the times of those
    # it keeps with their `_kept` rows. The blocks wait in `pending` until
    # `flush` appends them to the growing columns.
    growing = tuple(_Column() for _ in range(6))
    pending: list[tuple] = []

    def flush() -> None:
        for column, pieces in zip(growing, zip(*pending)):
            column.extend(pieces)
        pending.clear()

    def record(*parts) -> None:
        pending.append(parts)
        if len(pending) == _PENDING_BLOCKS:
            flush()

    record((), [d_cur], [tv_cur], [0.0], *_kept(0, [0] if retain.keeps(0) else [], [v[None]], width))
    t, block = 0, 1
    while eps < d_cur < math.inf and t < max_half_steps:
        steps = min(block, max_half_steps - t)
        vs, drifts = [v], np.empty(steps)
        try:
            for j in range(1, steps + 1):
                _composed(target, vs[-1], t + j, joints[j])
                v_next, drifts[j - 1] = _renormalized_marginal(joints[j], Axis.Y if (t + j) % 2 == 0 else Axis.X)
                vs.append(v_next)
            d_step, d_next, tv_next, stacks = _measured(target, joints[: steps + 1], vs[:steps], t)
        except Exception:
            if steps == 1:
                raise
            block = rows_cap = 1
            continue
        # the block's half-steps up to the first that reaches eps
        k = next((j for j, d in enumerate(d_next.tolist(), 1) if d <= eps), steps)
        offsets = [j for j in range(k) if retain.keeps(t + 1 + j)]
        kept = _kept(t + 1, offsets, stacks, width) if offsets else nothing
        record(d_step[:k], d_next[:k], tv_next[:k], drifts[:k], *kept)
        t, d_cur = t + k, float(d_next[k - 1])
        joints[0] = joints[steps]
        v, block = vs[-1], min(2 * block, rows_cap)

    stop = StopReason.CONVERGED if d_cur <= eps else StopReason.MAX_ITERS
    if d_cur == math.inf:
        stop = StopReason.INFINITE_INITIAL_DIVERGENCE
    if not retain.keeps(t):
        # the final state, always retained, is the last block's last
        record((), (), (), (), *_kept(t, [0], [(vs[k - 1] if t else v)[None]], width))
    flush()
    # the record columns are frozen in place, so `TraceRecords` keeps them
    d_step, d_to_target, tv_to_target, drift, times, rows = (column.final() for column in growing)
    residual = d_to_target[:-1] - d_step
    residual -= d_to_target[1:]
    columns = (d_to_target, tv_to_target, d_step, np.abs(residual, out=residual), drift)
    for column in columns:
        column.setflags(write=False)
    return DATrace(target, TraceRecords(*columns), _RetainedStates(target, p0, times, rows), stop)


class _Column:
    """An array that `run` appends its blocks' values to: made from the
    first nonempty ones, grown in place by a quarter of its length when
    full, and cut to the values by `final`. NumPy grows and cuts an array
    it owns with one reallocation, so the column is never held beside a copy
    of itself (the C library moves a large array by remapping its pages)."""

    def __init__(self) -> None:
        self.values, self.n = np.empty(0), 0

    def extend(self, pieces: Sequence) -> None:
        if not self.n:
            self.values = np.concatenate(pieces)
            self.n = len(self.values)
            return
        end = self.n + sum(map(len, pieces))
        if end > len(self.values):
            self.values.resize((max(end, len(self.values) * 5 // 4), *self.values.shape[1:]), refcheck=False)
        np.concatenate(pieces, out=self.values[self.n : end])
        self.n = end

    def final(self) -> np.ndarray:
        if self.n < len(self.values):
            self.values.resize((self.n, *self.values.shape[1:]), refcheck=False)
        return self.values


def _kept(t: int, offsets: list[int], stacks: list[np.ndarray], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The times t + j of the offsets j as int64, and as zero-padded float64
    rows of `width` the marginals at j in the parity `stacks` of `_measured`."""
    rows = np.zeros((sum(map(len, stacks)), width))
    for first, stack in enumerate(stacks):
        rows[first::2, : stack.shape[1]] = stack
    times = np.array([t + j for j in offsets], dtype=np.int64)
    return times, rows if len(offsets) == len(rows) else rows.take(offsets, axis=0)


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

CSV_HEADER = ",".join(_FIELDS)

# one record as a CSV row and as `json.dumps(doc, indent=1)` writes it inside
# doc["records"], around its values
_CSV_PIECES = ["", *[","] * (len(_FIELDS) - 1), "\n"]
_JSON_PIECES = record_template(_FIELDS, 2).split("%s")


def _record_columns(records: TraceRecords) -> list:
    """The records' columns in `_FIELDS` order, t first, as a range."""
    return [range(len(records)), *(getattr(records, name) for name in _FIELDS[1:])]


def trace_csv_chunks(trace: DATrace) -> Iterator[str]:
    """Render records as CSV, one row per half-step: the header line, then
    the rows in the chunks of `_fsio.table_chunks`, each with its line ends.

    Infinity prints as the literal `inf`; the final record's d_step and
    lemma1_residual columns are empty (no successor exists). Floats use
    shortest round-trip notation, so output is bit-stable across runs: the
    text of `metrics.encode` (``repr`` of an infinity is already ``inf``).
    """
    yield f"{CSV_HEADER}\n"
    yield from table_chunks(_CSV_PIECES, _record_columns(trace.records), len(trace.records))


def trace_to_csv(trace: DATrace) -> str:
    """The text of `trace_csv_chunks`, whole."""
    return "".join(trace_csv_chunks(trace))


def trace_json_chunks(trace: DATrace) -> Iterator[str]:
    """The trace as ``json.dumps(doc, indent=1) + "\\n"``, byte for byte,
    where doc holds nx, ny, stop_reason, half_steps, retained_times and one
    dict per record of `metrics.encode`'s values ("inf" for an infinity,
    null for an absent field). Both lists are written in the chunks of
    `_fsio.table_chunks`, the records from the same columns as the CSV's."""
    head = json.dumps({
        "nx": trace.target.nx,
        "ny": trace.target.ny,
        "stop_reason": trace.stop_reason.value,
        "half_steps": trace.last_t,
    }, indent=1)
    times, records = trace.states.times, trace.records
    lists = {
        "retained_times": table_chunks(["  ", ""], [times], len(times), sep=",\n"),
        "records": table_chunks(
            _JSON_PIECES, _record_columns(records), len(records), sep=",\n", specials=JSON_SPECIALS
        ),
    }
    # head ends with the dict's closing "\n}"; both lists are nonempty
    yield head[:-2]
    for key, chunks in lists.items():
        yield f',\n "{key}": [\n'
        yield from chunks
        yield "\n ]"
    yield "\n}\n"


def trace_to_json(trace: DATrace) -> str:
    """The text of `trace_json_chunks`, whole."""
    return "".join(trace_json_chunks(trace))
